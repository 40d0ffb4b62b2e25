import sys
import tracemalloc

import pytest

from moediv import tensor as T


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def no_grad_peak():
    """tracemalloc peak in bytes of one no-grad call of ``f``, after a warm-up call."""
    def measure(f):
        with T.no_grad():
            f()
            tracemalloc.start()
            try:
                f()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    return measure

"""Span recording from outside the program, and the statistics the report uses.

The benchmark wraps public functions of ``moediv`` at the module attribute
each caller looks them up through, records one span per call, and puts the
original functions back when the traced block ends. A span is its name,
start, end and parent, which is all that self time needs.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Nested spans and named counters, kept in memory for one unit of work."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = {}
        self._open = []

    def _begin(self, name):
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def _end(self, index):
        self._open.pop()
        self.spans[index][2] = self.clock()

    @contextmanager
    def span(self, name):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name, before=None, after=None):
        """Return ``fn`` recording a span called ``name`` around each call.

        ``before(tracer, args)`` and ``after(tracer, args, result)`` gather
        counts; they run in ``bench.hook`` spans of their own, so their cost
        is not charged to the wrapped call or to its caller's self time.
        """

        def traced(*args, **kwargs):
            if before is not None:
                with self.span("bench.hook"):
                    before(self, args)
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if after is not None:
                with self.span("bench.hook"):
                    after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


@contextmanager
def patched(replacements):
    """Set ``obj.attr = value`` for each triple, and restore the originals on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _has_ancestor(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans, duration=None):
    """Per span name: ``ms`` (nested same-name spans counted once),
    ``self_ms`` (minus the time covered by child spans) and ``calls``.

    ``duration(start, end)`` gives a span's seconds; the default is
    ``end - start``. Spans come from one thread, so children never overlap
    and the time they cover is the sum of their durations.
    """
    if duration is None:
        def duration(start, end):
            return end - start
    lengths = [duration(start, end) for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += lengths[i]
    out = {}
    for i, (name, _, _, parent) in enumerate(spans):
        entry = out.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_ms"] += 1e3 * (lengths[i] - covered[i])
        if not _has_ancestor(spans, parent, name):
            entry["ms"] += 1e3 * lengths[i]
    return out


def count_within(spans, name, ancestor):
    """Number of spans called ``name`` that run inside a span called ``ancestor``."""
    return sum(
        1 for span_name, _, _, parent in spans
        if span_name == name and _has_ancestor(spans, parent, ancestor)
    )


def percentile(values, q, min_beyond=10):
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises ValueError unless at least ``min_beyond`` samples rank above it,
    so a reported tail percentile always rests on ten or more samples.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {len(ordered) - rank} above it, "
            f"fewer than {min_beyond}"
        )
    return ordered[rank - 1]


def median(values):
    return float(statistics.median(values))

"""Wall time at a fixed reference speed.

The CPU this benchmark runs on can change speed by a third within minutes,
because other machines share the host. Every part of the program slows
alike, so the benchmark runs a short, fixed reference slice between the
program's calls, at most every ``PERIOD_S`` seconds, and reads the host's
speed off the slice's duration at that moment. Each stretch of wall time
is then scaled by ``NOMINAL_S / (nearby slice durations)`` and slice time
itself is left out. A figure in reference seconds is what the same work
takes when the reference slice takes ``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import statistics

import numpy as np

REF_SPAN = "bench.ref"
NOMINAL_S = 0.010
PERIOD_S = 0.2
NEIGHBOURS = 5  # slices on each side whose median gives the local speed

_rng = np.random.default_rng(0)
_A = _rng.random((512, 64))
_W = _rng.random((64, 128))
_BIG = _rng.random((2048, 160))


def reference_slice():
    """Fixed work in the program's own mix: about a third each of BLAS,
    large elementwise passes, and small numpy ops with interpreter work.
    About 10 ms."""
    acc = 0.0
    for _ in range(12):
        acc += float(np.tanh(_A @ _W).sum())
        acc += float((_BIG * 1.0001).sum())
        for j in range(50):
            row = {"x": [k * 1.5 for k in range(10)], "j": j}
            acc += row["j"] + float((_A[j] * 2.0 + 1.0).sum())
    return acc


class Pacer:
    """Runs reference slices into a Tracer, each in a ``bench.ref`` span."""

    def __init__(self, tracer, period=PERIOD_S):
        self.tracer = tracer
        self.period = period
        self.last = tracer.clock()

    def slice(self, times=1):
        for _ in range(times):
            with self.tracer.span(REF_SPAN):
                reference_slice()
        self.last = self.tracer.clock()

    def __call__(self):
        if self.tracer.clock() - self.last >= self.period:
            self.slice()

    def paced(self, fn):
        """``fn`` with a due slice run before each call."""

        def call(*args, **kwargs):
            self()
            return fn(*args, **kwargs)

        call.__wrapped__ = fn
        return call


class Calibration:
    """Maps a wall-clock interval to reference seconds, given the slices."""

    def __init__(self, spans, nominal=NOMINAL_S, neighbours=NEIGHBOURS):
        refs = sorted((s, e) for name, s, e, _ in spans if name == REF_SPAN)
        if not refs:
            raise ValueError("no reference slices to calibrate with")
        self.starts = [s for s, _ in refs]
        self.ends = [e for _, e in refs]
        durations = [e - s for s, e in refs]
        self.slice_s = statistics.median(durations)
        # the gap before slice g has slices g-n .. g+n-1 around it
        self.scale = [
            nominal / statistics.median(
                durations[max(0, g - neighbours):max(1, g + neighbours)])
            for g in range(len(refs) + 1)
        ]

    def __call__(self, start, end):
        """Reference seconds of [start, end], leaving out slice time."""
        g = bisect.bisect_right(self.ends, start)
        t = start
        total = 0.0
        while t < end:
            if g < len(self.starts) and self.starts[g] <= t:
                t = self.ends[g]  # inside slice g: skip it
                g += 1
                continue
            stop = min(end, self.starts[g]) if g < len(self.starts) else end
            total += (stop - t) * self.scale[g]
            t = stop
        return total

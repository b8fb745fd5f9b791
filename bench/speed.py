"""Machine-speed probe.

The machines this benchmark runs on are shared: the same pure-Python
loop runs up to 1.5x slower or faster from one minute to the next. A run
therefore times a fixed probe job every quarter second, between items,
and scales every time it reports by REF_S / (mean probe time of the
run). Times are thus in "reference-speed seconds": on a machine running
the probe in REF_S they equal wall-clock time. The probe does what
finhom's inner loops do, a small matrix product mod 4 over tuples. One
factor per run follows drift between runs without adding noise to the
order of the items within a run.  The mean, not the median: the probe
time is often bimodal (two speed states the machine switches between
within seconds), and the mean weighs the states by the time spent in
each, as the measured items feel them.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.0045     # probe time this benchmark calls reference speed
EVERY_S = 0.25     # probe period during a measured loop
JOBS = 8


def _job() -> int:
    a = [tuple((i * 7 + j * 3) % 4 for j in range(16)) for i in range(16)]
    cols = list(zip(*a))
    return hash(tuple(tuple(sum(x * y for x, y in zip(row, col)) % 4 for col in cols)
                      for row in a))


def probe() -> float:
    """Seconds the fixed probe job takes now."""
    t0 = time.perf_counter()
    for _ in range(JOBS):
        _job()
    return time.perf_counter() - t0


class Speed:
    """Probes taken along a run, and the scale factor they give."""

    def __init__(self):
        self.samples = []  # (perf_counter at the probe, probe seconds)

    def sample(self):
        self.samples.append((time.perf_counter(), probe()))

    def due(self) -> bool:
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S

    def scale(self) -> float:
        """REF_S over the mean probe so far."""
        return REF_S / statistics.fmean(p for _, p in self.samples)

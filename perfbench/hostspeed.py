"""Host-speed calibration for a shared host whose speed drifts.

On the 2-vCPU reference host, other tenants change the speed of a vCPU by
up to about 2x over tens of minutes.  In one period a fixed pure-Python
kernel took 30 ms and the benchmark's units took 1.75x as long as in
another period, when the kernel took 15 ms.  Medians of runs made minutes
apart would mostly measure that drift.

So every run times a fixed pure-Python kernel, which no change to the
library can speed up or slow down.  It runs at the start of the run,
between units (at most once per ``SAMPLE_EVERY_S``) and at the end, never
inside a timed unit.  Times are then reported in *reference seconds*:
host seconds x ``REFERENCE_KERNEL_S`` / median kernel time of the run.
Raw host seconds are printed and recorded beside them.
"""

from __future__ import annotations

import statistics
import time

#: Kernel time on the uncontended reference host (2 vCPUs, CPython 3.11.7).
REFERENCE_KERNEL_S = 0.015

#: Minimum host seconds between two calibration samples.
SAMPLE_EVERY_S = 1.0

#: Kernel runs per sample; the median of all runs in a run is used.
REPEATS = 3


def kernel() -> float:
    """Seconds for a fixed mix of dict, integer and sort work.

    The table stays small (1024 keys) so the kernel never raises the
    client's peak RSS.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        k = (i * 2654435761) & 0x3FF
        table[k] = table.get(k, 0) + i
        acc ^= (acc << 1 | i) & 0xFFFFFFFF
    sorted(table.values())
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples of one run and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last: float | None = None

    def sample(self) -> None:
        self.samples += [kernel() for _ in range(REPEATS)]
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if self._last is None or time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    @property
    def scale(self) -> float:
        """Reference seconds per host second in this run."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)

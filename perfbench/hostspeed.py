"""Host speed reference for the end-to-end timings.

On a shared virtual machine the speed of the same pure-Python loop
swings by up to 2.5x within seconds and by 10-30% between
half-minute stretches, far more than the changes a regression gate must
see.  The benchmark therefore times a fixed reference loop, which no
code of the checker can affect, between requests (never inside one),
and states each timing at the reference speed: a pass's wall time is
multiplied by ``NOMINAL_S / median(reference loop times during the
pass)``, a request's latency by the same ratio over the ``NEAREST``
samples taken closest to it.  A timing taken while the host runs at the nominal speed
reads its raw value; a checker that is 20% slower still reads 20%
slower.  The traced run reports the
factor as ``host.speed`` and every per-layer time raw.
"""

from __future__ import annotations

import statistics
import time
from typing import List

# 200,000 iterations take about NOMINAL_S on the 2-vCPU reference host.
REF_ITERATIONS = 200_000
NOMINAL_S = 0.015
# Sample at most this often; each sample costs about 6% of that.
EVERY_S = 0.25
# A request is scaled by the median of this many samples nearest to it:
# single samples are bursty, and none is taken during a request.
NEAREST = 6


def reference_loop() -> float:
    started = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i
    return time.perf_counter() - started


class HostSpeed:
    def __init__(self) -> None:
        self.samples: List[float] = []
        self.times: List[float] = []  # when each sample ended
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(reference_loop())
        self._last = time.perf_counter()
        self.times.append(self._last)

    def between(self) -> None:
        """Called between requests: sample if the last one is stale."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self, since: int) -> float:
        """Scale from raw to reference-speed time, over the samples
        taken since index ``since``."""
        return NOMINAL_S / statistics.median(self.samples[since:])

    def around(self, start: float, end: float) -> float:
        """Scale for one request timed from ``start`` to ``end``."""
        nearest = sorted(
            range(len(self.times)),
            key=lambda i: max(start - self.times[i], self.times[i] - end, 0.0),
        )[:NEAREST]
        return NOMINAL_S / statistics.median(self.samples[i] for i in nearest)

    def overall(self) -> float:
        """Host speed relative to nominal over the whole run."""
        return NOMINAL_S / statistics.median(self.samples)

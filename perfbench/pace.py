"""Reference-speed timing: probes of the host's current CPU speed.

The benchmark host is shared: the same interpreter work runs up to
~1.5x slower for seconds to minutes at a time, and CPU time drifts with
wall time, so raw wall times of two runs of the same code differ by
more than the regressions the benchmark must catch.  A probe is a fixed
pure-python Dijkstra over a fixed synthetic grid (no code of the
program under test), timed between requests.  A request's time at
reference speed is its wall time multiplied by ``REFERENCE_PROBE_S``
over the median of the probes nearest to it: what it would have taken
on a host that runs the probe in ``REFERENCE_PROBE_S``.  A change to
the program moves these figures exactly as it moves the wall times; a
change in host speed moves the probes too and cancels out.  The raw
wall times are reported beside them.
"""

from __future__ import annotations

import bisect
import heapq
import random
import statistics
from time import perf_counter

#: the probe's wall time on the reference host: the benchmark host in
#: its slower common state (0.5-1.1 ms seen), so that a run's budget of
#: reference-speed time rarely takes longer in wall time
REFERENCE_PROBE_S = 0.0011

#: a probe runs before a request once this long passed since the last
PROBE_EVERY_S = 0.05

#: probes whose median gives the speed at one instant
PROBE_WINDOW = 15

_SIDE = 22


def _grid(side: int = _SIDE) -> list[list[tuple[int, float]]]:
    rng = random.Random(20260101)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(side * side)]
    for r in range(side):
        for c in range(side):
            u = r * side + c
            for v in ((u + 1) if c + 1 < side else None,
                      (u + side) if r + 1 < side else None):
                if v is not None:
                    w = 1.0 + rng.random()
                    adjacency[u].append((v, w))
                    adjacency[v].append((u, w))
    return adjacency


_GRID = _grid()


def probe() -> float:
    """Seconds one fixed single-source Dijkstra takes right now."""
    started = perf_counter()
    dist = {0: 0.0}
    settled = set()
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, w in _GRID[u]:
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return perf_counter() - started


class Pacer:
    """The probes of one run and the speed factor they give an instant."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            self.times.append(perf_counter())
            self.durations.append(probe())

    def probe_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, at: float) -> float:
        """Reference probe time over the probe time around ``at``."""
        i = bisect.bisect(self.times, at)
        lo = max(0, min(i - PROBE_WINDOW // 2, len(self.times) - PROBE_WINDOW))
        window = self.durations[lo : lo + PROBE_WINDOW]
        return REFERENCE_PROBE_S / statistics.median(window)

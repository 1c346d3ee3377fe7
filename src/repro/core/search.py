"""The modified Dijkstra algorithm (Algorithm 2) as a resumable search.

:class:`PoICandidateSearch` expands the road network outward from a
source vertex and *emits candidates*: every PoI vertex that
semantically matches one position spec, at its true shortest-path
distance, in ``(distance, vertex)`` order.  Traversal runs through every
vertex, matches included.

The paper's Algorithm 2 also applies Lemma 5.5's two filters (suppress a
PoI reached through a usable PoI of greater-or-equal similarity; never
traverse through a perfect match).  This repository drops them: both
assume the substitute route exists and that one route per score level
suffices, which fails when the substitute PoI is needed again later in
the route, and in a k-skyband (top-k).  Without them a stream does not
depend on the route being extended — distinctness (Definition 3.4) is
enforced by the consumer on every emit — so one stream per ``(source,
position)`` serves every route.

The search is *resumable*: it settles vertices in distance order and
pauses when the consumer's budget (Lemma 5.3's threshold, re-evaluated
continuously as the skyline set improves) is reached.  BSSR's
on-the-fly cache (Section 5.3.4) keeps one instance per
``(source, position)`` and simply resumes it when a later route needs a
larger radius — reuse never sacrifices exactness.

Searches are never written to a session checkpoint.  Their candidate
streams are deterministic, so a restored session rebuilds each one
lazily (or adopts a warm copy from the engine's
:class:`~repro.core.distcache.DistanceCache`) and replays it from the
consumer's stored offset.

The stream contract
-------------------

Both stream classes here (:class:`PoICandidateSearch` and
:class:`CHCandidateStream`) expose the same consumer view:

* ``dists`` and ``candidates`` — parallel sequences of candidate
  distances and vertex ids in ``(distance, vertex)`` order, and
  ``sim_map`` — each candidate's similarity;
* ``scored_until(budget, start=...)`` — a generator of index segments
  ``(lo, hi)``: contiguous, half-open, starting at ``start``, covering
  candidates closer than the budget.  The consumer reads each segment
  in place.  ``budget`` is a float when it cannot change while the
  consumer works (BSSR below the final position), and a callable when
  it may tighten after any candidate (the final position, where every
  completion is offered to the skyband); a consumer that tightens it
  mid-segment stops at the first candidate the new budget excludes;
* ``exhausted`` and ``radius`` — whether the stream is complete and how
  far it has looked, which decide whether a budget cut it short.

A CH stream answers each budget with one ``bisect`` of its row.  The
modified Dijkstra settles a whole burst for a float budget and stops at
every match for a callable one, so it settles exactly the vertices a
one-candidate-at-a-time search would.

Like the plain Dijkstra flavors, the expansion loop runs over the flat
adjacency arrays of :mod:`repro.graph.csr`.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from typing import Callable, Iterator

from repro.core.spec import PositionSpec
from repro.core.stats import SearchStats
from repro.graph.csr import flat_adjacency
from repro.graph.road_network import RoadNetwork


class CHCandidateStream:
    """A candidate stream served from a CH label row, at any position.

    With contraction hierarchies enabled, BSSR's expansions do not need
    the modified Dijkstra at all: the exact one-to-many row from the
    route's endpoint to the position's full candidate set (one memoized
    label scan, :meth:`~repro.graph.contraction.ContractionHierarchy.memo_stream`)
    is emitted sorted by ``(distance, vertex)`` — the heap's own
    tie-break.  No road-graph vertex is settled, so expansion cost stops
    scaling with the settle radius.

    Exactness: like :class:`PoICandidateSearch`, the stream holds every
    candidate at its true shortest-path distance, which is exactly the
    leg a sequenced route pays.  At the final position the emit is
    scored directly; at any earlier one it becomes a partial route whose
    length is the true prefix length, so its further expansion, bounds
    and pruning are those of the real route.  The budget cut is the same
    Lemma 5.3 argument as Algorithm 2's: a child whose leg alone reaches
    the budget cannot beat the threshold at any semantic score it can
    still attain.

    The stream is the memoized ``(dists, vids)`` typed-array pair, read
    in place; similarities come from ``sim_map``, so the stream stores
    nothing per route.  ``start`` offsets address this stream's
    deterministic order.  A checkpoint carries ``use_contraction`` in
    its options, so a restored search rebuilds the same streams and the
    offsets line up.
    """

    __slots__ = ("dists", "candidates", "sim_map", "radius")

    #: the row is complete by construction; only budgets cut it short
    exhausted = True

    def __init__(
        self, dists: array, vids: array, sim_map: dict[int, float]
    ) -> None:
        self.dists = dists
        #: candidate vertex ids in stream order (``len`` is the stream size)
        self.candidates = vids
        self.sim_map = sim_map
        self.radius = dists[-1] if dists else 0.0

    def scored_until(
        self, budget: Callable[[], float] | float, *, start: int = 0
    ) -> Iterator[tuple[int, int]]:
        """Segments of the row below the budget: one bisect per budget
        value, from where the previous segment ended."""
        budget_fn: Callable[[], float] = (
            budget if callable(budget) else (lambda: budget)  # type: ignore[assignment]
        )
        dists = self.dists
        lo = start
        while True:
            hi = bisect_left(dists, budget_fn(), lo)
            if hi <= lo:
                return
            yield lo, hi
            lo = hi


class PoICandidateSearch:
    """Resumable modified Dijkstra toward one position's candidates."""

    __slots__ = (
        "sim_map",
        "source",
        "_stats",
        "_flat",
        "_dist",
        "_settled",
        "_heap",
        "dists",
        "candidates",
        "radius",
    )

    def __init__(
        self,
        network: RoadNetwork,
        spec: PositionSpec,
        source: int,
        *,
        stats: SearchStats | None = None,
    ) -> None:
        #: similarity of every candidate vertex of the position
        self.sim_map = spec.sim_map
        self.source = source
        self._stats = stats
        self._flat = flat_adjacency(network)
        n = self._flat[0]
        self._dist = [math.inf] * n
        self._dist[source] = 0.0
        self._settled = bytearray(n)
        self._heap: list[tuple[float, int]] = [(0.0, source)]
        #: distances of the emitted candidates, in stream order
        self.dists: list[float] = []
        #: emitted candidate vertex ids, parallel to :attr:`dists`
        self.candidates: list[int] = []
        #: largest settled distance (the Table 7 "weight sum" proxy)
        self.radius = 0.0

    def adopt_stats(self, stats: SearchStats | None) -> None:
        """Re-point instrumentation at a different stats sink.

        A search shared across queries (:mod:`repro.core.distcache`)
        charges its work to whichever consumer is currently driving it.
        """
        self._stats = stats

    # ------------------------------------------------------------------
    # low-level stepping
    # ------------------------------------------------------------------

    def _skim(self) -> None:
        heap = self._heap
        settled = self._settled
        while heap and settled[heap[0][1]]:
            heapq.heappop(heap)

    def next_distance(self) -> float:
        """Distance of the next settle (inf when exhausted)."""
        self._skim()
        return self._heap[0][0] if self._heap else math.inf

    @property
    def exhausted(self) -> bool:
        return self.next_distance() == math.inf

    def _settle(self, limit: float, *, one: bool) -> bool:
        """Settle every vertex closer than ``limit``, appending matches
        to the stream; with ``one``, stop after the first match.  True
        iff it stopped on a match.

        Every array sits in a local, and stats are flushed once on the
        way out, so a consumer never observes partial counts.
        """
        _, indptr, indices, weights = self._flat
        sim_map = self.sim_map
        dist = self._dist
        settled = self._settled
        heap = self._heap
        dists = self.dists
        vids = self.candidates
        push = heapq.heappush
        pop = heapq.heappop
        settled_n = relaxed_n = pushes_n = 0
        radius = self.radius
        hit = False
        while True:
            while heap and settled[heap[0][1]]:
                pop(heap)
            if not heap or heap[0][0] >= limit:
                break
            d, u = pop(heap)
            settled[u] = 1
            settled_n += 1
            radius = d
            if u in sim_map:
                dists.append(d)
                vids.append(u)
                hit = one
            lo = indptr[u]
            hi = indptr[u + 1]
            relaxed_n += hi - lo
            for j in range(lo, hi):
                v = indices[j]
                if settled[v]:
                    continue
                nd = d + weights[j]
                if nd < dist[v]:
                    dist[v] = nd
                    push(heap, (nd, v))
                    pushes_n += 1
            if hit:
                break
        self.radius = radius
        stats = self._stats
        if stats is not None:
            stats.settled += settled_n
            stats.relaxed += relaxed_n
            stats.heap_pushes += pushes_n
        return hit

    # ------------------------------------------------------------------
    # consumer interface
    # ------------------------------------------------------------------

    def scored_until(
        self, budget: Callable[[], float] | float, *, start: int = 0
    ) -> Iterator[tuple[int, int]]:
        """Segments of the stream below the budget, expanding on demand.

        A constant (float) budget cannot move while the consumer works,
        so the search settles the whole burst below it at once and hands
        out one segment.  A callable budget may tighten after every
        candidate (BSSR's final position, where each one is offered to
        the skyline), so the search stops at each match and re-reads the
        budget before handing it out — the settles are exactly those a
        one-at-a-time search makes.

        Already-discovered candidates are replayed first, so a cached
        search serves consumers with different budgets; ``start`` skips
        the candidates a consumer already took — the checkpoint/resume
        offsets of :class:`~repro.core.bssr.SearchState`.  Candidate
        order is deterministic (distance, then the heap's vertex-id
        tie-break), so the offset is meaningful even on a freshly
        rebuilt search instance — which is how a restored session
        resumes, since checkpoints never carry searches.
        """
        dists = self.dists
        if not callable(budget):
            self._settle(budget, one=False)
            hi = bisect_left(dists, budget, start)
            if hi > start:
                yield start, hi
            return
        i = start
        while True:
            limit = budget()
            if i >= len(dists):
                if not self._settle(limit, one=True):
                    return
                continue  # re-read the budget before handing the match out
            if dists[i] >= limit:
                return
            yield i, i + 1
            i += 1

    def candidates_until(
        self, budget: Callable[[], float] | float, *, start: int = 0
    ) -> Iterator[tuple[float, int, float]]:
        """:meth:`scored_until`, one ``(distance, vid, sim)`` at a time."""
        dists = self.dists
        vids = self.candidates
        sim_map = self.sim_map
        for lo, hi in self.scored_until(budget, start=start):
            for i in range(lo, hi):
                yield dists[i], vids[i], sim_map[vids[i]]

    def expand_fully(self) -> None:
        """Exhaust the search (used by tests and ablations)."""
        self._settle(math.inf, one=False)

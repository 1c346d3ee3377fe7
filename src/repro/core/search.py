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

Like the plain Dijkstra flavors, the expansion loop runs over the flat
adjacency arrays of :mod:`repro.graph.csr`.
"""

from __future__ import annotations

import heapq
import math
from array import array
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

    The stream is the memoized ``(dists, vids)`` typed-array pair;
    similarities come from ``sim_map`` as candidates are read, so the
    stream stores nothing per route.  The interface mirrors the
    consumer-facing subset of :class:`PoICandidateSearch`
    (``scored_until`` / ``candidates`` / ``exhausted`` / ``radius``),
    and ``start`` offsets address this stream's deterministic order.  A
    checkpoint carries ``use_contraction`` in its options, so a restored
    search rebuilds the same streams and the offsets line up.
    """

    __slots__ = ("_dists", "candidates", "_sim_map", "radius")

    #: the row is complete by construction; only budgets cut it short
    exhausted = True

    def __init__(
        self, dists: array, vids: array, sim_map: dict[int, float]
    ) -> None:
        self._dists = dists
        #: candidate vertex ids in stream order (``len`` is the stream size)
        self.candidates = vids
        self._sim_map = sim_map
        self.radius = dists[-1] if dists else 0.0

    def scored_until(
        self,
        budget: Callable[[], float] | float,
        *,
        start: int = 0,
        leg=None,
    ) -> Iterator[tuple[float, int, float, float]]:
        budget_fn: Callable[[], float] = (
            budget if callable(budget) else (lambda: budget)  # type: ignore[assignment]
        )
        get = leg.get if leg is not None else None
        dists = self._dists
        vids = self.candidates
        sim_of = self._sim_map.__getitem__
        for i in range(start, len(vids)):
            d = dists[i]
            if d >= budget_fn():
                return
            vid = vids[i]
            yield d, vid, sim_of(vid), 0.0 if get is None else get(vid, math.inf)


class PoICandidateSearch:
    """Resumable modified Dijkstra toward one position's candidates."""

    __slots__ = (
        "_spec",
        "source",
        "_stats",
        "_flat",
        "_dist",
        "_settled",
        "_heap",
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
        self._spec = spec
        self.source = source
        self._stats = stats
        self._flat = flat_adjacency(network)
        n = self._flat[0]
        self._dist = [math.inf] * n
        self._dist[source] = 0.0
        self._settled = bytearray(n)
        self._heap: list[tuple[float, int]] = [(0.0, source)]
        #: emitted candidates ``(distance, vid, similarity)`` in distance order
        self.candidates: list[tuple[float, int, float]] = []
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

    # ------------------------------------------------------------------
    # consumer interface
    # ------------------------------------------------------------------

    def candidates_until(
        self, budget: Callable[[], float] | float, *, start: int = 0
    ) -> Iterator[tuple[float, int, float]]:
        """Yield candidates with distance < budget, expanding on demand.

        ``budget`` may be a callable: BSSR's threshold tightens while
        the search runs (skyline updates shrink it), and a cached search
        serves consumers with different budgets.  Already-discovered
        candidates are replayed first; the underlying Dijkstra resumes
        only when the budget allows settling farther vertices.

        ``start`` skips the first ``start`` candidates of the stream —
        a consumer that previously stopped after consuming that many
        (the checkpoint/resume machinery of
        :class:`~repro.core.bssr.SearchState`) continues exactly where
        it left off.  Candidate order is deterministic (distance, then
        the heap's vertex-id tie-break), so the offset is meaningful
        even on a freshly rebuilt search instance — which is how a
        restored session resumes, since checkpoints never carry
        searches.

        The settle machinery runs inline with every array in a local.
        The budget is re-evaluated only at yield points: between two
        yields this generator is the only code running, so nothing can
        tighten the threshold mid-segment.  Stats are flushed before
        every yield and return, so a consumer (or an abandoned
        generator) never observes partial counts.
        """
        budget_fn: Callable[[], float] = (
            budget if callable(budget) else (lambda: budget)  # type: ignore[assignment]
        )
        _, indptr, indices, weights = self._flat
        sim_of = self._spec.sim_map.get
        dist = self._dist
        settled = self._settled
        heap = self._heap
        candidates = self.candidates
        push = heapq.heappush
        pop = heapq.heappop
        i = start
        while True:
            limit = budget_fn()
            while i < len(candidates):
                entry = candidates[i]
                if entry[0] >= limit:
                    return
                yield entry
                i += 1
                limit = budget_fn()
            # settle until a new candidate is emitted (each settle can
            # emit at most the vertex it settles) or the budget is hit
            stats = self._stats  # adopt_stats only happens between yields
            settled_n = relaxed_n = pushes_n = 0
            while True:
                while heap and settled[heap[0][1]]:
                    pop(heap)
                if not heap or heap[0][0] >= limit:
                    if stats is not None:
                        stats.settled += settled_n
                        stats.relaxed += relaxed_n
                        stats.heap_pushes += pushes_n
                    return
                d, u = pop(heap)
                settled[u] = 1
                settled_n += 1
                self.radius = d
                sim = sim_of(u)
                if sim is not None:
                    candidates.append((d, u, sim))
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
                if sim is not None:
                    break
            if stats is not None:
                stats.settled += settled_n
                stats.relaxed += relaxed_n
                stats.heap_pushes += pushes_n

    def scored_until(
        self,
        budget: Callable[[], float] | float,
        *,
        start: int = 0,
        leg=None,
    ) -> Iterator[tuple[float, int, float, float]]:
        """:meth:`candidates_until` plus the consumer's extra-leg score.

        Yields ``(distance, vid, sim, extra)`` where ``extra`` is
        ``leg.get(vid, inf)`` — the final-position destination leg of
        BSSR's expansion, from any ``.get``-able mapping (an eager
        Dijkstra dict or the lazy
        :class:`~repro.graph.contraction.CHDistanceOracle`) — or ``0.0``
        without a ``leg``.  Centralizing the lookup keeps candidate
        scoring behind one seam; the stream and its budget/offset
        semantics are untouched (pop-identical).
        """
        if leg is None:
            for d, vid, sim in self.candidates_until(budget, start=start):
                yield d, vid, sim, 0.0
        else:
            get = leg.get
            for d, vid, sim in self.candidates_until(budget, start=start):
                yield d, vid, sim, get(vid, math.inf)

    def expand_fully(self) -> None:
        """Exhaust the search (used by tests and ablations)."""
        for _ in self.candidates_until(math.inf):
            pass

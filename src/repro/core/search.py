"""The modified Dijkstra algorithm (Algorithm 2) as a resumable search.

:class:`PoICandidateSearch` expands the road network outward from a
source vertex and *emits candidates*: every PoI vertex that
semantically matches one position spec, at its true shortest-path
distance, in ``(key, vertex)`` order, where the key adds the value of
the search's potential (below).  Traversal runs through every vertex,
matches included.

The paper's Algorithm 2 also applies Lemma 5.5's two filters (suppress a
PoI reached through a usable PoI of greater-or-equal similarity; never
traverse through a perfect match).  This repository drops them: both
assume the substitute route exists and that one route per score level
suffices, which fails when the substitute PoI is needed again later in
the route, and in a k-skyband (top-k).  Without them a stream does not
depend on the route being extended — distinctness (Definition 3.4) is
enforced by the consumer on every emit — so one stream per ``(source,
position)`` serves every route.

The search is *resumable*: it settles vertices in key order and
pauses at every match, and once the consumer's budget (Lemma 5.3's
threshold, re-evaluated continuously as the skyline set improves) is
passed.  BSSR's on-the-fly cache (Section 5.3.4) keeps one instance per
``(source, position)`` and simply resumes it when a later route needs a
larger radius — reuse never sacrifices exactness.

The goal-directed stream
------------------------

Under ``BSSROptions.lower_bounds`` the search is an A*: a vertex's heap
key is its distance plus its value in a *potential*, a consistent
distance field handed in by the consumer.  BSSR hands each position one
of two fields:

* position 0 takes the position's *candidate distance field* (the
  distance from the vertex to the nearest candidate,
  :func:`candidate_field`, one memoized reverse sweep per network and
  candidate set).  It is 0 on every candidate, so a candidate's key is
  its true distance;
* every later position ``j`` takes BSSR's to-go row ``to_go[j]``
  (:mod:`repro.core.bounds`): the length of the remaining sequenced
  route from the vertex, destination included.  On a candidate ``c`` of
  position ``j`` it equals what is still ahead once ``c`` is taken
  (``to_go[j+1][c]``, or the destination leg at the last position), so
  a candidate's key is ``d(source, c)`` plus that remainder: the floor
  of the child route minus the parent's length.  A candidate with no
  completion has an infinite key and is never emitted.  The last
  position of a destination-free query gets its candidate field this
  way, since that is its to-go row.

Either way the field is consistent, so keys settle in nondecreasing
order and the stream comes out in ``(key, vertex)`` order: a budget on
the key is Lemma 5.3's break applied to the exact remaining route, and
vertices that lead only to candidates whose remainder cannot beat the
budget get large keys and are never settled, which is where the work
goes down.

Ties are settled as whole key groups and emitted by vertex id.  Under a
field that is 0 on every candidate the stream is the ``(distance,
vertex)`` order — element for element the stream of the all-zero field,
which is the paper's plain Algorithm 2 (``lower_bounds=False``), and
the order of a CH row.  This holds bit for bit because edge weights sit
on the grain of :meth:`~repro.graph.road_network.RoadNetwork.add_edge`:
every distance, field value and key is an exact double, so no sum
depends on the order its legs were added in.

Searches are never written to a session checkpoint.  Their candidate
streams are deterministic, so a restored session rebuilds each one
lazily (or adopts a warm copy, built under the same potential, from the
engine's :class:`~repro.core.distcache.DistanceCache`) and replays it
from the consumer's stored offset.

The stream contract
-------------------

Both stream classes here (:class:`PoICandidateSearch` and
:class:`CHCandidateStream`) expose the same consumer view:

* ``dists``, ``keys`` and ``candidates`` — parallel sequences of
  candidate distances, keys (the distance plus the potential's value at
  the candidate; a CH row's keys are its distances) and vertex ids in
  ``(key, vertex)`` order, and ``sim_map`` — each candidate's
  similarity;
* ``levels`` — one view per similarity level of the position
  (``PositionSpec.levels``), highest similarity first: ``(sim,
  positions)``, the stream positions of that level's candidates in
  stream order (so in key order), appended as candidates are emitted.
  The views partition the stream;
* ``scored_until(budgets, start=offsets)`` — a generator of index
  segments ``(level, lo, hi)``, one level at a time, highest first:
  ``offsets`` holds one offset per level and ``budgets`` one budget per
  level, and each segment indexes that level's ``positions``.  A
  level's segments are contiguous, half-open, start at its offset and
  cover the level's candidates within its budget (key ``<=`` budget: a
  candidate exactly at the budget can still tie the threshold, and a
  tie may replace a member's representative).  The consumer reads each
  segment in place.  A budget is a callable, read again before every
  segment: BSSR's thresholds may tighten after any candidate (each
  completion is offered to the skyband, and below the final position
  each child's subtree runs before its next sibling is read), and a
  consumer whose budget tightens mid-segment stops at the first
  candidate whose key the new budget excludes.  A level's candidates
  all give a child the same semantic score, so each level gets its own
  Lemma 5.3 budget, and one call serves a whole expansion; a stream with
  one level is read whole;
* ``exhausted`` — every candidate with a finite key that is reachable
  from the source has been emitted, which decides whether a budget cut
  the stream short (the consumer parks its route iff it stopped before
  the end of a level's view, or the stream is not exhausted).  A CH
  stream decides it from its row alone, however far it was grown.  Both
  kernels give the same answer at every budget when every candidate is
  reachable from the source; otherwise the modified Dijkstra may prove
  it later, at a budget past its last reachable candidate, and either
  answer is safe (a route parked in vain finds nothing new when it is
  resumed);
* ``radius`` — how far the stream has looked: every candidate with a
  key up to ``radius`` is in it.  For the modified Dijkstra it is the
  key frontier, the largest key settled so far; for a CH row, the
  bound it was last grown to, or its last distance once it is
  complete.

A CH stream grows its label row to each budget value it reads (only the
label windows between its old radius and the budget are scanned, see
:class:`~repro.graph.contraction.LabelStream`) and answers it with one
``bisect`` per level.  The modified Dijkstra stops after every key group
holding a match, so it settles exactly the vertices a
one-candidate-at-a-time search would, and never past the budget in force
at its last read.  Read level by level, the
highest level's budget is the largest (a higher similarity never gives a
worse semantic score, and a better score never a lower threshold), so
the levels below it settle nothing more.

Like the plain Dijkstra flavors, the expansion loop runs over the
adjacency rows of :mod:`repro.graph.csr`.
"""

from __future__ import annotations

import heapq
import math
import sys
from bisect import bisect_right
from typing import Callable, Iterator, Sequence

from repro.core.spec import PositionSpec
from repro.core.stats import SearchStats
from repro.graph.contraction import LabelStream
from repro.graph.csr import flat_adjacency
from repro.graph.dijkstra import distance_field
from repro.graph.road_network import RoadNetwork


class CHCandidateStream:
    """A candidate stream served from a CH label row, at any position.

    With contraction hierarchies enabled, BSSR's expansions do not need
    the modified Dijkstra at all: the exact one-to-many row from the
    route's endpoint to the position's full candidate set (a memoized
    :class:`~repro.graph.contraction.LabelStream`,
    :meth:`~repro.graph.contraction.ContractionHierarchy.memo_stream`)
    is emitted sorted by ``(distance, vertex)`` — the heap's own
    tie-break.  No road-graph vertex is settled, so expansion cost stops
    scaling with the settle radius.  The row grows lazily: a budget
    past its radius first scans the label windows up to that budget.

    Exactness: like :class:`PoICandidateSearch`, the stream holds every
    candidate at its true shortest-path distance, which is exactly the
    leg a sequenced route pays.  At the final position the emit is
    scored directly; at any earlier one it becomes a partial route whose
    length is the true prefix length, so its further expansion, bounds
    and pruning are those of the real route.  The budget cut is the same
    Lemma 5.3 argument as Algorithm 2's: a child whose leg alone passes
    the budget cannot reach the threshold at any semantic score it can
    still attain.

    The stream reads the row's typed arrays and level views in place;
    similarities come from ``sim_map``, so the stream stores nothing per
    route.  ``start`` offsets address this stream's deterministic order.
    A checkpoint carries ``use_contraction`` in its options, so a
    restored search rebuilds the same streams and the offsets line up.
    """

    __slots__ = ("_row", "dists", "keys", "candidates", "levels", "sim_map")

    def __init__(self, row: LabelStream, sim_map: dict[int, float]) -> None:
        self._row = row
        self.dists = row.dists
        #: a CH row carries no potential: its keys are its distances
        self.keys = row.dists
        #: candidate vertex ids in stream order (``len`` is the stream size)
        self.candidates = row.vids
        self.levels = row.levels
        self.sim_map = sim_map

    @property
    def radius(self) -> float:
        """The bound the row was last grown to, or its last distance
        once it is complete."""
        radius = self._row.radius
        if radius == math.inf:
            return self.dists[-1] if self.dists else 0.0
        return radius

    @property
    def exhausted(self) -> bool:
        return self._row.exhausted

    def scored_until(
        self,
        budgets: Sequence[Callable[[], float]],
        *,
        start: tuple[int, ...],
    ) -> Iterator[tuple[int, int, int]]:
        """Segments of the level views within their budgets (see the
        module docstring): the row grows to each budget value read, and
        each value costs one bisect of its level's view, from where the
        previous segment ended."""
        grow = self._row.grow
        key = self.keys.__getitem__
        levels = self.levels
        for level, lo in enumerate(start):
            positions = levels[level][1]
            budget = budgets[level]
            while True:
                limit = budget()
                grow(limit)
                hi = bisect_right(positions, limit, lo, key=key)
                if hi <= lo:
                    break
                yield level, lo, hi
                lo = hi


def field_memo(network: RoadNetwork) -> dict:
    """The network's memo of distance fields over candidate sets.

    Keys are candidate sets: ``frozenset(C)`` holds the field toward
    ``C`` (:func:`candidate_field`), ``(frozenset(C), frozenset(D))``
    the to-go row of the pair ``C`` then ``D`` and ``("perfect",
    frozenset(P))`` the field toward a perfect set ``P`` (see
    :mod:`repro.core.bounds`), built from :func:`set_key`.  A PoI edit
    (``RoadNetwork.poi_version``) or a new vertex or edge drops every
    entry.
    """
    token = (network.num_vertices, network.num_edges, network.poi_version)
    cached = getattr(network, "_candidate_fields", None)
    if cached is None or cached[0] != token:
        cached = (token, {})
        network._candidate_fields = cached  # type: ignore[attr-defined]
    return cached[1]


def set_key(memo: dict, candidates) -> frozenset:
    """``frozenset(candidates)`` as one object per distinct set in
    ``memo``, so the pair keys that name a set share it instead of each
    holding a copy."""
    key = frozenset(candidates)
    return memo.setdefault(("set", key), key)


def candidate_field(
    network: RoadNetwork, spec: PositionSpec
) -> list[float] | None:
    """The memoized distance field toward ``spec``'s candidate set:
    ``field[v]`` is the network distance from ``v`` to its nearest
    candidate (see :func:`~repro.graph.dijkstra.distance_field`).

    One field per network and distinct candidate set (:func:`field_memo`),
    keyed by the set itself, so every category whose matches are the
    same PoIs shares one field object.  Specs without a ``share_key``
    (predicates, built per query) get ``None`` and never populate it.
    """
    if spec.share_key is None:
        return None
    fields = field_memo(network)
    targets = frozenset(spec.sim_map)
    field = fields.get(targets)
    if field is None:
        field = fields[targets] = distance_field(network, targets)
    return field


class PoICandidateSearch:
    """Resumable, goal-directed modified Dijkstra toward one position's
    candidates.

    ``field`` is the A* potential: a consistent distance field — the
    position's candidate field (:func:`candidate_field`) or one of
    BSSR's to-go rows (see the module docstring).  ``None`` means the
    all-zero field, which makes the search the paper's plain
    Algorithm 2.  The stream is the same under every field that is 0 on
    every candidate; under a to-go row its keys carry the remaining
    route, and so does its order.
    """

    __slots__ = (
        "sim_map",
        "source",
        "_stats",
        "_rows",
        "_field",
        "_dist",
        "_settled",
        "_heap",
        "_level_of",
        "dists",
        "keys",
        "candidates",
        "levels",
        "radius",
    )

    def __init__(
        self,
        network: RoadNetwork,
        spec: PositionSpec,
        source: int,
        *,
        stats: SearchStats | None = None,
        field: list[float] | None = None,
    ) -> None:
        #: similarity of every candidate vertex of the position
        self.sim_map = spec.sim_map
        self.source = source
        self._stats = stats
        self._rows = flat_adjacency(network)
        n = len(self._rows)
        self._field = field if field is not None else [0.0] * n
        self._dist = [math.inf] * n
        self._dist[source] = 0.0
        self._settled = bytearray(n)
        self._heap: list[tuple[float, int]] = [(self._field[source], source)]
        #: distances of the emitted candidates, in stream order
        self.dists: list[float] = []
        #: keys (distance plus field value) of the emitted candidates,
        #: parallel to :attr:`dists`; the stream is sorted by them
        self.keys: list[float] = []
        #: emitted candidate vertex ids, parallel to :attr:`dists`
        self.candidates: list[int] = []
        #: a similarity's level: its index in ``spec.levels``
        self._level_of = spec.levels.index
        #: one ``(sim, stream positions)`` view per similarity level of
        #: the position, highest first, each in stream order
        self.levels: list[tuple[float, list[int]]] = [
            (sim, []) for sim in spec.levels
        ]
        #: largest settled key: every candidate with a key <= radius has
        #: been emitted (the Table 7 "weight sum" proxy)
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

    @property
    def exhausted(self) -> bool:
        """Every candidate reachable from the source has been emitted:
        all of them, or no vertex left with a finite key."""
        if len(self.candidates) == len(self.sim_map):
            return True
        heap = self._heap
        settled = self._settled
        while heap and settled[heap[0][1]]:
            heapq.heappop(heap)
        return not heap or heap[0][0] == math.inf

    def _settle(self, limit: float) -> bool:
        """Settle vertices in key order up to ``limit`` (never one with
        an infinite key), appending matches to the stream, and stop once
        the key group of the first match is settled.  True iff it
        stopped on a match.

        A vertex's key is its distance plus its field value.  Keys
        settle in nondecreasing order (the field is consistent), so
        candidates come out in key order, and a key group is never split
        across calls: a call stops above ``limit`` or after a whole
        group.  Within a group, matches are emitted by vertex id, so the
        stream is the ``(key, vertex)`` order whatever the discovery
        order of ties.

        Every array sits in a local, and stats are flushed once on the
        way out, so a consumer never observes partial counts.
        """
        rows = self._rows
        field = self._field
        sim_map = self.sim_map
        dist = self._dist
        settled = self._settled
        heap = self._heap
        dists = self.dists
        keys = self.keys
        vids = self.candidates
        push = heapq.heappush
        pop = heapq.heappop
        settled_n = relaxed_n = pushes_n = 0
        radius = self.radius
        emitted = len(vids)
        if limit == math.inf:
            limit = sys.float_info.max  # never settle an infinite key
        while heap and heap[0][0] <= limit:
            key, u = pop(heap)
            if settled[u]:
                continue
            radius = key
            settled[u] = 1
            settled_n += 1
            d = dist[u]
            if u in sim_map:
                # a tie emitted earlier in this group with a larger id
                # moves behind it (groups never span calls, so no
                # consumer has read it yet)
                i = len(vids)
                while i and vids[i - 1] > u and keys[i - 1] == key:
                    i -= 1
                dists.insert(i, d)
                keys.insert(i, key)
                vids.insert(i, u)
                limit = key  # finish this key group, then stop
            row = rows[u]
            relaxed_n += len(row)
            for v, w in row:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    push(heap, (nd + field[v], v))
                    pushes_n += 1
        self.radius = radius
        # the group order is final once the call returns
        levels = self.levels
        level_of = self._level_of
        for i in range(emitted, len(vids)):
            levels[level_of(sim_map[vids[i]])][1].append(i)
        stats = self._stats
        if stats is not None:
            stats.settled += settled_n
            stats.relaxed += relaxed_n
            stats.heap_pushes += pushes_n
        return len(vids) > emitted

    # ------------------------------------------------------------------
    # consumer interface
    # ------------------------------------------------------------------

    def scored_until(
        self,
        budgets: Sequence[Callable[[], float]],
        *,
        start: tuple[int, ...],
    ) -> Iterator[tuple[int, int, int]]:
        """Segments of the level views within their budgets (see the
        module docstring), expanding on demand.

        A budget may tighten after every candidate (BSSR offers each
        completion to the skyline, and runs each child's subtree before
        its next sibling is read), so the search hands out one candidate
        at a time, stops at each match of the level being read and
        re-reads its budget before handing it out — the settles are
        exactly those a one-at-a-time search makes.

        Already-discovered candidates are replayed first, so a cached
        search serves consumers with different budgets; ``start`` skips
        the candidates a consumer already took — the checkpoint/resume
        offsets of :class:`~repro.core.bssr.SearchState`.  Candidate
        order is deterministic (key, then vertex id) for a given field,
        so the offsets are meaningful even on a freshly rebuilt search
        instance — which is how a restored session resumes, since
        checkpoints never carry searches.
        """
        keys = self.keys
        levels = self.levels
        for level, i in enumerate(start):
            positions = levels[level][1]
            budget = budgets[level]
            while True:
                limit = budget()
                if i >= len(positions):
                    if not self._settle(limit):
                        break
                    continue  # re-read the budget before handing it out
                if keys[positions[i]] > limit:
                    break
                yield level, i, i + 1
                i += 1

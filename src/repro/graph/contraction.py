"""Contraction hierarchies: the preprocessing-based exact leg oracle.

Geisberger et al.'s contraction hierarchies (CH), in pure python over
the same :class:`~repro.graph.road_network.RoadNetwork` topology as the
Dijkstra kernels.  Preprocessing contracts vertices one by one in
*edge-difference* order (lazy-update priority queue): removing a vertex
``v`` inserts a shortcut ``u -> x`` of weight ``w(u,v) + w(v,x)`` for
every neighbor pair whose shortest ``u -> x`` path runs through ``v`` —
unless a *witness search* finds an equally short path avoiding ``v``.
Witness searches are settle-capped: a missed witness only adds a
redundant shortcut, never a wrong distance, so the cap trades
preprocessing time against shortcut count without touching correctness.

The search from an in-neighbour ``u`` of ``v`` carries every target
``x`` with its shortcut weight ``w(u,v) + w(v,x)`` and stops once each
target is decided: a label at or below the weight is a witness (labels
only fall), and a target settled above it has none (settled labels are
final).  Its limit is the largest weight still undecided, so it settles
a prefix of what a search to the largest weight of all would settle,
and every decision, hence the whole hierarchy, is the same as that
search's.  On tokyo@0.5 a build pops 410k heap entries, where searches
run to the largest weight pop 714k.

Queries then run bidirectional Dijkstra over the *upward* graphs only
(arcs from lower to higher contraction rank): every shortest path in
the original graph is covered by an up-then-down path over the
hierarchy, so scanning the tiny upward search spaces from both ends and
summing at the best meeting hub yields the exact distance.

Every label row a sweep returns is *stall-pruned* (Geisberger et al.'s
stall test, applied after the sweep): a label ``row[v]`` is dropped
when a higher-ranked neighbour ``x`` in the same row beats it over the
arc between them in the opposite direction, ``row[x] + w < row[v]``.
This keeps every answer exact.  Take any shortest path's meeting hub
``h``, the highest vertex of its up-then-down form: the upward half is
itself a shortest path, so both of ``h``'s labels are exact.  An exact
label never loses a strict ``<`` test, since every ``row[x]`` is a
real path length.  A beaten label is longer than the true distance, so
no shortest path meets there, and any total through it is longer than
the one through ``h``.  On tokyo@0.5 the filter keeps about a third of
the settled forward labels and of the bucket pairs, so a label scan
visits about a sixth of the ``(hub, target)`` pairs it would without.

Beyond point-to-point, the pieces BSSR consumes directly:

* :meth:`~ContractionHierarchy.bucket` — per-target backward upward
  sweeps folded into a hub table (the many-to-many "bucket" trick).
  Buckets depend only on the target set, so
  :meth:`~ContractionHierarchy.memo_bucket` builds each distinct set's
  bucket once per hierarchy and keeps it (warm queries skip every
  downward sweep);
* :meth:`~ContractionHierarchy.distances_from` — one forward upward
  sweep from a source scanned against a bucket: exact one-to-many
  distances (NNinit's perfect legs);
* :class:`LabelStream` — the same one-to-many row, emitted in ``(d,
  vid)`` order and grown lazily: each bucket hub keeps its pairs as
  arrays sorted by distance, so growing the row from its radius to a
  bound bisects each of the source's hubs once and scans only the pairs
  in between.  BSSR reads only the head of most rows (on
  ``hot_city_ch``, a sixth of the entries), so the rest is never
  scanned or sorted.  :meth:`~ContractionHierarchy.memo_stream` keeps
  one per source and share-keyed candidate set, shared by every query,
  with one view per similarity level of its targets;
* :meth:`~ContractionHierarchy.min_from_set` — a multi-source forward
  upward sweep against a bucket's per-hub minimum: the exact
  set-to-set minimum distance (the Section 5.3.3 leg bounds), in one
  sweep regardless of set sizes.  For named source sets
  :meth:`~ContractionHierarchy.memo_min` keeps that sweep's row, so a
  category's legs to every other category share one sweep;
* :class:`CHDistanceOracle` — a lazy dict-like ``.get`` view of
  distances *to* one vertex, replacing the eager full reverse Dijkstra
  of destination queries.

Like the adjacency rows, the hierarchy is memoized per network
(:func:`contraction_for`).  Searches consult it only when
``BSSROptions.use_contraction`` is set.  Memo entries built from PoI
sets are dropped when the network's PoIs change
(``RoadNetwork.poi_version``); the forward rows, which depend on the
topology alone, stay.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.road_network import RoadNetwork

_INF = math.inf

#: witness searches stop after this many settles; a missed witness only
#: costs one redundant shortcut (see module docstring)
WITNESS_SETTLE_CAP = 64

def ch_enabled() -> bool:
    """Always ``True``: ``BSSROptions.use_contraction`` alone selects CH."""
    return True


@dataclass
class CHStats:
    """Preprocessing counters, surfaced through service/CLI stats."""

    vertices: int
    edges: int
    shortcuts_added: int
    preprocess_s: float

    def as_dict(self) -> dict:
        return {
            "vertices": self.vertices,
            "edges": self.edges,
            "shortcuts_added": self.shortcuts_added,
            "preprocess_ms": self.preprocess_s * 1e3,
        }


@dataclass
class CHBucket:
    """A target set folded into the hierarchy's hub space.

    ``targets`` lists the set's vertex ids in increasing order, and a
    target's *slot* is its index there, so slot order is vertex order.
    ``pairs[h]`` is the ``(dists, slots)`` pair of typed arrays, sorted
    by ``(d, slot)``, of every target whose backward upward sweep
    reached hub ``h`` at ``d = d(h, target)``, so a window of distances
    is one bisect; ``hubmin[h]`` is the smallest of them (the set-to-set
    fast path).  A bucket depends only on the target set, never on a
    query.
    """

    targets: array
    pairs: dict[int, tuple[array, array]]
    hubmin: dict[int, float]


class LabelStream:
    """The exact one-to-many row from one source to a bucket's targets,
    in ``(d, vid)`` order, grown lazily.

    ``dists`` and ``vids`` hold every target whose distance is at most
    :attr:`radius`, and nothing else.  :meth:`grow` extends the row to a
    larger bound by scanning, for each hub ``h`` of the source's forward
    row (at ``g = d(source, h)``), only the bucket pairs in the window
    ``radius - g < d <= bound - g``: one bisect on the hub's sorted
    distances.  A target first seen in a window is at its true distance
    there, the least of its pairs in it: every pair sum is a real path
    length, and the meeting hub of a shortest path gives the distance
    itself.  A target already in the row (one bit per slot says so) is
    skipped, since its distance lies below the window.

    ``targets`` maps each target to a level value (BSSR passes a
    position's similarity map), and ``levels`` lists the distinct values
    highest first (``PositionSpec.levels``).  :attr:`levels` holds one
    ``(value, positions)`` view per level in that order: the row
    positions of that value's targets in row order, appended as they are
    emitted.
    """

    __slots__ = ("dists", "vids", "levels", "radius", "_g", "_hubs",
                 "_bucket", "_targets", "_emitted", "_reachable")

    def __init__(
        self,
        hubs: tuple[array, array],
        bucket: CHBucket,
        targets: Mapping[int, float],
        levels: Sequence[float],
    ) -> None:
        #: the source's forward row as ``(g, hubs)`` arrays, nearest hub
        #: first (:meth:`ContractionHierarchy.forward_hubs`): a growth
        #: stops at the first hub past its bound
        self._g, self._hubs = hubs
        self._bucket = bucket
        self._targets = targets
        #: one bit per bucket slot: is that target in the row
        self._emitted = bytearray((len(bucket.targets) + 7) >> 3)
        #: how many targets the source reaches, counted on first need
        self._reachable: int | None = None
        self.dists = array("d")
        self.vids = array("i")
        self.levels = [(value, array("i")) for value in levels]
        #: every target at a distance up to ``radius`` is in the row
        #: (``inf`` once every reachable one is)
        self.radius = -_INF

    @property
    def exhausted(self) -> bool:
        """Every target reachable from the source is in the row.

        The answer depends on the row alone, never on the bounds it was
        grown through: a row grown past its last reachable target says
        so whether or not every pair has been scanned, so a consumer's
        decision to park a route is the same on a stream another query
        grew to the end as on one rebuilt after a restore.
        """
        if self.radius != _INF:
            reachable = self._reachable
            if reachable is None:
                # the distinct slots under the source's hubs
                pairs = self._bucket.pairs
                slots = [pairs[h][1] for h in self._hubs if h in pairs]
                reachable = self._reachable = len(set().union(*slots))
            if len(self.vids) == reachable:
                self.radius = _INF
        return self.radius == _INF

    def grow(self, bound: float) -> None:
        """Extend the row by every target at a distance up to ``bound``."""
        radius = self.radius
        if bound <= radius:
            return
        best: dict[int, float] = {}
        get = best.get
        pairs = self._bucket.pairs
        emitted = self._emitted
        for g, h in zip(self._g, self._hubs):
            if g > bound:
                break
            entry = pairs.get(h)
            if entry is None:
                continue
            dists, slots = entry
            lo = bisect_right(dists, radius - g)
            hi = bisect_right(dists, bound - g, lo)
            for i in range(lo, hi):
                s = slots[i]
                if emitted[s >> 3] & (1 << (s & 7)):
                    continue
                total = g + dists[i]
                if total < get(s, _INF):
                    best[s] = total
        row_vids = self.vids
        if best:
            row_dists = self.dists
            views = dict(self.levels)
            vertex = self._bucket.targets
            value_of = self._targets
            position = len(row_vids)
            # slot order is vertex order, so this is ``(d, vid)`` order
            for d, s in sorted([(d, s) for s, d in best.items()]):
                t = vertex[s]
                emitted[s >> 3] |= 1 << (s & 7)
                row_dists.append(d)
                row_vids.append(t)
                views[value_of[t]].append(position)
                position += 1
        # complete once every pair is scanned or every target is in (a
        # row short of its targets learns it reached every reachable one
        # when asked, see :attr:`exhausted`)
        if bound == _INF or len(row_vids) == len(self._bucket.targets):
            bound = _INF
        self.radius = bound


class ContractionHierarchy:
    """Contracted view of one network; build via :func:`contraction_for`."""

    __slots__ = ("num_vertices", "directed", "_up_out", "_up_in",
                 "stats", "_token", "_poi_version", "_memo")

    def __init__(self, network: "RoadNetwork") -> None:
        started = perf_counter()
        n = network.num_vertices
        self.num_vertices = n
        self.directed = network.directed
        self._token = (n, network.num_edges)
        self._poi_version = network.poi_version

        # Working adjacency as weight dicts (parallel edges collapse to
        # their minimum — distances are unaffected).  For undirected
        # networks the in- and out-dicts alias: the symmetric arc pair
        # is one dict entry per direction either way.
        out_adj: list[dict[int, float]] = [{} for _ in range(n)]
        if network.directed:
            in_adj: list[dict[int, float]] = [{} for _ in range(n)]
        else:
            in_adj = out_adj
        for u in range(n):
            row = out_adj[u]
            for v, w in network.neighbors(u):
                if w < row.get(v, _INF):
                    row[v] = w
        if network.directed:
            for u in range(n):
                row = in_adj[u]
                for v, w in network.in_neighbors(u):
                    if w < row.get(v, _INF):
                        row[v] = w

        #: per-hierarchy memo: forward rows by vertex, and buckets,
        #: streams and leg minima keyed by ``share_key`` (buckets also
        #: by target set) — all depend only on the network and the
        #: (query-independent) category sets, so they are preprocessing
        #: in disguise and are never evicted; a PoI edit drops all but
        #: the forward rows (:func:`contraction_for`)
        self._memo: dict = {}
        #: upward adjacency, snapshotted at each vertex's contraction:
        #: every arc endpoint outlives (outranks) the vertex
        self._up_out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self._up_in: list[list[tuple[int, float]]] = [[] for _ in range(n)]

        deleted = [0] * n  # contracted-neighbor count (uniformity term)
        shortcuts_added = 0

        # tentative witness-search labels, one slot per vertex, reset to
        # inf after each search; the contracted vertex reads -1, so no
        # label ever beats it and no search passes through it
        label = [_INF] * n

        def witnessed(source: int, weights: dict[int, float]) -> set[int]:
            # Settle-capped Dijkstra, run only until each target of
            # ``weights`` is decided; returns the targets with a
            # witness.  Every label (settled or not) is the length of a
            # real path, so one at or below a target's shortcut weight
            # is a witness; a target settled above it has none, since a
            # settled label is final.  The limit is the largest weight
            # still open, so the settles are a prefix of a search to
            # the largest weight of all.
            open_ = dict(weights)
            found: set[int] = set()
            limit = max(open_.values())
            label[source] = 0.0
            touched = [source]
            heap = [(0.0, source)]
            cap = WITNESS_SETTLE_CAP
            while heap and cap and open_:
                d, a = heappop(heap)
                if d != label[a]:
                    continue  # stale: ``a`` was reached shorter since
                if d > limit:
                    break
                cap -= 1
                # settled above its weight: no witness
                if a in open_ and open_.pop(a) == limit:
                    limit = max(open_.values(), default=-1.0)
                for b, w in out_adj[a].items():
                    nd = d + w
                    if nd <= limit and nd < label[b]:
                        label[b] = nd
                        touched.append(b)
                        heappush(heap, (nd, b))
                        if nd <= open_.get(b, -1.0):
                            found.add(b)
                            if open_.pop(b) == limit:
                                limit = max(open_.values(), default=-1.0)
            for t in touched:
                label[t] = _INF
            return found

        def needed_shortcuts(v: int) -> list[tuple[int, int, float]]:
            outs = out_adj[v]
            ins = in_adj[v]
            if not outs or not ins:
                return []
            found: list[tuple[int, int, float]] = []
            label[v] = -1.0
            for u, w1 in ins.items():
                weights = {x: w1 + w2 for x, w2 in outs.items() if x != u}
                if not weights:
                    continue
                witnesses = witnessed(u, weights)
                for x, through in weights.items():
                    if x in witnesses:
                        continue  # witness path avoids v
                    if out_adj[u].get(x, _INF) <= through:
                        continue  # existing arc already as short
                    found.append((u, x, through))
            label[v] = _INF
            return found

        # Edge-difference ordering with lazy updates: recompute a popped
        # vertex's priority against the current graph; re-queue it when
        # a cheaper vertex has appeared since.  Ties contract the
        # smallest vertex id, keeping the order deterministic.
        pq: list[tuple[int, int]] = []
        for v in range(n):
            cand = needed_shortcuts(v)
            ed = len(cand) - (len(in_adj[v]) + len(out_adj[v]))
            heappush(pq, (ed, v))

        while pq:
            _, v = heappop(pq)
            cand = needed_shortcuts(v)
            priority = (
                len(cand)
                - (len(in_adj[v]) + len(out_adj[v]))
                + deleted[v]
            )
            if pq and priority > pq[0][0]:
                heappush(pq, (priority, v))
                continue
            for u, x, w in cand:
                out_adj[u][x] = w
                in_adj[x][u] = w
                shortcuts_added += 1
            # Snapshot v's arcs (all endpoints outrank v) sorted for a
            # deterministic sweep order, then remove v from the graph.
            self._up_out[v] = sorted(out_adj[v].items())
            self._up_in[v] = sorted(in_adj[v].items())
            for u in list(in_adj[v]):
                out_adj[u].pop(v, None)
                deleted[u] += 1
            if network.directed:
                for x in out_adj[v]:
                    in_adj[x].pop(v, None)
                    deleted[x] += 1
            out_adj[v] = {}
            if network.directed:
                in_adj[v] = {}
            else:
                in_adj[v] = out_adj[v]

        self.stats = CHStats(
            vertices=n,
            edges=network.num_edges,
            shortcuts_added=shortcuts_added,
            preprocess_s=perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # upward sweeps

    def _sweep(
        self,
        sources: Iterable[tuple[int, float]],
        forward: bool,
        counters=None,
    ) -> dict[int, float]:
        """Full Dijkstra over an upward graph; returns the stall-pruned
        labels (``forward`` climbs ``_up_out``, else ``_up_in``).

        Upward search spaces are tiny (arcs only climb ranks), so the
        sweep always runs to exhaustion — that is what makes its result
        reusable as a bucket or a one-to-many row.  Afterwards every
        label that a higher neighbour ``x`` in the row beats over the
        opposite-direction arc ``x -> v`` (forward) or ``v -> x``
        (backward), ``row[x] + w < row[v]``, is dropped: it is longer
        than the true distance, so no shortest path meets there, while
        every meeting hub's label is exact and survives (module
        docstring).  ``counters`` count every settle, pruned or not.
        """
        if forward:
            adj, down = self._up_out, self._up_in
        else:
            adj, down = self._up_in, self._up_out
        dist: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        for s, d0 in sources:
            if d0 < dist.get(s, _INF):
                dist[s] = d0
                heappush(heap, (d0, s))
        out: dict[int, float] = {}
        relaxed = 0
        while heap:
            d, u = heappop(heap)
            if u in out:
                continue
            out[u] = d
            arcs = adj[u]
            relaxed += len(arcs)
            for v, w in arcs:
                nd = d + w
                if nd < dist.get(v, _INF):
                    dist[v] = nd
                    heappush(heap, (nd, v))
        if counters is not None:
            counters.settled += len(out)
            counters.relaxed += relaxed
        get = out.get
        kept: dict[int, float] = {}
        for v, d in out.items():
            for x, w in down[v]:
                dx = get(x)
                if dx is not None and dx + w < d:
                    break
            else:
                kept[v] = d
        return kept

    # ------------------------------------------------------------------
    # queries

    def distance(self, source: int, target: int) -> float:
        """Exact shortest-path distance (inf when unreachable)."""
        fwd = self._sweep([(source, 0.0)], True)
        bwd = self._sweep([(target, 0.0)], False)
        best = _INF
        if len(bwd) < len(fwd):
            small, large = bwd, fwd
        else:
            small, large = fwd, bwd
        for h, d in small.items():
            other = large.get(h)
            if other is not None:
                total = d + other
                if total < best:
                    best = total
        return best

    # ------------------------------------------------------------------
    # many-to-many machinery

    def bucket(self, targets: Collection[int], counters=None) -> CHBucket:
        """Fold a target set into its hub table (one backward upward
        sweep per target; cacheable — depends only on the set)."""
        vertices = array("i", sorted(targets))
        lists: dict[int, list[tuple[float, int]]] = {}
        for slot, t in enumerate(vertices):
            for h, d in self._sweep([(t, 0.0)], False, counters).items():
                entry = lists.get(h)
                if entry is None:
                    lists[h] = [(d, slot)]
                else:
                    entry.append((d, slot))
        pairs: dict[int, tuple[array, array]] = {}
        hubmin: dict[int, float] = {}
        for h, entry in lists.items():
            entry.sort()
            pairs[h] = (
                array("d", [d for d, _ in entry]),
                array("i", [slot for _, slot in entry]),
            )
            hubmin[h] = entry[0][0]
        return CHBucket(targets=vertices, pairs=pairs, hubmin=hubmin)

    def forward_row(self, u: int, counters=None) -> dict[int, float]:
        """``u``'s forward hub labels: ``{hub: d(u, hub)}``, memoized.

        One upward sweep on first use, a dict lookup after — the lazy
        hub-labeling view of the hierarchy.  Every one-to-many consumer
        (:meth:`distances_from`, :class:`CHDistanceOracle`,
        :meth:`vertex_min`) reads through this, so repeated queries
        touching the same vertices degrade to pure label scans.
        ``counters`` only tick on the sweep.
        """
        key = ("fwd", u)
        row = self._memo.get(key)
        if row is None:
            row = self._sweep([(u, 0.0)], True, counters)
            self._memo[key] = row
        return row

    def forward_hubs(self, u: int, counters=None) -> tuple[array, array]:
        """``u``'s forward row as ``(g, hubs)`` typed arrays sorted by
        ``(g, hub)``, memoized beside it: every lazy label stream from
        ``u`` (one per target set) walks this one copy."""
        key = ("hubs", u)
        hubs = self._memo.get(key)
        if hubs is None:
            labels = sorted(
                (g, h) for h, g in self.forward_row(u, counters).items()
            )
            hubs = self._memo[key] = (
                array("d", [g for g, _ in labels]),
                array("i", [h for _, h in labels]),
            )
        return hubs

    def distances_from(
        self, source: int, bucket: CHBucket, counters=None
    ) -> dict[int, float]:
        """Exact distances from ``source`` to every bucket target
        (missing key == unreachable): ``source``'s forward row scanned
        against the bucket."""
        pairs = bucket.pairs
        best: dict[int, float] = {}
        get = best.get
        for h, g in self.forward_row(source, counters).items():
            entry = pairs.get(h)
            if entry is None:
                continue
            for d, s in zip(*entry):
                total = g + d
                if total < get(s, _INF):
                    best[s] = total
        vertex = bucket.targets
        return {vertex[s]: d for s, d in best.items()}

    def min_from_set(
        self, sources: Collection[int], bucket: CHBucket, counters=None
    ) -> float:
        """Exact ``min_{s in sources, t in targets} d(s, t)`` in one
        multi-source forward upward sweep against the hub minima."""
        if not sources:
            return _INF
        fwd = self._sweep([(s, 0.0) for s in sources], True, counters)
        return self._row_min(fwd, bucket.hubmin)

    @staticmethod
    def _row_min(row: dict[int, float], hubmin: dict[int, float]) -> float:
        """``min_h row[h] + hubmin[h]`` over the smaller of the dicts."""
        best = _INF
        if len(hubmin) < len(row):
            row, hubmin = hubmin, row
        get = hubmin.get
        for h, g in row.items():
            d = get(h)
            if d is not None and g + d < best:
                best = g + d
        return best

    def memo_bucket(
        self,
        kind: str,
        share_key: tuple,
        targets: Collection[int],
        counters=None,
    ) -> CHBucket:
        """:meth:`bucket` of a share-keyed target set, built at most once.

        Looked up by name (``kind``, ``share_key``) first, then by the
        target set itself, so two names for one set — a category whose
        candidate and perfect sets coincide — share one bucket.  The
        memo grows by at most one bucket per distinct target set: a
        per-network constant.
        """
        memo = self._memo
        key = ("bucket", kind, share_key)
        bucket = memo.get(key)
        if bucket is None:
            set_key = ("bucketset", frozenset(targets))
            bucket = memo.get(set_key)
            if bucket is None:
                bucket = self.bucket(targets, counters)
                memo[set_key] = bucket
            memo[key] = bucket
        return bucket

    def vertex_min(
        self,
        kind: str,
        share_key: tuple,
        u: int,
        targets: Collection[int],
    ) -> float:
        """Exact ``min_t d(u, t)`` over a share-keyed target set, memoized.

        The per-route next-leg floor of BSSR's pruning test: from the
        concrete last vertex of a partial route to the next position's
        full candidate set.  Both the target bucket and the resulting
        scalar are per-network constants, so after the first probe of a
        ``(u, share_key)`` pair the floor costs one dict lookup.
        """
        memo = self._memo
        key = ("vmin", kind, share_key, u)
        value = memo.get(key)
        if value is None:
            bucket = self.memo_bucket(kind, share_key, targets)
            value = self._row_min(self.forward_row(u), bucket.hubmin)
            memo[key] = value
        return value

    def memo_row(
        self,
        kind: str,
        share_key: tuple,
        source: int,
        targets: Collection[int],
        counters=None,
    ) -> dict[int, float]:
        """:meth:`distances_from` against a share-keyed target set,
        memoized per ``(source, share_key)``.

        The exact one-to-many row from a vertex to a share-keyed target
        set is a per-network constant — NNinit's ``"perfect"`` legs
        re-request the same rows every query, so after the first build
        they are dict lookups.  Candidate rows are not stored here: they
        live once, grown lazily, in :meth:`memo_stream`.  ``counters`` only
        ticks when the row (or its bucket) is actually swept — memo hits
        report zero work, which is the point.
        """
        memo = self._memo
        key = ("drow", kind, share_key, source)
        row = memo.get(key)
        if row is None:
            bucket = self.memo_bucket(kind, share_key, targets, counters)
            row = self.distances_from(source, bucket, counters)
            memo[key] = row
        return row

    def label_stream(
        self,
        source: int,
        bucket: CHBucket,
        targets: Mapping[int, float],
        levels: Sequence[float],
        counters=None,
    ) -> LabelStream:
        """A fresh :class:`LabelStream` from ``source`` to the bucket's
        targets, empty until grown."""
        return LabelStream(
            self.forward_hubs(source, counters), bucket, targets, levels
        )

    def memo_stream(
        self,
        share_key: tuple,
        source: int,
        targets: Mapping[int, float],
        levels: Sequence[float],
        counters=None,
    ) -> LabelStream:
        """The candidate stream from ``source`` to a share-keyed
        candidate set, memoized: one :class:`LabelStream` per
        ``(share_key, source)``, grown by whichever query needs it
        farther.

        The row is a per-network constant, so BSSR's expansions at every
        position and NNinit's last leg share it across queries; after
        the first touch it is one dict lookup.  It is stored only here,
        at about 16 bytes per emitted entry (distance, vertex and level
        position) plus the stream's own arrays and one bit per target,
        with its source's hubs shared from :meth:`forward_hubs` (no
        ``(d, vid, sim)`` tuples — equal ``share_key`` implies equal
        ``sim_map``, see ``PositionSpec.share_key``, so consumers look
        similarities up as they read).  Growth bound: at most one
        stream per ``(share_key, source)``, each at most ``|targets|``
        entries, and only as far as a budget ever asked: 1,700
        ``hot_city_ch`` requests at tokyo@0.5 leave 11,222 streams
        holding 153k entries, about 11 MB with their level views (their
        full rows would hold 843k).  Stall pruning leaves stream
        contents as they were; the labels they are scanned from shrink
        (same replay: 1,149 forward rows, 51.6k labels instead of 162k;
        73 distinct buckets, 58k pairs instead of 183k; plus 63
        ``memo_min`` source-set rows, 31k labels).
        """
        memo = self._memo
        key = ("stream", share_key, source)
        stream = memo.get(key)
        if stream is None:
            bucket = self.memo_bucket("cands", share_key, targets, counters)
            stream = self.label_stream(
                source, bucket, targets, levels, counters
            )
            memo[key] = stream
        return stream

    def memo_min(
        self,
        key: tuple,
        src_key: tuple,
        sources: Collection[int],
        bucket: CHBucket,
    ) -> float:
        """:meth:`min_from_set`, memoized on the hierarchy under ``key``.

        For set-to-set leg minima whose sources *and* targets are both
        named query-independently (full category candidate sets): the
        value is a per-network constant, so computing it per query is
        pure waste.  Callers must fold the share keys of both sets into
        ``key``; ``src_key`` names the source set alone.  The source
        set's multi-source forward row is memoized too, under
        ``("fwdset", src_key)``, so every leg leaving one category —
        ``"ls"``, ``"lp"`` or ``"dest"``, to any target — shares one
        sweep and costs one label scan.
        """
        memo = self._memo
        value = memo.get(key)
        if value is None:
            row_key = ("fwdset", src_key)
            row = memo.get(row_key)
            if row is None:
                row = self._sweep([(s, 0.0) for s in sources], True)
                memo[row_key] = row
            value = self._row_min(row, bucket.hubmin)
            memo[key] = value
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return (
            f"ContractionHierarchy({kind}, |V∪P|={self.num_vertices}, "
            f"shortcuts={self.stats.shortcuts_added})"
        )


class CHDistanceOracle:
    """Lazy dict-like view of exact distances *to* one target vertex.

    Drop-in for the eager ``dijkstra(network, destination,
    reverse=True)`` dict of destination queries — consumers only call
    ``.get(vid, default)``.  Each first lookup costs one forward upward
    sweep (memoized), so queries touching few vertices skip almost the
    entire reverse search.
    """

    __slots__ = ("_ch", "_bucket", "_memo")

    def __init__(
        self, ch: ContractionHierarchy, target: int, bucket: CHBucket | None = None
    ) -> None:
        self._ch = ch
        self._bucket = bucket if bucket is not None else ch.bucket((target,))
        self._memo: dict[int, float] = {}

    @property
    def bucket(self) -> CHBucket:
        return self._bucket

    def get(self, vid: int, default=None):
        d = self._memo.get(vid)
        if d is None:
            d = self._ch._row_min(
                self._ch.forward_row(vid), self._bucket.hubmin
            )
            self._memo[vid] = d
        return default if d == _INF else d


def shared_bucket(
    ch: ContractionHierarchy,
    cache,
    kind: str,
    share_key: tuple | None,
    targets: Collection[int],
) -> CHBucket:
    """A target bucket, from the hierarchy's memo when it has a name.

    ``share_key`` names the target set query-independently; without one
    the bucket is built fresh (exactly like unshareable modified-Dijkstra
    searches).  Named buckets live only in
    :meth:`ContractionHierarchy.memo_bucket`, whether or not a cache is
    given: ``cache`` (a :class:`~repro.core.distcache.DistanceCache` or
    ``None``) merely counts the traffic — a hit when the name was
    already memoized, a miss otherwise — and stores nothing.
    """
    if share_key is None:
        return ch.bucket(targets)
    if cache is not None:
        if ("bucket", kind, share_key) in ch._memo:
            cache.stats.bucket_hits += 1
        else:
            cache.stats.bucket_misses += 1
    return ch.memo_bucket(kind, share_key, targets)


def contraction_for(network: "RoadNetwork") -> ContractionHierarchy:
    """The (memoized) contraction hierarchy of ``network``.

    Rebuilt when the network gained vertices or edges, mirroring
    :func:`repro.graph.csr.flat_adjacency`; a PoI edit
    (``RoadNetwork.poi_version``) only drops the memo entries built from
    PoI sets.
    """
    cached: ContractionHierarchy | None = getattr(network, "_ch_index", None)
    token = (network.num_vertices, network.num_edges)
    if cached is not None and cached._token == token:
        if cached._poi_version != network.poi_version:
            # everything but the forward rows (as dicts and as sorted
            # hubs) is keyed by category share_key, which names another
            # vertex set after a PoI edit
            cached._memo = {
                key: row for key, row in cached._memo.items()
                if key[0] in ("fwd", "hubs")
            }
            cached._poi_version = network.poi_version
        return cached
    index = ContractionHierarchy(network)
    network._ch_index = index  # type: ignore[attr-defined]
    return index

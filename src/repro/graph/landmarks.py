"""ALT landmarks: triangle-inequality lower bounds on network distance.

Goldberg & Harrelson's A*-landmark technique, adapted to BSSR's
pruning needs: here it only sharpens the Section 5.3.3 bounds on the
Dijkstra path (``BSSROptions.use_landmarks``).  It drives no A*
search, and under ``BSSROptions.use_contraction`` it is inert: the
hierarchy's exact legs and floors supersede it, so no method here runs.

A small set of *landmarks* is chosen with the farthest-point
heuristic; for each landmark ``l`` we precompute the full distance
table *from* ``l`` (and, on directed graphs, *to* ``l`` via reverse
Dijkstra).  The triangle inequality then gives, for any
pair ``(u, v)``::

    d(u, v) >= d(l, v) - d(l, u)        (from-table form)
    d(u, v) >= d(u, l) - d(v, l)        (to-table form)

and the maximum over landmarks and forms is a valid — often sharp —
lower bound computed in O(#landmarks).

Beyond pairwise bounds, BSSR needs bounds against *vertex sets* (the
candidate PoIs of a query position).  :meth:`LandmarkIndex.profile`
reduces a set ``S`` to four floats per landmark (min/max of each
table over ``S``); :meth:`min_between` then lower-bounds
``min_{p∈S1, q∈S2} d(p, q)`` from profiles alone, again in
O(#landmarks) regardless of ``|S|``.  ``inf`` entries (disconnected
components) are guarded explicitly — ``inf - inf`` is NaN and must
never reach a comparison.  Every difference is shaved by a relative
epsilon, ``(a - b) - _EPS * (a + b)``.  The shave predates the weight
grain of :meth:`~repro.graph.road_network.RoadNetwork.add_edge`, under
which ``a`` and ``b`` are exact sums and so is their difference; it
now only weakens each bound by about 1e-9 of its terms.

Tables are rows of the scalar Dijkstra kernel (:mod:`repro.graph.dijkstra`):
landmark selection already computes each landmark's *from* row, and the
index keeps those rows instead of recomputing them, so an undirected
build costs ``count + 1`` single-source searches (directed graphs add
``count`` reverse ones).  The index is memoized per network via
:func:`landmarks_for`, so deserialized searches (which have a network
but no engine) share the same tables.  The index depends on the
network's topology alone.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from typing import TYPE_CHECKING

from repro.graph.dijkstra import dijkstra

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.road_network import RoadNetwork

_INF = math.inf

#: default landmark count — diminishing returns beyond ~8 on city graphs
DEFAULT_LANDMARKS = 8

#: per-landmark set summary: (min_from, max_from, min_to, max_to) over S
Profile = list[tuple[float, float, float, float]]

#: relative slack absorbing float accumulation noise (module docstring)
_EPS = 1e-9


def _distance_row(network: "RoadNetwork", source: int, *, reverse: bool) -> list[float]:
    """Dijkstra distances from ``source`` (to it with ``reverse``) as a
    per-vertex list, ``inf`` where unreachable."""
    dist = dijkstra(network, source, reverse=reverse)
    assert isinstance(dist, dict)
    row = [_INF] * network.num_vertices
    for v, d in dist.items():
        row[v] = d
    return row


class LandmarkIndex:
    """Precomputed landmark distance tables over one network.

    ``_from[i][v]`` is ``d(landmark_i, v)``; ``_to[i][v]`` is
    ``d(v, landmark_i)`` (the same list object when undirected).
    Build via :func:`landmarks_for`, which memoizes per network.
    """

    __slots__ = ("landmarks", "_from", "_to", "_token")

    def __init__(
        self, network: "RoadNetwork", *, count: int = DEFAULT_LANDMARKS
    ) -> None:
        self.landmarks, self._from = _select_farthest(network, count)
        self._to: list[list[float]] = (
            [_distance_row(network, lm, reverse=True) for lm in self.landmarks]
            if network.directed
            else self._from
        )
        self._token = (network.num_vertices, network.num_edges, count)

    def lower_bound(self, u: int, v: int) -> float:
        """Lower bound on ``d(u, v)``; exact 0 for ``u == v``."""
        if u == v:
            return 0.0
        best = 0.0
        # The eps shave is inlined here (and in the set-bound methods):
        # these run per candidate PoI / per popped route on the hot
        # path, where the extra call frame is measurable.  An infinite
        # minuend short-circuits to inf — unreachability is exact.
        for fr, to in zip(self._from, self._to):
            fu = fr[u]
            if fu != _INF:
                fv = fr[v]
                if fv == _INF:
                    return _INF
                cand = (fv - fu) - _EPS * (fv + fu)
                if cand > best:
                    best = cand
            tv = to[v]
            if tv != _INF:
                tu = to[u]
                if tu == _INF:
                    return _INF
                cand = (tu - tv) - _EPS * (tu + tv)
                if cand > best:
                    best = cand
        return best

    def restrict_within(
        self, u: int, vids: Collection[int], radius: float
    ) -> list[int]:
        """Subset of ``vids`` whose :meth:`lower_bound` from ``u`` is at
        most ``radius`` — the batch form of the l̄(ϕ)-ball membership
        test, with the landmark rows for ``u`` hoisted out of the loop.
        A vertex is dropped as soon as any single form exceeds the
        radius (the max over forms then certainly does).
        """
        rows = []
        for fr, to in zip(self._from, self._to):
            rows.append((fr, fr[u], to, to[u]))
        out = []
        for v in vids:
            if v == u:
                out.append(v)
                continue
            for fr, fu, to, tu in rows:
                if fu != _INF:
                    fv = fr[v]
                    if fv == _INF or (fv - fu) - _EPS * (fv + fu) > radius:
                        break
                tv = to[v]
                if tv != _INF:
                    if tu == _INF or (tu - tv) - _EPS * (tu + tv) > radius:
                        break
            else:
                out.append(v)
        return out

    def profile(self, vertices: Collection[int]) -> Profile | None:
        """Reduce a vertex set to per-landmark table extremes.

        Returns ``None`` for an empty set (no profile → no pruning).
        The result feeds :meth:`min_between`, whose cost is then
        independent of ``|vertices|``.
        """
        if not vertices:
            return None
        out: Profile = []
        for fr, to in zip(self._from, self._to):
            min_fr = _INF
            max_fr = 0.0
            min_to = _INF
            max_to = 0.0
            for p in vertices:
                f = fr[p]
                if f < min_fr:
                    min_fr = f
                if f > max_fr:
                    max_fr = f
                t = to[p]
                if t < min_to:
                    min_to = t
                if t > max_to:
                    max_to = t
            out.append((min_fr, max_fr, min_to, max_to))
        return out

    def min_between(self, first: Profile | None, second: Profile | None) -> float:
        """Lower bound on ``min_{p∈S1, q∈S2} d(p, q)`` from profiles.

        For each landmark: ``d(p,q) >= d(l,q) - d(l,p) >= min_fr(S2) -
        max_fr(S1)`` and ``d(p,q) >= d(p,l) - d(q,l) >= min_to(S1) -
        max_to(S2)``, each valid only when the subtracted maximum is
        finite.
        """
        if first is None or second is None:
            return 0.0
        best = 0.0
        for (_, max_fr1, min_to1, _), (min_fr2, _, _, max_to2) in zip(
            first, second
        ):
            if max_fr1 != _INF:
                if min_fr2 == _INF:
                    return _INF
                cand = (min_fr2 - max_fr1) - _EPS * (min_fr2 + max_fr1)
                if cand > best:
                    best = cand
            if max_to2 != _INF:
                if min_to1 == _INF:
                    return _INF
                cand = (min_to1 - max_to2) - _EPS * (min_to1 + max_to2)
                if cand > best:
                    best = cand
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LandmarkIndex(landmarks={self.landmarks})"


def _select_farthest(
    network: "RoadNetwork", count: int
) -> tuple[list[int], list[list[float]]]:
    """Farthest-point landmark selection (deterministic).

    Seed with the vertex farthest from vertex 0, then repeatedly add
    the vertex maximizing the minimum distance to the chosen set.
    Unreachable vertices sort *first* on purpose: a landmark inside an
    otherwise-uncovered component turns "no information" into exact
    infinite bounds there.  Ties break toward the smallest vertex id.

    Returns the landmarks and, per landmark, the distance row *from* it
    that the selection computed anyway — exactly the index's
    ``_from`` table.
    """
    n = network.num_vertices
    if n == 0:
        return [], []
    count = min(count, n)
    seed_row = _distance_row(network, 0, reverse=False)
    first = _argmax_row(seed_row)
    landmarks = [first]
    rows = [_distance_row(network, first, reverse=False)]
    min_dist = list(rows[0])
    while len(landmarks) < count:
        nxt = _argmax_row(min_dist, taken=landmarks)
        if nxt is None:
            break
        landmarks.append(nxt)
        row = _distance_row(network, nxt, reverse=False)
        rows.append(row)
        for v in range(n):
            if row[v] < min_dist[v]:
                min_dist[v] = row[v]
    return landmarks, rows


def _argmax_row(
    row: Sequence[float], *, taken: Collection[int] = ()
) -> int | None:
    """Index of the largest value not in ``taken``, inf beating any
    finite, min-id ties."""
    best_v: int | None = None
    best_d = -1.0
    for v, d in enumerate(row):
        if v in taken:
            continue
        if d > best_d:
            best_v, best_d = v, d
    return best_v


def landmarks_for(
    network: "RoadNetwork", *, count: int = DEFAULT_LANDMARKS
) -> LandmarkIndex:
    """The (memoized) landmark index of ``network``.

    Rebuilt when the network's structure or the requested count
    changed; a PoI edit leaves it valid.  Memoizing on the network instance (not an engine) lets
    deserialized sessions — which reconstruct searches from a network
    reference alone — reuse the tables already paid for.
    """
    cached: LandmarkIndex | None = getattr(network, "_landmark_index", None)
    token = (network.num_vertices, network.num_edges, count)
    if cached is not None and cached._token == token:
        return cached
    index = LandmarkIndex(network, count=count)
    network._landmark_index = index  # type: ignore[attr-defined]
    return index

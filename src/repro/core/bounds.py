"""Lower-bound machinery of Section 5.3.3 (Algorithm 4, Lemma 5.8).

Two families of per-leg minimum distances tighten the length lower
bound of a partial route:

* **semantic-match minimum distance** ``l_s[i]`` — the smallest network
  distance from any candidate of position ``i`` to any candidate of
  position ``i+1``.  Always addable: every completion must traverse at
  least this much per remaining leg.
* **perfect-match minimum distance** ``l_p[i]`` — the smallest distance
  from any candidate of position ``i`` to any *perfect* candidate of
  position ``i+1``.  Larger (tighter), but only applicable under Lemma
  5.8's side conditions — when any non-perfect deviation would already
  make the route dominated, so it *must* chain perfect matches.

Every leg of either family is computed by one function, ``leg`` in
:func:`compute_lower_bounds`, over one of three accelerators chosen by
the caller:

* **Dijkstra** (the default path): each ``l_s`` leg is the minimum of
  position ``i+1``'s memoized candidate distance field
  (:func:`~repro.core.search.candidate_field`) over position ``i``'s
  full candidate set — one pass over the set, no search.  Each ``l_p``
  leg is the multi-source multi-destination Dijkstra of Lemma 5.9 over
  the full sets, truncated at the best perfect route length ``l̄(ϕ)``
  (a truncated search returns the radius — still a valid lower bound).
  The paper's ``l̄(ϕ)`` ball (Algorithm 4 lines 3–4) is not built:
  full-set minima can only under-, never over-state the restricted
  ones, so they stay valid lower bounds.  Positions without a
  memoized field (predicates) take their ``l_s`` leg from the same
  truncated Dijkstra.
* **ALT** (``BSSROptions.use_landmarks``): a
  :class:`~repro.graph.landmarks.LandmarkIndex` restricts each set to a
  superset of the ``l̄(ϕ)`` ball and maxes each truncated Dijkstra leg
  with the ALT set-to-set bound.
* **Contraction hierarchy** (``BSSROptions.use_contraction``): each
  leg is the exact set-to-set minimum over the *full* candidate sets,
  memoized on the hierarchy.  It supersedes ALT, so no landmark code
  runs under it.

Without the hierarchy the result also carries the query's **to-go
rows** (:func:`to_go_rows`): ``to_go[j][v]`` is the length of the
shortest walk from ``v`` through one candidate of each position
``j … n−1``, in order, and on to the destination if there is one: the
optimal sequenced route over the remaining positions, which the sum of
per-leg minima only bounds from below.  It ignores distinctness and
similarity, so it is an admissible floor on what any route of size
``j`` ending at ``v`` still has to travel.

The rows double as A* potentials.  Each is a multi-seeded distance
field, so it is consistent, and BSSR runs the modified Dijkstra of
every position ``j ≥ 1`` on ``to_go[j]`` (see :mod:`repro.core.search`):
on a candidate ``c`` of position ``j`` the row equals ``to_go[j+1][c]``
(the destination leg at the last position), so the stream's key for
``c`` is its distance plus the exact remainder.  A row is therefore
read at every vertex the stream settles, not only at the candidates of
position ``j−1``.  Rows are advisory and never serialized.  They do not
depend on ``k``: a live search reuses them when it resumes, and a
restored one rebuilds them, value for value, so stream offsets replay.

Every value here is used as computed.  Edge weights sit on the grain of
:meth:`~repro.graph.road_network.RoadNetwork.add_edge`, so each Dijkstra
leg, CH leg, to-go row and destination floor is an exact distance sum,
never above the true remainder.  A floor that ties a threshold does
not prune (:meth:`~repro.core.bssr.BSSRSearch._prunable` cuts only
above it), so no slack is needed to keep a tie alive.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.dominance import SkybandSet
from repro.core.search import candidate_field, field_memo, set_key
from repro.core.spec import CompiledQuery
from repro.core.stats import SearchStats
from repro.graph.contraction import (
    CHDistanceOracle,
    ContractionHierarchy,
    shared_bucket,
)
from repro.graph.dijkstra import (  # noqa: F401 (bounded_dijkstra)
    bounded_dijkstra,
    distance_field,
    multi_source_min_distance,
)
from repro.graph.landmarks import LandmarkIndex, Profile
from repro.graph.road_network import RoadNetwork

# ``bounded_dijkstra`` is not called here.  The name stays bound in this
# module because ``perfbench/spans.py`` wraps it, with
# ``multi_source_min_distance``, through ``bounds.__dict__``.

#: target bucket kind of each leg family
_BUCKET_KIND = {"ls": "cands", "lp": "perfect"}


@dataclass
class LowerBounds:
    """Suffix-aggregated lower bounds, indexed by current route size.

    ``suffix_ls[k]`` (``k ∈ [0, n]``) is the minimum extra length any
    route of size ``k`` must still accumulate over its remaining legs
    (Definition 5.7's ``l_s(R)``); ``suffix_lp`` the perfect-match
    variant; ``remaining_best_np[k]`` the best non-perfect similarity
    any remaining position admits (for Lemma 5.8's ``δ``);
    ``dest_min`` a lower bound on the final leg to the destination
    (0 for destination-free queries).

    ``to_go`` and ``to_go_min`` are the to-go rows of
    :func:`to_go_rows` (``None`` under the hierarchy or without lower
    bounds).
    """

    suffix_ls: list[float]
    suffix_lp: list[float]
    remaining_best_np: list[float | None]
    dest_min: float = 0.0
    legs_ls: list[float] = field(default_factory=list)
    legs_lp: list[float] = field(default_factory=list)
    #: ``to_go[j]`` for route sizes ``j = 1 … n−1`` (``to_go[0]`` is
    #: ``None``); advisory — not serialized, rebuilt after a restore
    to_go: list[Sequence[float] | None] | None = None
    #: ``to_go_min[j]``: the least length still ahead of a route once it
    #: reaches a candidate of position ``j`` (BSSR reserves it at
    #: position 0; later streams carry the exact value in their keys)
    to_go_min: list[float] | None = None

    @classmethod
    def disabled(cls, n: int) -> "LowerBounds":
        """Zero bounds (the ``lower_bounds=False`` ablation)."""
        return cls(
            suffix_ls=[0.0] * (n + 1),
            suffix_lp=[0.0] * (n + 1),
            remaining_best_np=_remaining_best_np_from([None] * n),
            dest_min=0.0,
        )


def _remaining_best_np_from(
    per_position: list[float | None],
) -> list[float | None]:
    """Suffix-max of per-position best non-perfect similarities."""
    n = len(per_position)
    out: list[float | None] = [None] * (n + 1)
    for k in range(n - 1, -1, -1):
        best = out[k + 1]
        cur = per_position[k]
        if cur is not None and (best is None or cur > best):
            best = cur
        out[k] = best
    return out


def to_go_rows(
    network: RoadNetwork,
    query: CompiledQuery,
    fields: list[list[float] | None],
    dest_dist=None,
) -> tuple[list[Sequence[float] | None], list[float], int]:
    """The query's to-go rows, ``(rows, mins, sweeps)``.

    ``rows[j][v]`` (``1 <= j < n``) is the length of the shortest walk
    from ``v`` through one candidate of each position ``j … n−1``, in
    order, then to the destination (``dest_dist``, distances *to* it)
    if there is one.  ``mins[j]`` is the least of ``rows[j+1]`` (the
    destination leg for ``j = n−1``, 0 without one) over position
    ``j``'s candidates.  ``fields`` are the positions' candidate fields
    (:func:`~repro.core.search.candidate_field`).

    The rows are built back to front, each by one
    :func:`~repro.graph.dijkstra.distance_field` sweep that seeds every
    candidate of position ``j`` at its value in row ``j+1``.  A
    destination-free suffix of at most two named positions is a
    per-network constant: the last position alone is its candidate
    field, and a pair is memoized beside it (:func:`field_memo`) as an
    ``array('d')``.  Every other row — longer suffixes, destination
    queries, predicate positions — is built for this query; ``sweeps``
    counts those and the pair rows built here, not memo hits.
    """
    n = query.size
    sets = [spec.sim_map for spec in query.specs]
    rows: list[Sequence[float] | None] = [None] * n
    sweeps = 0
    # the destination leg of each last-position candidate
    dest_leg: dict[int, float] | None = None
    if dest_dist is not None:
        dest_leg = {c: dest_dist.get(c, math.inf) for c in sets[n - 1]}
    for j in range(n - 1, 0, -1):
        if j == n - 1:
            row = fields[j] if dest_leg is None else None
            if row is None:
                row = distance_field(network, sets[j], dest_leg)
                sweeps += 1
        elif (
            j == n - 2
            and dest_leg is None
            and fields[j] is not None
            and fields[j + 1] is not None
        ):
            memo = field_memo(network)
            key = (set_key(memo, sets[j]), set_key(memo, sets[j + 1]))
            row = memo.get(key)
            if row is None:
                row = memo[key] = array(
                    "d", distance_field(network, sets[j], fields[j + 1])
                )
                sweeps += 1
        else:
            row = distance_field(network, sets[j], rows[j + 1])
            sweeps += 1
        rows[j] = row
    mins = [
        min((rows[j + 1][c] for c in sets[j]), default=math.inf)  # type: ignore[index]
        for j in range(n - 1)
    ]
    mins.append(
        0.0 if dest_leg is None else min(dest_leg.values(), default=math.inf)
    )
    return rows, mins, sweeps


def compute_lower_bounds(
    network: RoadNetwork,
    query: CompiledQuery,
    skyline: SkybandSet,
    *,
    enabled: bool = True,
    perfect_enabled: bool = True,
    dest_dist: dict[int, float] | None = None,
    stats: SearchStats | None = None,
    landmarks: LandmarkIndex | None = None,
    ch: ContractionHierarchy | None = None,
    shared_cache=None,
    previous: LowerBounds | None = None,
) -> LowerBounds:
    """Algorithm 4 — compute ``l_s``/``l_p`` legs and their suffixes.

    Takes at most one of ``landmarks`` and ``ch`` (see the module
    docstring).  ``landmarks`` sharpens each Dijkstra leg with the ALT
    set-to-set bound.

    ``ch`` replaces the multi-source Dijkstras outright: each leg
    becomes the **exact** set-to-set minimum distance over the *full*
    candidate sets, served by one multi-source upward sweep against the
    target set's hub bucket.  Buckets depend only on the target sets and
    are memoized on the hierarchy (``shared_cache``, a
    :class:`~repro.core.distcache.DistanceCache`, only counts their
    traffic) — a warm query skips every downward sweep.

    Without ``ch`` the result carries the to-go rows
    (:func:`to_go_rows`), taken from ``previous`` when it has them —
    the bounds of an earlier leg of the same search — and built
    otherwise; ``stats.extra["to_go_sweeps"]`` counts the sweeps built.
    """
    if landmarks is not None and ch is not None:
        raise ValueError("pass at most one of landmarks and ch")
    n = query.size
    specs = query.specs
    per_position_np = [spec.best_nonperfect for spec in specs]
    bounds = LowerBounds(
        suffix_ls=[0.0] * (n + 1),
        suffix_lp=[0.0] * (n + 1),
        remaining_best_np=_remaining_best_np_from(per_position_np),
    )
    if not enabled:
        return bounds

    started = perf_counter()
    radius = skyline.perfect_route_length()  # l̄(ϕ)

    start = query.start
    if landmarks is not None and radius != math.inf:
        # ALT keeps a superset of the l̄(ϕ) ball: lb(start, v) > radius
        # implies d(start, v) > radius, and legs over supersets are
        # weaker but still valid lower bounds.
        within = landmarks.restrict_within

        def restrict(vids):
            return within(start, vids, radius)

    else:

        def restrict(vids):
            return vids

    candidate_sets = [restrict(spec.sim_map) for spec in specs]
    profiles: list[Profile | None] | None = None
    if landmarks is not None:
        profiles = [landmarks.profile(c) for c in candidate_sets]
    fields = (
        [candidate_field(network, spec) for spec in specs]
        if ch is None
        else None
    )

    def leg(j: int, kind: str, targets) -> float:
        """Minimum distance from position ``j``'s candidates to
        ``targets`` (position ``j+1``'s candidates for ``"ls"``, its
        perfect matches for ``"lp"``)."""
        sources = candidate_sets[j]
        if ch is not None:
            # Exact minimum over the full sets: when both are named the
            # value is a per-network constant the hierarchy memoizes,
            # so after the first query a CH leg costs a dict lookup.
            src_key = specs[j].share_key
            tgt_key = specs[j + 1].share_key
            bucket = shared_bucket(
                ch, shared_cache, _BUCKET_KIND[kind], tgt_key, targets
            )
            if src_key is not None and tgt_key is not None:
                return ch.memo_min(
                    (kind, src_key, tgt_key), src_key, sources, bucket
                )
            return ch.min_from_set(sources, bucket)
        if kind == "ls" and profiles is None:
            target_field = fields[j + 1]  # type: ignore[index]
            if target_field is not None:
                return min(
                    (target_field[c] for c in sources), default=math.inf
                )
        value = multi_source_min_distance(
            network, sources, targets, radius=radius
        )
        if profiles is not None:
            target_profile = (
                profiles[j + 1] if kind == "ls" else landmarks.profile(targets)
            )
            alt = landmarks.min_between(profiles[j], target_profile)
            if alt > value:
                value = alt
        return value

    legs_ls: list[float] = []
    legs_lp: list[float] = []
    for j in range(n - 1):
        legs_ls.append(leg(j, "ls", candidate_sets[j + 1]))
        legs_lp.append(
            leg(j, "lp", restrict(specs[j + 1].perfect))
            if perfect_enabled
            else 0.0
        )

    # suffix over remaining legs: a route of size k has legs k-1 … n-2
    # still ahead of it (0-based legs between positions j and j+1).
    for k in range(n - 1, 0, -1):
        bounds.suffix_ls[k] = bounds.suffix_ls[k + 1] + legs_ls[k - 1]
        lp_leg = max(legs_lp[k - 1], legs_ls[k - 1])
        bounds.suffix_lp[k] = bounds.suffix_lp[k + 1] + lp_leg
    # An empty route has at least the size-1 remainder ahead of it.
    bounds.suffix_ls[0] = bounds.suffix_ls[1]
    bounds.suffix_lp[0] = bounds.suffix_lp[1]
    bounds.legs_ls = legs_ls
    bounds.legs_lp = legs_lp

    if dest_dist is not None and n >= 1:
        last_candidates = candidate_sets[n - 1]
        if ch is not None and isinstance(dest_dist, CHDistanceOracle):
            # One multi-source sweep against the destination's bucket
            # beats probing the lazy oracle once per candidate; over the
            # full last set the value is per-(network, destination), so
            # it memoizes too.
            last_key = specs[n - 1].share_key
            if last_key is not None and query.destination is not None:
                dest_min = ch.memo_min(
                    ("dest", last_key, query.destination),
                    last_key,
                    last_candidates,
                    dest_dist.bucket,
                )
            else:
                dest_min = ch.min_from_set(last_candidates, dest_dist.bucket)
            bounds.dest_min = dest_min
        else:
            bounds.dest_min = min(
                (dest_dist.get(p, math.inf) for p in last_candidates),
                default=math.inf,
            )

    if fields is not None:
        if previous is not None and previous.to_go is not None:
            bounds.to_go = previous.to_go
            bounds.to_go_min = previous.to_go_min
            sweeps = 0
        else:
            bounds.to_go, bounds.to_go_min, sweeps = to_go_rows(
                network, query, fields, dest_dist
            )
        if stats is not None:
            stats.extra["to_go_sweeps"] = sweeps

    if stats is not None:
        stats.bounds_time = perf_counter() - started
        stats.sum_ls = bounds.suffix_ls[1]
        stats.sum_lp = bounds.suffix_lp[1]
    return bounds

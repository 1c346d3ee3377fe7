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
:func:`compute_lower_bounds`, over one of two accelerators chosen by
the caller:

* **Dijkstra** (the paper's path): the multi-source multi-destination
  Dijkstra of Lemma 5.9, with candidate sets restricted to the
  ``l̄(ϕ)`` ball around the start (Algorithm 4 lines 3–4): PoIs farther
  than the best perfect route are unreachable by any non-pruned route.
  Radius-truncated searches return the radius — still a valid lower
  bound.  A :class:`~repro.graph.landmarks.LandmarkIndex`
  (``BSSROptions.use_landmarks``) replaces the ball Dijkstra with the
  ALT superset test, maxes each leg with the ALT set-to-set bound, and
  keeps per-position candidate *profiles* on the result for BSSR's
  per-route next-leg floor.  Profiles are advisory and never
  serialized; a restored checkpoint recomputes them with the bounds on
  its next resume.
* **Contraction hierarchy** (``BSSROptions.use_contraction``): each
  leg is the exact set-to-set minimum over the *full* candidate sets,
  memoized on the hierarchy.  It supersedes ALT, so no landmark code
  runs under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

from repro.core.dominance import SkybandSet
from repro.core.spec import CompiledQuery
from repro.core.stats import SearchStats
from repro.graph.contraction import (
    CHDistanceOracle,
    ContractionHierarchy,
    shared_bucket,
)
from repro.graph.dijkstra import bounded_dijkstra, multi_source_min_distance
from repro.graph.landmarks import LandmarkIndex, Profile
from repro.graph.road_network import RoadNetwork

#: relative slack absorbing float accumulation noise (see :func:`shaved`)
_EPS = 1e-9

#: target bucket kind of each leg family
_BUCKET_KIND = {"ls": "cands", "lp": "perfect"}


def shaved(value: float) -> float:
    """Robust lower bound on a CH distance ``value``.

    CH sums associate differently from the search's left-to-right
    accumulation, so the float can exceed the length the search reaches
    by a few ULPs — enough to prune a route that ties a threshold
    exactly.  Shaving by a relative epsilon keeps every bound strictly
    safe while costing ~1e-9 of pruning power.  ``inf`` stays ``inf``:
    unreachability is exact set logic, not arithmetic.
    """
    if value == math.inf:
        return value
    return value - _EPS * value


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
    """

    suffix_ls: list[float]
    suffix_lp: list[float]
    remaining_best_np: list[float | None]
    dest_min: float = 0.0
    legs_ls: list[float] = field(default_factory=list)
    legs_lp: list[float] = field(default_factory=list)
    #: per-position ALT profiles over the restricted candidate sets
    #: (``None`` without landmarks); advisory — not serialized, and
    #: recomputed with the bounds on resume
    position_profiles: list[Profile | None] | None = None

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
) -> LowerBounds:
    """Algorithm 4 — compute ``l_s``/``l_p`` legs and their suffixes.

    Takes at most one of ``landmarks`` and ``ch`` (see the module
    docstring).  ``landmarks`` sharpens each Dijkstra leg with the ALT
    set-to-set bound and attaches per-position candidate profiles for
    BSSR's per-route next-leg floor.

    ``ch`` replaces the multi-source Dijkstras outright: each leg
    becomes the **exact** set-to-set minimum distance over the *full*
    candidate sets, served by one multi-source upward sweep against the
    target set's hub bucket.  Full-set minima can only under- (never
    over-) state the restricted ones, so they stay valid lower bounds;
    they are also never radius-truncated, which is where they beat the
    Dijkstra values, so the l̄(ϕ)-ball Dijkstra is skipped entirely.
    Buckets depend only on the target sets and are memoized on the
    hierarchy (``shared_cache``, a
    :class:`~repro.core.distcache.DistanceCache`, only counts their
    traffic) — a warm query skips every downward sweep.  Each CH value
    is :func:`shaved` before use.
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
    if ch is not None or radius == math.inf:

        def restrict(vids):
            return vids

    elif landmarks is not None:
        # ALT replaces the exact ball: lb(start, v) > radius implies
        # d(start, v) > radius, so this keeps a superset of the ball —
        # legs over supersets are weaker but still valid lower bounds,
        # and the l̄(ϕ)-ball Dijkstra is skipped entirely.
        within = landmarks.restrict_within

        def restrict(vids):
            return within(start, vids, radius)

    else:
        ball = bounded_dijkstra(network, start, radius)

        def restrict(vids):
            return [v for v in vids if v in ball]

    candidate_sets = [restrict(spec.sim_map) for spec in specs]
    profiles: list[Profile | None] | None = None
    if landmarks is not None:
        profiles = [landmarks.profile(c) for c in candidate_sets]
        bounds.position_profiles = profiles

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
                return shaved(ch.memo_min(
                    (kind, src_key, tgt_key), src_key, sources, bucket
                ))
            return shaved(ch.min_from_set(sources, bucket))
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
            bounds.dest_min = shaved(dest_min)
        else:
            bounds.dest_min = min(
                (dest_dist.get(p, math.inf) for p in last_candidates),
                default=math.inf,
            )

    if stats is not None:
        stats.bounds_time = perf_counter() - started
        stats.sum_ls = bounds.suffix_ls[1]
        stats.sum_lp = bounds.suffix_lp[1]
    return bounds

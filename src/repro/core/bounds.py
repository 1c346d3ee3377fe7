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

Both are computed with the multi-source multi-destination Dijkstra
(Lemma 5.9), with candidate sets restricted to the ``l̄(ϕ)`` ball around
the start (Algorithm 4 lines 3–4): PoIs farther than the best perfect
route are unreachable by any non-pruned route.  Radius-truncated
searches return the radius — still a valid lower bound.

With a :class:`~repro.graph.landmarks.LandmarkIndex` supplied
(``BSSROptions.use_landmarks``), two sharpenings apply on top:

* each leg is maxed with the ALT set-to-set bound over the same
  restricted candidate sets — it can exceed the Dijkstra value exactly
  when the multi-source search was radius-truncated or the sets are
  disconnected;
* per-position candidate *profiles* (landmark-table extremes over each
  restricted set) are retained on the result, letting BSSR's pruning
  test bound the next leg from the concrete last vertex of each
  partial route — including the start → position-0 leg, which the
  per-leg family cannot see at all.

Profiles are advisory and never serialized; a restored checkpoint
recomputes them with the bounds on its next resume.
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
from repro.graph.landmarks import LandmarkIndex, Profile, _shaved
from repro.graph.road_network import RoadNetwork


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

    ``landmarks`` optionally sharpens each leg with the ALT set-to-set
    bound and attaches per-position candidate profiles for BSSR's
    per-route next-leg floor (see the module docstring).

    ``ch`` (``BSSROptions.use_contraction``) replaces the multi-source
    Dijkstras outright: each leg becomes the **exact** set-to-set
    minimum distance over the *full* candidate sets, served by one
    multi-source upward sweep against the target set's hub bucket.
    Full-set minima can only under- (never over-) state the restricted
    ones, so they stay valid lower bounds; they are also never
    radius-truncated, which is where they beat the Dijkstra values.
    Buckets depend only on the target sets and are memoized on the
    hierarchy (``shared_cache``, a
    :class:`~repro.core.distcache.DistanceCache`, only counts their
    traffic) — a warm query skips every downward sweep.  CH sums
    associate differently from the search's left-to-right accumulation,
    so each value is eps-shaved exactly like the ALT bounds before use.
    With CH (and no landmark restriction in play) the l̄(ϕ)-ball
    Dijkstra is skipped entirely.
    """
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
    ball: dict[int, float] | None = None
    if radius < math.inf and landmarks is None and ch is None:
        # With CH the legs are exact over the full sets and never
        # radius-truncated, so the ball buys nothing worth its Dijkstra.
        ball = bounded_dijkstra(network, query.start, radius)

    if radius < math.inf and landmarks is not None:
        # ALT replaces the exact ball: lb(start, v) > radius implies
        # d(start, v) > radius, so this keeps a superset of the ball —
        # legs over supersets are weaker but still valid lower bounds,
        # and the l̄(ϕ)-ball Dijkstra is skipped entirely.
        start = query.start
        within = landmarks.restrict_within

        def restrict(vids) -> list[int]:
            return within(start, vids, radius)

    else:

        def restrict(vids) -> list[int]:
            if ball is None:
                return list(vids)
            return [v for v in vids if v in ball]

    candidate_sets = [restrict(spec.sim_map) for spec in specs]
    profiles: list[Profile | None] | None = None
    if landmarks is not None:
        profiles = [landmarks.profile(c) for c in candidate_sets]
        bounds.position_profiles = profiles

    legs_ls: list[float] = []
    legs_lp: list[float] = []
    for j in range(n - 1):
        sources = candidate_sets[j]
        if ch is not None:
            # Exact set-to-set minimum over the *full* source and target
            # sets: both sides are then query-independent, so the value
            # is a per-network constant the hierarchy memoizes — after
            # the first query a CH leg costs a dict lookup.  Full-set
            # minima only under-state restricted ones (still valid), and
            # the ALT max below restores per-query tightness.
            bucket = shared_bucket(
                ch, shared_cache, "cands",
                specs[j + 1].share_key, specs[j + 1].sim_map,
            )
            src_key = specs[j].share_key
            tgt_key = specs[j + 1].share_key
            if src_key is not None and tgt_key is not None:
                leg = ch.memo_min(
                    ("ls", src_key, tgt_key), specs[j].sim_map, bucket
                )
                if sources and len(sources) < len(specs[j].sim_map):
                    # The l̄(ϕ) ball restricted the source side; the
                    # min of the per-vertex exact floors over just the
                    # surviving sources is tighter than the full-set
                    # constant, and each floor is a memoized dict
                    # lookup (shared with BSSR's per-route floor).
                    leg = max(
                        leg,
                        min(
                            ch.vertex_min(
                                "cands", tgt_key, u, specs[j + 1].sim_map
                            )
                            for u in sources
                        ),
                    )
            else:
                leg = ch.min_from_set(sources, bucket)
            leg = _shaved(leg, 0.0)
        else:
            sem_targets = candidate_sets[j + 1]
            leg = multi_source_min_distance(
                network, sources, sem_targets, radius=radius
            )
        if profiles is not None:
            alt = landmarks.min_between(profiles[j], profiles[j + 1])
            if alt > leg:
                leg = alt
        legs_ls.append(leg)
        if perfect_enabled:
            if ch is not None:
                pbucket = shared_bucket(
                    ch, shared_cache, "perfect",
                    specs[j + 1].share_key, specs[j + 1].perfect,
                )
                if src_key is not None and tgt_key is not None:
                    leg_p = ch.memo_min(
                        ("lp", src_key, tgt_key), specs[j].sim_map, pbucket
                    )
                    if sources and len(sources) < len(specs[j].sim_map):
                        leg_p = max(
                            leg_p,
                            min(
                                ch.vertex_min(
                                    "perfect",
                                    tgt_key,
                                    u,
                                    specs[j + 1].perfect,
                                )
                                for u in sources
                            ),
                        )
                else:
                    leg_p = ch.min_from_set(sources, pbucket)
                leg_p = _shaved(leg_p, 0.0)
                if profiles is not None:
                    alt_p = landmarks.min_between(
                        profiles[j],
                        landmarks.profile(restrict(specs[j + 1].perfect)),
                    )
                    if alt_p > leg_p:
                        leg_p = alt_p
            else:
                perfect_targets = restrict(specs[j + 1].perfect)
                leg_p = multi_source_min_distance(
                    network, sources, perfect_targets, radius=radius
                )
                if profiles is not None:
                    alt_p = landmarks.min_between(
                        profiles[j], landmarks.profile(perfect_targets)
                    )
                    if alt_p > leg_p:
                        leg_p = alt_p
            legs_lp.append(leg_p)
        else:
            legs_lp.append(0.0)

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
                    specs[n - 1].sim_map,
                    dest_dist.bucket,
                )
            else:
                dest_min = ch.min_from_set(last_candidates, dest_dist.bucket)
            bounds.dest_min = _shaved(dest_min, 0.0)
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

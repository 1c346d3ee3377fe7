"""Exhaustive SkySR oracle — ground truth for the correctness tests.

Enumerates *every* sequenced route (Definition 3.4: one semantically
matching PoI per position, all PoIs distinct), scores each with exact
shortest-path distances, and skyline-filters.  Exponential in the
sequence size; usable only on the small randomized instances the test
suite generates, which is precisely its job.

Unlike the naive super-sequence baseline this oracle is exact for
*every* similarity measure, aggregator, and requirement type, because
it never reasons about generalization levels — it scores concrete
routes directly, exactly as the problem statement does.
"""

from __future__ import annotations

import math

from repro.core.dominance import skyline_filter
from repro.core.routes import SkylineRoute
from repro.core.spec import CompiledQuery
from repro.graph.dijkstra import dijkstra
from repro.graph.road_network import RoadNetwork
from repro.semantics.scoring import DEFAULT_AGGREGATOR, SemanticAggregator


def enumerate_sequenced_routes(
    network: RoadNetwork,
    query: CompiledQuery,
    *,
    aggregator: SemanticAggregator | None = None,
) -> list[SkylineRoute]:
    """All sequenced routes (not just the skyline) — test helper."""
    aggregator = aggregator or DEFAULT_AGGREGATOR
    n = query.size
    specs = query.specs
    if any(not spec.sim_map for spec in specs):
        return []
    dist_cache: dict[int, dict[int, float]] = {}

    def distances_from(vid: int) -> dict[int, float]:
        found = dist_cache.get(vid)
        if found is None:
            found = dijkstra(network, vid)  # type: ignore[assignment]
            dist_cache[vid] = found  # type: ignore[assignment]
        return found  # type: ignore[return-value]

    dest_dist: dict[int, float] | None = None
    if query.destination is not None:
        dest_dist = dijkstra(network, query.destination, reverse=True)  # type: ignore[assignment]
    out: list[SkylineRoute] = []

    def recurse(position, last, length, state, pois, sims) -> None:
        if position == n:
            total = length
            if dest_dist is not None:
                leg = dest_dist.get(pois[-1], math.inf)
                if leg == math.inf:
                    return
                total = length + leg
            out.append(
                SkylineRoute(
                    pois=pois,
                    length=total,
                    semantic=aggregator.score(state),
                    sims=sims,
                )
            )
            return
        source_map = (
            distances_from(query.start) if last is None else distances_from(last)
        )
        for vid, sim in specs[position].sim_map.items():
            if vid in pois:
                continue
            d = source_map.get(vid, math.inf)
            if d == math.inf:
                continue
            recurse(
                position + 1,
                vid,
                length + d,
                aggregator.extend(state, sim),
                pois + (vid,),
                sims + (sim,),
            )

    recurse(0, None, 0.0, aggregator.initial(n), (), ())
    return out


def brute_force_skysr(
    network: RoadNetwork,
    query: CompiledQuery,
    *,
    aggregator: SemanticAggregator | None = None,
) -> list[SkylineRoute]:
    """All skyline sequenced routes by exhaustive enumeration."""
    return skyline_filter(
        enumerate_sequenced_routes(network, query, aggregator=aggregator)
    )

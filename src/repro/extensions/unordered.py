"""Skyline trip planning without category order (Section 6).

"For searching routes without category order, the proposed algorithm
searches PoI vertices that semantically match a category in a given set
of categories.  Then, if the algorithm finds PoI vertices, it deletes
the categories that are already included in the routes to find next PoI
vertices."

The search mirrors BSSR's branch-and-bound: partial routes carry the
set of positions still uncovered; one Dijkstra per expansion emits
every PoI matching any uncovered position; the skyline set's threshold
prunes.  Like BSSR's candidate search (:mod:`repro.core.search`), it
does not apply Lemma 5.5's substitution filters, which would lose
routes here too; exactness is verified against a permutation brute
force.

The semantic score of an unordered route aggregates the similarity of
each PoI under the position it covers; the product (Eq. 7), min, and
mean aggregators are all order-independent, so scores are well-defined.
"""

from __future__ import annotations

import heapq
import itertools
import math
from time import perf_counter

from repro.core.dominance import SkylineSet, skyline_filter
from repro.core.routes import PartialRoute, SkylineRoute
from repro.core.spec import CompiledQuery
from repro.core.stats import SearchStats
from repro.graph.dijkstra import dijkstra
from repro.graph.road_network import RoadNetwork
from repro.semantics.scoring import DEFAULT_AGGREGATOR, SemanticAggregator


def run_unordered_skysr(
    network: RoadNetwork,
    query: CompiledQuery,
    *,
    aggregator: SemanticAggregator | None = None,
    seed_with_greedy: bool = True,
) -> tuple[list[SkylineRoute], SearchStats]:
    """Skyline trip-planning query (unordered categories)."""
    aggregator = aggregator or DEFAULT_AGGREGATOR
    stats = SearchStats(algorithm="unordered-bssr")
    started = perf_counter()
    skyline = SkylineSet()
    n = query.size
    specs = query.specs
    if any(not spec.sim_map for spec in specs):
        stats.elapsed = perf_counter() - started
        return [], stats

    if seed_with_greedy:
        _greedy_seed(network, query, aggregator, skyline, stats)

    serial = itertools.count()
    # queue entries: (priority, #, partial route, frozenset of open positions)
    heap: list[tuple[tuple, int, PartialRoute, frozenset[int]]] = []

    def push(route: PartialRoute, open_positions: frozenset[int]) -> None:
        key = (-route.size, route.semantic, route.length)
        heapq.heappush(heap, (key, next(serial), route, open_positions))
        stats.routes_enqueued += 1
        stats.max_queue_size = max(stats.max_queue_size, len(heap))

    def expand(route: PartialRoute, open_positions: frozenset[int]) -> None:
        source = route.pois[-1] if route.pois else query.start
        dist: dict[int, float] = {source: 0.0}
        local_heap: list[tuple[float, int]] = [(0.0, source)]
        settled: set[int] = set()
        stats.mdijkstra_runs += 1
        while local_heap:
            d, u = heapq.heappop(local_heap)
            if u in settled:
                continue
            if route.length + d >= skyline.threshold(route.semantic):
                break  # Lemma 5.3: nothing farther can beat the threshold
            settled.add(u)
            stats.settled += 1
            if u not in route.pois:
                for position in open_positions:
                    sim = specs[position].sim_map.get(u)
                    if sim is None:
                        continue
                    state = aggregator.extend(route.sem_state, sim)
                    semantic = aggregator.score(state)
                    length = route.length + d
                    pois = route.pois + (u,)
                    sims = route.sims + (sim,)
                    if len(pois) == n:
                        skyline.update(
                            SkylineRoute(
                                pois=pois,
                                length=length,
                                semantic=semantic,
                                sims=sims,
                            )
                        )
                    elif length < skyline.threshold(semantic):
                        push(
                            PartialRoute(
                                pois=pois,
                                length=length,
                                semantic=semantic,
                                sem_state=state,
                                sims=sims,
                            ),
                            open_positions - {position},
                        )
                    else:
                        stats.routes_pruned_on_insert += 1
            for v, w in network.neighbors(u):
                stats.relaxed += 1
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(local_heap, (nd, v))

    empty = PartialRoute(
        pois=(), length=0.0, semantic=0.0,
        sem_state=aggregator.initial(n), sims=(),
    )
    expand(empty, frozenset(range(n)))
    while heap:
        _, _, route, open_positions = heapq.heappop(heap)
        if route.length >= skyline.threshold(route.semantic):
            stats.routes_pruned_on_pop += 1
            continue
        stats.routes_expanded += 1
        expand(route, open_positions)

    stats.elapsed = perf_counter() - started
    stats.result_size = len(skyline)
    stats.skyline_updates = skyline.updates
    stats.skyline_rejects = skyline.rejects
    return skyline.routes(), stats


def _greedy_seed(
    network: RoadNetwork,
    query: CompiledQuery,
    aggregator: SemanticAggregator,
    skyline: SkylineSet,
    stats: SearchStats,
) -> None:
    """Greedy nearest-perfect chain over uncovered positions.

    The unordered analogue of NNinit: repeatedly walk to the closest
    perfect match of *any* uncovered position.  Produces one semantic-
    score-0 seed when every position has a reachable perfect match.
    """
    n = query.size
    specs = query.specs
    open_positions = set(range(n))
    source = query.start
    length = 0.0
    pois: list[int] = []
    sims: list[float] = []
    state = aggregator.initial(n)
    while open_positions:
        dist: dict[int, float] = {source: 0.0}
        heap: list[tuple[float, int]] = [(0.0, source)]
        settled: set[int] = set()
        found: tuple[float, int, int] | None = None
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            stats.settled += 1
            if u not in pois:
                hit = next(
                    (
                        position
                        for position in open_positions
                        if u in specs[position].perfect
                    ),
                    None,
                )
                if hit is not None:
                    found = (d, u, hit)
                    break
            for v, w in network.neighbors(u):
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        if found is None:
            return  # some position lacks a reachable perfect match
        d, u, position = found
        length += d
        pois.append(u)
        sims.append(1.0)
        state = aggregator.extend(state, 1.0)
        open_positions.remove(position)
        source = u
    skyline.update(
        SkylineRoute(
            pois=tuple(pois),
            length=length,
            semantic=aggregator.score(state),
            sims=tuple(sims),
        )
    )
    stats.init_routes += 1


def brute_force_unordered(
    network: RoadNetwork,
    query: CompiledQuery,
    *,
    aggregator: SemanticAggregator | None = None,
) -> list[SkylineRoute]:
    """Permutation brute force — the unordered oracle for tests."""
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

    routes: list[SkylineRoute] = []

    def recurse(order, position, last, length, state, pois, sims) -> None:
        if position == n:
            routes.append(
                SkylineRoute(
                    pois=pois,
                    length=length,
                    semantic=aggregator.score(state),
                    sims=sims,
                )
            )
            return
        spec = specs[order[position]]
        source_map = (
            distances_from(query.start) if last is None else distances_from(last)
        )
        for vid, sim in spec.sim_map.items():
            if vid in pois:
                continue
            d = source_map.get(vid, math.inf)
            if d == math.inf:
                continue
            recurse(
                order,
                position + 1,
                vid,
                length + d,
                aggregator.extend(state, sim),
                pois + (vid,),
                sims + (sim,),
            )

    for order in itertools.permutations(range(n)):
        recurse(order, 0, None, 0.0, aggregator.initial(n), (), ())
    return skyline_filter(routes)

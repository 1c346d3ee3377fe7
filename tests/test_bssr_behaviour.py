"""BSSR behavioural details beyond score parity: stats semantics,
cache reuse patterns, dynamic threshold tightening, |S_q| = 1 queries."""

import pytest

from repro.core.bssr import run_bssr
from repro.core.options import BSSROptions
from repro.core.spec import compile_query
from repro.graph.poi import PoIIndex
from repro.graph.road_network import RoadNetwork
from repro.semantics.similarity import HierarchyWuPalmer

from .conftest import pick_query, random_instance, score_set, small_forest


def test_single_position_query():
    """|S_q| = 1: the skyline over single-PoI routes."""
    forest = small_forest()
    net = RoadNetwork()
    start = net.add_vertex()
    near_weak = net.add_poi(forest.resolve("Italian"))  # sim 0.5 for Ramen
    far_perfect = net.add_poi(forest.resolve("Ramen"))
    net.add_edge(start, near_weak, 1.0)
    net.add_edge(near_weak, far_perfect, 3.0)
    index = PoIIndex(net, forest)
    compiled = compile_query(start, ["Ramen"], index, HierarchyWuPalmer())
    routes, stats = run_bssr(net, compiled)
    assert score_set(routes) == {(1.0, 0.5), (4.0, 0.0)}
    assert stats.result_size == 2


def test_start_on_matching_poi_gives_zero_length_route():
    forest = small_forest()
    net = RoadNetwork()
    poi = net.add_poi(forest.resolve("Ramen"))
    other = net.add_poi(forest.resolve("Gift"))
    net.add_edge(poi, other, 2.0)
    index = PoIIndex(net, forest)
    compiled = compile_query(poi, ["Ramen", "Gift"], index, HierarchyWuPalmer())
    routes, _ = run_bssr(net, compiled)
    assert score_set(routes) == {(2.0, 0.0)}
    assert routes[0].pois == (poi, other)


def test_cache_hits_counted_for_repeated_sources():
    """Two surviving size-2 prefixes ending at the same museum PoI
    share (resume) one cached position-3 search."""
    forest = small_forest()
    net = RoadNetwork()
    start = net.add_vertex()
    r1 = net.add_poi(forest.resolve("Ramen"))     # perfect, farther
    r2 = net.add_poi(forest.resolve("Italian"))   # sim 0.5, nearer
    hub = net.add_poi(forest.resolve("Museum"))
    hobby = net.add_poi(forest.resolve("Hobby"))  # sim 2/3 for Gift
    gift = net.add_poi(forest.resolve("Gift"))
    net.add_edge(start, r1, 2.0)
    net.add_edge(start, r2, 1.0)
    net.add_edge(r1, hub, 1.0)
    net.add_edge(r2, hub, 1.0)
    net.add_edge(hub, hobby, 1.0)
    net.add_edge(hub, gift, 2.0)
    index = PoIIndex(net, forest)
    compiled = compile_query(
        start, ["Ramen", "Museum", "Gift"], index, HierarchyWuPalmer()
    )
    routes, with_cache = run_bssr(net, compiled)
    # three-route skyline: (3, 2/3), (4, 1/3), (5, 0)
    assert score_set(routes) == {
        (3.0, round(2 / 3, 9)),
        (4.0, round(1 / 3, 9)),
        (5.0, 0.0),
    }
    _, no_cache = run_bssr(net, compiled, options=BSSROptions(caching=False))
    # both ⟨r1,hub⟩ and ⟨r2,hub⟩ expand position 3 from the same hub
    assert with_cache.cache_hits >= 1
    assert with_cache.mdijkstra_runs < no_cache.mdijkstra_runs


def test_queue_counters_consistent():
    for seed in range(6):
        network, forest, rng = random_instance(seed, num_pois=12)
        query = pick_query(network, forest, rng, 3)
        if query is None:
            continue
        start, cats = query
        index = PoIIndex(network, forest)
        compiled = compile_query(start, cats, index, HierarchyWuPalmer())
        _, stats = run_bssr(network, compiled)
        popped = stats.routes_expanded + stats.routes_pruned_on_pop
        assert popped == stats.routes_enqueued  # queue fully drained
        # every queue entry, a route or a cursor, draws a serial
        assert stats.max_queue_size <= (
            stats.routes_enqueued + stats.routes_continued
        )
        assert stats.skyline_updates >= stats.result_size


def test_first_radius_zero_when_first_position_adjacent():
    forest = small_forest()
    net = RoadNetwork()
    poi = net.add_poi(forest.resolve("Ramen"))
    gift = net.add_poi(forest.resolve("Gift"))
    net.add_edge(poi, gift, 1.0)
    index = PoIIndex(net, forest)
    compiled = compile_query(poi, ["Ramen", "Gift"], index, HierarchyWuPalmer())
    _, stats = run_bssr(net, compiled)
    # the first search stops right at the perfect source PoI
    assert stats.first_search_radius == 0.0


def test_threshold_tightens_during_first_search():
    """A complete route found mid-search shrinks the ongoing budget:
    with |S_q| = 1, far candidates dominated by near ones are never
    settled at all."""
    forest = small_forest()
    net = RoadNetwork()
    start = net.add_vertex()
    near = net.add_poi(forest.resolve("Ramen"))
    chain = [near]
    for _ in range(5):
        nxt = net.add_poi(forest.resolve("Ramen"))
        net.add_edge(chain[-1], nxt, 1.0)
        chain.append(nxt)
    net.add_edge(start, near, 1.0)
    index = PoIIndex(net, forest)
    compiled = compile_query(start, ["Ramen"], index, HierarchyWuPalmer())
    routes, stats = run_bssr(
        net, compiled, options=BSSROptions(initial_search=False)
    )
    # only the nearest perfect match survives; the rest were never
    # reached because the threshold collapsed to its length
    assert score_set(routes) == {(1.0, 0.0)}
    assert stats.settled <= 3  # start + near (+ maybe one frontier pop)

"""BSSR's expansion loop does the same work on every path.

There is one search: :func:`~repro.core.bssr.run_bssr` is
``BSSRSearch(...).run()``.  Parking a cut child or completion under its
parent may not change what is searched — routes and every work counter
must equal a directly built search's, queue serials are drawn by queue
entries only, and a pinned set of counters catches any change in pop
order.
"""

import pytest

from repro import SkySREngine
from repro.baselines.topk import brute_force_skyband
from repro.core.bssr import BSSRSearch, run_bssr
from repro.core.options import BSSROptions
from repro.datasets import generate_workload, tokyo_like

from .conftest import pick_query, random_instance

#: every counter of the expansion loop, the skyband and the streams
WORK_COUNTERS = (
    "routes_expanded",
    "routes_enqueued",
    "routes_pruned_on_pop",
    "routes_pruned_on_insert",
    "skyline_updates",
    "skyline_rejects",
    "settled",
    "relaxed",
    "heap_pushes",
    "mdijkstra_runs",
    "max_queue_size",
)

OPTION_SETS = {
    "default": BSSROptions(),
    "no-cache": BSSROptions(caching=False),
    "ch": BSSROptions(use_contraction=True),
}


def _work(stats) -> dict:
    return {name: getattr(stats, name) for name in WORK_COUNTERS}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", list(OPTION_SETS))
@pytest.mark.parametrize("seed", range(10))
def test_one_shot_and_checkpointable_runs_count_the_same_work(seed, name, k):
    network, forest, rng = random_instance(seed, num_pois=12)
    start, cats = pick_query(network, forest, rng, 3, distinct_trees=False)
    destination = rng.randrange(network.num_vertices)
    engine = SkySREngine(network, forest)
    options = OPTION_SETS[name].but(k=k)
    for dest in (None, destination):
        compiled = engine.compile(start, cats, destination=dest)
        # the hierarchy's memos charge their first build to whichever
        # search touches them first: warm them before comparing
        run_bssr(network, compiled, options=options)
        one_shot, one_stats = run_bssr(network, compiled, options=options)
        search = BSSRSearch(network, compiled, options=options)
        full, full_stats = search.run()
        assert one_shot == full
        assert _work(one_stats) == _work(full_stats)
        # serials are drawn by queue entries only, a route's or a
        # cursor's (each cursor entry pops once, as a continuation): a
        # cut child is parked under its parent as (PoI, length), not
        # built
        assert search.state.serial == (
            full_stats.routes_enqueued + full_stats.routes_continued
        )


#: WORK_COUNTERS of each query, in order, on a fresh tokyo_like(0.12);
#: under CH the settles are the hierarchy's first-touch memo builds.
#: Default-path streams past position 0 run on the to-go rows, so a
#: child whose floor passes its parent's threshold is never emitted,
#: let alone cut on insert; and every similarity level is read only up
#: to its own budget, so neither is a child or completion whose floor
#: passes the threshold at its own semantic score.  Below the final
#: position a cursor hands the children out one at a time, each read at
#: the thresholds of its own turn, and each is popped right after it is
#: queued: so no route is pruned on pop, and the queue holds one route
#: at a time besides the cursors, one per position below the final
#: (``max_queue_size`` counts both, so it reads |Sq| = 3).
GOLDEN_WORK = {
    "default": [
        (7, 7, 0, 6, 2, 2, 308, 1186, 353, 8, 3),
        (41, 41, 0, 2, 9, 6, 4586, 17390, 5918, 32, 3),
        (8, 8, 0, 1, 6, 6, 972, 3701, 793, 7, 3),
        (7, 7, 0, 5, 4, 3, 2149, 8065, 1892, 7, 3),
        (17, 17, 0, 4, 14, 24, 2786, 10481, 2626, 12, 3),
        (4, 4, 0, 0, 2, 1, 234, 880, 118, 4, 3),
    ],
    "ch": [
        (11, 11, 0, 14, 3, 2, 1361, 7809, 0, 0, 3),
        (45, 45, 0, 46, 12, 8, 1931, 11165, 0, 0, 3),
        (9, 9, 0, 2, 6, 8, 326, 1859, 0, 0, 3),
        (10, 10, 0, 7, 8, 3, 530, 2875, 0, 0, 3),
        (17, 17, 0, 6, 14, 24, 173, 991, 0, 0, 3),
        (5, 5, 0, 1, 2, 1, 384, 2088, 0, 0, 3),
    ],
}


@pytest.mark.parametrize("name", list(GOLDEN_WORK))
def test_work_counters_are_pinned(name):
    """Counters of six one-shot queries; any change in which routes
    are popped, pruned or offered moves at least one of them."""
    dataset = tokyo_like(scale=0.12)
    queries = generate_workload(dataset, 3, 6, seed=7)
    engine = SkySREngine(dataset.network, dataset.forest)
    found = [
        tuple(
            _work(
                engine.query(
                    q.start, list(q.categories), options=OPTION_SETS[name]
                ).stats
            ).values()
        )
        for q in queries
    ]
    assert found == GOLDEN_WORK[name]


@pytest.mark.parametrize(
    "options",
    [
        BSSROptions(use_landmarks=True, k=5),
        BSSROptions(k=5),
        BSSROptions(use_contraction=True, k=5),
    ],
    ids=["alt", "default", "ch"],
)
def test_k5_never_returns_one_poi_tuple_twice(options):
    """Regression: ``use_landmarks=True, k=5`` used to return one route
    twice (two copies of a PoI tuple an ULP apart in length).  No tuple
    repeats in the skyband of 60 queries under any option set."""
    dataset = tokyo_like(scale=0.12)
    engine = SkySREngine(dataset.network, dataset.forest)
    for q in generate_workload(dataset, 3, 60, seed=7):
        result = engine.query(q.start, list(q.categories), options=options)
        band = [r.pois for r in result.skyband]
        assert len(band) == len(set(band)), (q.start, q.categories)


def _dead_end_network(with_b1: bool = True):
    """Directed: ``s`` reaches Ramen PoIs a1, a2, Gift PoIs b1, b2 and
    the Jazz PoI c1, and each reaches ``s`` back, except b2: a one-way
    dead end, so no route through it can be completed."""
    from repro.graph.road_network import RoadNetwork

    from .conftest import small_forest

    forest = small_forest()
    net = RoadNetwork(directed=True)
    s = net.add_vertex()
    pois = {}
    for name, category, weight in [
        ("a1", "Ramen", 1.0),
        ("a2", "Ramen", 2.0),
        ("b1", "Gift", 1.0),
        ("c1", "Jazz", 1.0),
    ]:
        if name == "b1" and not with_b1:
            continue
        pois[name] = net.add_poi(forest.resolve(category))
        net.add_edge(s, pois[name], weight)
        net.add_edge(pois[name], s, weight)
    pois["b2"] = net.add_poi(forest.resolve("Gift"))
    net.add_edge(s, pois["b2"], 1.0)
    return net, forest, s


@pytest.mark.parametrize(
    "options",
    [BSSROptions(k=20), BSSROptions(use_contraction=True, k=20)],
    ids=["default", "ch"],
)
def test_an_infinite_floor_prunes_under_an_infinite_threshold(options):
    """Two routes exist, so at k = 20 every threshold stays infinite.
    ⟨a1, b2⟩ and ⟨a2, b2⟩ have infinite floors (b2 reaches no Jazz
    PoI), so they are never popped.  Under CH they are pruned on
    insert; on the default path the position-1 stream runs on the
    to-go row, where b2's key is infinite, so it never emits b2.  Only
    ⟨a1⟩, ⟨a2⟩, ⟨a1, b1⟩ and ⟨a2, b1⟩ are expanded."""
    net, forest, s = _dead_end_network()
    engine = SkySREngine(net, forest)
    compiled = engine.compile(s, ["Ramen", "Gift", "Jazz"])
    search = BSSRSearch(net, compiled, options=options)
    routes, stats = search.run()
    assert [r.length for r in routes] == [5.0, 7.0]
    assert stats.routes_expanded == 4
    if options.use_contraction:
        assert stats.routes_pruned_on_insert == 2
    else:
        assert stats.routes_pruned_on_insert == 0
        # a1 and b1 are the first Ramen and Gift PoIs added
        a1 = min(compiled.specs[0].sim_map)
        b1 = min(compiled.specs[1].sim_map)
        assert list(search.state.cache[(a1, 1)].candidates) == [b1]


@pytest.mark.parametrize(
    "options",
    [BSSROptions(), BSSROptions(use_contraction=True)],
    ids=["default", "ch"],
)
def test_no_stream_is_read_when_no_route_can_complete(options):
    """Without b1 no Gift PoI reaches a Jazz PoI, so the floor on
    everything after position 0 is infinite: the search reads no
    stream and builds no child."""
    net, forest, s = _dead_end_network(with_b1=False)
    engine = SkySREngine(net, forest)
    result = engine.query(s, ["Ramen", "Gift", "Jazz"], options=options)
    assert result.routes == []
    assert result.stats.routes_enqueued == 0
    assert result.stats.routes_pruned_on_insert == 0


def _sibling_network(with_a2: bool = True):
    """Undirected: ``s`` reaches Ramen PoIs a1 and a2 at 1 and a3 at 2;
    a1 reaches the Gift PoI b1 at 1, a2 the Gift PoI b2 at 3, and a3
    the Gift PoI b3 at 1 (so every Ramen PoI's to-go value is 1, but
    a2's, which is 3)."""
    from repro.graph.road_network import RoadNetwork

    from .conftest import small_forest

    forest = small_forest()
    net = RoadNetwork()
    s = net.add_vertex()
    pois = {}
    for name, gift, weight, leg in [
        ("a1", "b1", 1.0, 1.0),
        ("a2", "b2", 1.0, 3.0),
        ("a3", "b3", 2.0, 1.0),
    ]:
        if name == "a2" and not with_a2:
            continue
        pois[name] = net.add_poi(forest.resolve("Ramen"))
        pois[gift] = net.add_poi(forest.resolve("Gift"))
        net.add_edge(s, pois[name], weight)
        net.add_edge(pois[name], pois[gift], leg)
    return net, forest, s, pois


def _triples(routes):
    return [(r.pois, r.length, r.semantic) for r in routes]


def test_a_sibling_is_read_at_the_thresholds_of_its_own_turn():
    """a1 and a2 tie at distance 1, so the empty route's cursor hands
    out ⟨a1⟩ first (by vertex id).  ⟨a1⟩'s subtree completes ⟨a1, b1⟩ at
    length 2 before the cursor pops again, which drops the threshold
    from infinity to 2.  Then a2 is read (its key 1 is within the budget
    2 − 1, position 0's reserve being the least to-go value) and cut: its
    floor 1 + 3 exceeds 2.  It is parked under the empty route as a
    ``(PoI, length)`` pair and never built, so ⟨a1⟩ is the only route
    queued; a3 (key 2) is past the budget and never read.  Built when
    the empty route was first expanded, at an infinite threshold, ⟨a2⟩
    and ⟨a3⟩ would have been queued and pruned on pop."""
    net, forest, s, pois = _sibling_network()
    compiled = SkySREngine(net, forest).compile(s, ["Ramen", "Gift"])
    search = BSSRSearch(
        net, compiled, options=BSSROptions(initial_search=False)
    )
    routes, stats = search.run()
    assert _triples(routes) == _triples(
        brute_force_skyband(net, compiled, 1)
    )
    assert [r.pois for r in routes] == [(pois["a1"], pois["b1"])]
    assert stats.routes_enqueued == 1
    assert stats.routes_pruned_on_insert == 1
    assert stats.routes_pruned_on_pop == 0
    # the empty route, parked where the budget stopped its one level,
    # holding a2 as a cut pair
    parked = [d for d in search.state.deferred if not d.route.pois]
    assert [(d.consumed, d.cut) for d in parked] == [
        ((2,), [(pois["a2"], 1.0)])
    ]

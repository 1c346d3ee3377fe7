"""Goal-directed Algorithm 2: candidate distance fields and the grain.

Under ``lower_bounds`` every modified-Dijkstra stream is an A* whose
potential is the position's candidate distance field.  The stream must
not depend on the field: element for element, and in what it says
about being cut by a budget, it equals the all-zero field's stream —
the paper's plain Algorithm 2.  Edge weights snapped to the 2**-20
grain make that hold bit for bit, and make the default path's lengths
equal the CH path's.
"""

import math
from itertools import pairwise

import pytest

from repro import SkySREngine
from repro.baselines.brute_force import brute_force_skysr
from repro.core.distcache import DistanceCache
from repro.core.options import BSSROptions
from repro.core.search import PoICandidateSearch, candidate_field
from repro.core.session import PlanningSession
from repro.datasets import generate_workload, tokyo_like
from repro.errors import GraphError
from repro.extensions.predicates import AnyOf
from repro.graph.dijkstra import dijkstra, distance_field
from repro.graph.road_network import MAX_TOTAL_WEIGHT, RoadNetwork

from .conftest import pick_query, random_instance, score_set


def _instance(seed, directed):
    """A random instance with zero-weight chords, so key ties abound."""
    network, forest, rng = random_instance(
        seed, directed=directed, num_pois=12
    )
    n = network.num_vertices
    for _ in range(4):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            network.add_edge(u, v, 0.0)
    return network, forest, rng


def _specs(seed, directed):
    network, forest, rng = _instance(seed, directed)
    engine = SkySREngine(network, forest)
    picked = pick_query(network, forest, rng, 3, distinct_trees=False)
    assert picked is not None
    start, cats = picked
    compiled = engine.compile(start, cats)
    return network, compiled, rng


def _budgets(network, spec, source):
    """Every distance a budget can fall on or between, plus the ends."""
    dist = dijkstra(network, source)
    ds = sorted({dist[v] for v in spec.sim_map if v in dist})
    mids = [(a + b) / 2 for a, b in pairwise(ds)]
    return [0.0, *ds, *mids, ds[-1] + 1.0, math.inf] if ds else [math.inf]


def _view(search, budget):
    """What a consumer sees at the constant ``budget`` (the same at
    every level): the candidates it read, in stream order, where each
    level's segments ended, whether the stream is exhausted, and whether
    BSSR would park the route (the ``_park`` rule)."""
    offsets = [0] * len(search.levels)
    for level, _lo, hi in search.scored_until(
        [lambda: budget] * len(offsets), start=tuple(offsets)
    ):
        offsets[level] = hi
    views = [positions for _, positions in search.levels]
    read = sorted(
        i for positions, offset in zip(views, offsets)
        for i in positions[:offset]
    )
    cut = any(
        offset < len(positions) for positions, offset in zip(views, offsets)
    ) or not search.exhausted
    return (
        [search.dists[i] for i in read],
        [search.candidates[i] for i in read],
        offsets,
        search.exhausted,
        cut,
    )


CASES = [
    pytest.param(
        seed, directed, id=f"{'dir' if directed else 'undir'}-{seed}"
    )
    for seed in range(8)
    for directed in (False, True)
]


@pytest.mark.parametrize("seed, directed", CASES)
def test_field_stream_equals_zero_field_stream_fresh(seed, directed):
    network, compiled, rng = _specs(seed, directed)
    for spec in compiled.specs:
        field = candidate_field(network, spec)
        for source in rng.sample(range(network.num_vertices), 4):
            for budget in _budgets(network, spec, source):
                zero = PoICandidateSearch(network, spec, source)
                goal = PoICandidateSearch(network, spec, source, field=field)
                assert _view(goal, budget) == _view(zero, budget)
                assert goal.dists == zero.dists
                assert goal.candidates == zero.candidates


@pytest.mark.parametrize("seed, directed", CASES)
def test_field_stream_equals_zero_field_stream_resumed(seed, directed):
    """One search driven budget by budget (as the on-the-fly cache
    drives it) answers every budget like a fresh zero-field search, and
    its whole stream is sorted by ``(distance, vertex)``."""
    network, compiled, rng = _specs(seed, directed)
    for spec in compiled.specs:
        field = candidate_field(network, spec)
        for source in rng.sample(range(network.num_vertices), 3):
            goal = PoICandidateSearch(network, spec, source, field=field)
            for budget in sorted(_budgets(network, spec, source)):
                zero = PoICandidateSearch(network, spec, source)
                assert _view(goal, budget) == _view(zero, budget)
            pairs = list(zip(goal.dists, goal.candidates))
            assert pairs == sorted(pairs)
            assert len(pairs) == len(set(goal.candidates))


@pytest.mark.parametrize("seed", range(6))
def test_stream_adopted_from_distance_cache_matches_zero_field(seed):
    """A field-driven search parked in a :class:`DistanceCache` and
    driven further by its next consumer answers like a fresh zero-field
    search at the new budget, and a zero-field search adopted by a
    field-driven consumer likewise."""
    network, compiled, rng = _specs(seed, directed=seed % 2 == 1)
    spec = compiled.specs[1]
    field = candidate_field(network, spec)
    source = rng.randrange(network.num_vertices)
    budgets = sorted(_budgets(network, spec, source))
    for first_field in (field, None):
        cache = DistanceCache(max_entries=4)
        cache.admit(
            network,
            source,
            spec,
            PoICandidateSearch(network, spec, source, field=first_field),
        )
        for budget in budgets:
            adopted = cache.lookup(network, source, spec)
            assert adopted is not None
            zero = PoICandidateSearch(network, spec, source)
            assert _view(adopted, budget) == _view(zero, budget)


@pytest.mark.parametrize("seed", range(8))
def test_engine_answers_equal_with_and_without_fields(seed):
    """Default options (fields on) and ``lower_bounds=False`` (all-zero
    field) give ``==`` routes, one-shot, through a shared cache, and
    page by page across session restores."""
    network, forest, rng = _instance(seed, directed=seed % 2 == 1)
    picked = pick_query(network, forest, rng, 3)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    plain = BSSROptions(lower_bounds=False)
    fresh = SkySREngine(network, forest)
    cached = SkySREngine(
        network, forest, distance_cache=DistanceCache(max_entries=64)
    )
    for k in (1, 3):
        want = fresh.query(start, cats, options=plain.but(k=k)).routes
        goal = fresh.query(start, cats, options=BSSROptions(k=k))
        assert goal.routes == want
        # the second query adopts the first one's searches, field or not
        for options in (plain.but(k=k), BSSROptions(k=k), plain.but(k=k)):
            assert cached.query(start, cats, options=options).routes == want

    live = fresh.session(start, cats, page_size=2)
    zero = fresh.session(start, cats, page_size=2, options=plain)
    payload = fresh.session(start, cats, page_size=2).to_dict()
    for _ in range(3):
        restored = PlanningSession.from_dict(cached, payload)
        page = restored.next_page()
        payload = restored.to_dict()
        assert page.routes == live.next_page().routes
        assert page.routes == zero.next_page().routes


# ----------------------------------------------------------------------
# default == CH, exactly


def _distinct_queries(dataset, size, count, seed):
    """``count`` distinct generated queries, first occurrence order."""
    out: dict = {}
    batch = count
    while len(out) < count:
        for query in generate_workload(dataset, size, batch, seed=seed):
            out.setdefault(query, None)
        seed, batch = seed + 7919, count - len(out)
    return list(out)[:count]


@pytest.mark.parametrize("k", [1, 5])
def test_default_and_ch_routes_are_equal_on_tokyo(k):
    """On the grain every kernel's sums are exact, so the modified
    Dijkstra and CH give ``==`` routes — PoI tuples, lengths and
    similarities — not just the same scores within a rounding (before
    the grain, 40 and 45 of these 60 queries differed by ULPs)."""
    dataset = tokyo_like(scale=0.12)
    engine = SkySREngine(dataset.network, dataset.forest)
    for q in _distinct_queries(dataset, 3, 60, seed=3):
        cats = list(q.categories)
        default = engine.query(q.start, cats, options=BSSROptions(k=k))
        ch = engine.query(
            q.start, cats, options=BSSROptions(k=k, use_contraction=True)
        )
        assert default.routes == ch.routes, (q.start, cats)
        assert default.skyband == ch.skyband, (q.start, cats)


# ----------------------------------------------------------------------
# the field memo


def test_field_is_the_distance_to_the_candidate_set():
    network, compiled, _rng = _specs(3, directed=True)
    spec = compiled.specs[0]
    field = candidate_field(network, spec)
    for v in range(network.num_vertices):
        dist = dijkstra(network, v)
        want = min(
            (dist.get(c, math.inf) for c in spec.sim_map), default=math.inf
        )
        assert field[v] == want


def test_categories_with_one_candidate_set_share_one_field():
    network, forest, rng = random_instance(5, num_pois=12)
    engine = SkySREngine(network, forest)
    start = 0
    # Ramen and Sushi sit in one tree: every Food PoI matches both
    first = engine.compile(start, ["Ramen"]).specs[0]
    second = engine.compile(start, ["Sushi"]).specs[0]
    assert first.share_key != second.share_key
    assert first.sim_map and set(first.sim_map) == set(second.sim_map)
    assert candidate_field(network, first) is candidate_field(network, second)


@pytest.mark.parametrize("edit", ["set_poi", "clear_poi"])
def test_poi_edit_drops_the_field_memo(edit):
    for seed in range(12):
        network, forest, rng = random_instance(seed, num_pois=10)
        picked = pick_query(network, forest, rng, 2)
        if picked is None:
            continue
        start, cats = picked
        engine = SkySREngine(network, forest)
        old_spec = engine.compile(start, cats).specs[-1]
        before = candidate_field(network, old_spec)
        assert candidate_field(network, old_spec) is before
        engine.query(start, cats)
        if edit == "set_poi":
            vid = next(
                v for v in range(network.num_vertices)
                if not network.is_poi(v) and v != start
            )
            network.set_poi(vid, cats[-1])
        else:
            spec = engine.compile(start, cats).specs[-1]
            network.clear_poi(max(spec.sim_map))
        engine.refresh_index()
        compiled = engine.compile(start, cats)
        after = candidate_field(network, compiled.specs[-1])
        assert after is not before
        # the edit dropped the whole memo, the old set's entry included
        assert candidate_field(network, old_spec) is not before
        assert after == distance_field(network, compiled.specs[-1].sim_map)
        got = engine.query(start, cats)
        assert score_set(got.routes) == score_set(
            brute_force_skysr(network, compiled)
        ), seed


def test_predicate_specs_never_populate_the_field_memo():
    network, forest, rng = random_instance(7, num_pois=12)
    engine = SkySREngine(network, forest)
    spec = engine.compile(0, [AnyOf("Ramen", "Gift")]).specs[0]
    assert spec.share_key is None
    assert candidate_field(network, spec) is None
    result = engine.query(0, [AnyOf("Ramen", "Gift"), "Jazz"])
    memo = getattr(network, "_candidate_fields", (None, {}))[1]
    assert frozenset(spec.sim_map) not in memo
    compiled = engine.compile(0, [AnyOf("Ramen", "Gift"), "Jazz"])
    assert score_set(result.routes) == score_set(
        brute_force_skysr(network, compiled)
    )


# ----------------------------------------------------------------------
# the grain


def test_weights_snap_to_the_grain_and_sums_associate():
    network = RoadNetwork()
    a, b, c, d = (network.add_vertex() for _ in range(4))
    network.add_edge(a, b, 0.1)
    network.add_edge(b, c, 0.2)
    network.add_edge(c, d, 0.3)
    weights = [w for _, _, w in network.edges()]
    assert all(w * 2**20 == int(w * 2**20) for w in weights)
    assert abs(weights[0] - 0.1) <= 2**-21
    x, y, z = weights
    assert (x + y) + z == x + (y + z)
    # so a forward search and a reverse sweep reach the same double
    assert dijkstra(network, a)[d] == distance_field(network, [d])[a]


def test_total_weight_must_stay_below_two_to_the_32():
    network = RoadNetwork()
    a, b, c = (network.add_vertex() for _ in range(3))
    network.add_edge(a, b, MAX_TOTAL_WEIGHT / 2)
    with pytest.raises(GraphError):
        network.add_edge(b, c, MAX_TOTAL_WEIGHT / 2)
    assert network.num_edges == 1
    network.add_edge(b, c, MAX_TOTAL_WEIGHT / 4)
    for bad in (math.inf, math.nan):
        with pytest.raises(GraphError):
            network.add_edge(a, c, bad)

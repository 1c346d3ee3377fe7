"""Direct property tests of the paper's lemmas.

The BSSR parity suite already checks end-to-end exactness; these tests
pin the individual mathematical claims the pruning rules rest on, so a
regression points at the broken lemma rather than at "skylines differ".
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import (
    brute_force_skysr,
    enumerate_sequenced_routes,
)
from repro.baselines.topk import brute_force_topk
from repro.core.dominance import SkylineSet, dominates
from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.core.routes import SkylineRoute
from repro.core.spec import compile_query
from repro.graph.dijkstra import dijkstra
from repro.graph.poi import PoIIndex
from repro.graph.road_network import RoadNetwork
from repro.semantics.scoring import ProductAggregator
from repro.semantics.similarity import HierarchyWuPalmer

from .conftest import pick_query, random_instance, small_forest


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_lemma_5_2_super_route_scores_monotone(seed):
    """Extending a route never decreases either score."""
    network, forest, rng = random_instance(seed, num_pois=10)
    query = pick_query(network, forest, rng, 3, distinct_trees=False)
    if query is None:
        return
    start, cats = query
    index = PoIIndex(network, forest)
    compiled = compile_query(start, cats, index, HierarchyWuPalmer())
    agg = ProductAggregator()
    dist_from_start = dijkstra(network, start)
    for _ in range(20):
        # grow a random route position by position, checking prefixes
        length, state = 0.0, agg.initial(3)
        previous_l, previous_s, last = 0.0, 0.0, None
        for position in range(3):
            spec = compiled.specs[position]
            candidates = list(spec.sim_map)
            if not candidates:
                break
            vid = candidates[rng.randrange(len(candidates))]
            source = dist_from_start if last is None else dijkstra(network, last)
            d = source.get(vid, math.inf)
            if d == math.inf:
                break
            length += d
            state = agg.extend(state, spec.sim_map[vid])
            assert length >= previous_l - 1e-12
            assert agg.score(state) >= previous_s - 1e-12
            previous_l, previous_s, last = length, agg.score(state), vid


@settings(deadline=None, max_examples=60)
@given(
    scores=st.lists(
        st.tuples(
            st.integers(0, 30).map(float),
            st.integers(0, 10).map(lambda x: x / 10),
        ),
        min_size=1,
        max_size=20,
    ),
    probes=st.lists(st.integers(0, 10).map(lambda x: x / 10), min_size=2, max_size=5),
)
def test_definition_5_4_threshold_monotone_nonincreasing(scores, probes):
    """l̄ is nonincreasing in the semantic probe — the property both the
    break condition of Algorithm 2 and Lemma 5.8 rely on."""
    sky = SkylineSet()
    for i, (length, semantic) in enumerate(scores):
        sky.update(SkylineRoute(pois=(i,), length=length, semantic=semantic))
    ordered = sorted(probes)
    thresholds = [sky.threshold(p) for p in ordered]
    assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))


@settings(deadline=None, max_examples=80)
@given(
    a=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    b=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    c=st.tuples(st.integers(0, 9), st.integers(0, 9)),
)
def test_dominance_is_a_strict_partial_order(a, b, c):
    fa, fb, fc = (
        (float(x), float(y)) for x, y in (a, b, c)
    )
    assert not dominates(fa, fa)  # irreflexive
    if dominates(fa, fb):
        assert not dominates(fb, fa)  # asymmetric
    if dominates(fa, fb) and dominates(fb, fc):
        assert dominates(fa, fc)  # transitive


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 10_000))
def test_lemma_5_1_skyline_updates_never_resurrect(seed):
    """Routes dominated by the evolving set S never re-enter later."""
    rng = random.Random(seed)
    sky = SkylineSet()
    rejected: list[tuple[float, float]] = []
    for i in range(60):
        length = float(rng.randint(0, 40))
        semantic = rng.randint(0, 10) / 10
        route = SkylineRoute(pois=(i,), length=length, semantic=semantic)
        before = sky.dominated_or_equal(length, semantic)
        accepted = sky.update(route)
        if before:
            assert not accepted
            rejected.append((length, semantic))
        # every previously rejected score stays dominated-or-equal
        for length_r, semantic_r in rejected:
            assert sky.dominated_or_equal(length_r, semantic_r)


def test_lemma_5_5_suppressed_routes_are_dominated():
    """Every sequenced route is dominated or tied by a route BSSR
    returns — checked against full enumeration on small instances.
    (The modified Dijkstra no longer suppresses any candidate, so no
    route is lost to Lemma 5.5's substitution argument.)"""
    from repro.core.bssr import run_bssr

    for seed in range(8):
        network, forest, rng = random_instance(seed, num_pois=9)
        query = pick_query(network, forest, rng, 2)
        if query is None:
            continue
        start, cats = query
        index = PoIIndex(network, forest)
        compiled = compile_query(start, cats, index, HierarchyWuPalmer())
        every = enumerate_sequenced_routes(network, compiled)
        skyline, _ = run_bssr(network, compiled)
        skyline_scores = [(r.length, r.semantic) for r in skyline]
        for route in every:
            assert any(
                dominates(s, route.scores()) or s == route.scores()
                for s in skyline_scores
            )


def test_lemma_5_5_keeps_the_second_ramen_at_k2():
    """Line graph 0 –1– 1 –1– 2 –1– 3 with Ramen at 1 and 2: the oracle's
    top-2 from 0 is (1,) then (2,).  Lemma 5.5 (i) used to suppress 2
    behind 1, which is wrong for a k-skyband."""
    forest = small_forest()
    ramen = forest.resolve("Ramen")
    network = RoadNetwork()
    first = network.add_vertex(0.0, 0.0)
    network.add_poi(ramen, 1.0, 0.0)
    network.add_poi(ramen, 2.0, 0.0)
    network.add_vertex(3.0, 0.0)
    for u in range(3):
        network.add_edge(u, u + 1, 1.0)
    engine = SkySREngine(network, forest)
    oracle = brute_force_topk(network, engine.compile(first, [ramen]), 2)
    assert [r.pois for r in oracle] == [(1,), (2,)]
    result = engine.query(first, [ramen], options=BSSROptions(k=2))
    assert [r.pois for r in result.topk()] == [(1,), (2,)]


def test_lemma_5_5_keeps_the_route_a_start_poi_would_suppress():
    """Start vertex 23 is a position-0 PoI, so rule (i) would suppress
    PoI 26 behind it; the only route dominating (26, 17, 23) is (23, 17,
    23), which reuses 23.  Default options keep the oracle's route."""
    network, forest, _rng = random_instance(146, directed=True, num_pois=12)
    engine = SkySREngine(network, forest)
    oracle = brute_force_skysr(
        network, engine.compile(23, [5, 4, 3], destination=4)
    )
    assert ((26, 17, 23), 17.0) in [(r.pois, r.length) for r in oracle]
    result = engine.query(23, [5, 4, 3], destination=4)
    assert ((26, 17, 23), 17.0) in [
        (r.pois, r.length) for r in result.routes
    ]

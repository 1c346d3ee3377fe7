"""Complex category requirements (Section 6): AnyOf / AllOf / Excluding."""

import pytest

from repro.baselines.brute_force import brute_force_skysr
from repro.core.bssr import run_bssr
from repro.core.options import BSSROptions
from repro.core.spec import compile_query
from repro.errors import QueryError
from repro.extensions.predicates import AllOf, AnyOf, Excluding
from repro.graph.poi import PoIIndex
from repro.graph.road_network import RoadNetwork
from repro.semantics.similarity import HierarchyWuPalmer

from .conftest import pick_query, random_instance, score_set, small_forest


@pytest.fixture()
def instance():
    forest = small_forest()
    net = RoadNetwork()
    road = [net.add_vertex() for _ in range(4)]
    for a, b in zip(road, road[1:]):
        net.add_edge(a, b, 1.0)
    pois = {
        "ramen": net.add_poi(forest.resolve("Ramen")),
        "sushi": net.add_poi(forest.resolve("Sushi")),
        "italian": net.add_poi(forest.resolve("Italian")),
        "gift": net.add_poi(forest.resolve("Gift")),
        "games": net.add_poi(forest.resolve("Games")),
        "cafe_bakery": net.add_poi(
            (forest.resolve("Bakery"), forest.resolve("Italian"))
        ),
    }
    for i, vid in enumerate(pois.values()):
        net.add_edge(road[i % 4], vid, 1.0)
    index = PoIIndex(net, forest)
    return forest, net, index, pois


def test_anyof_merges_alternatives(instance):
    forest, net, index, pois = instance
    spec = AnyOf("Ramen", "Italian").compile(index, HierarchyWuPalmer(), 0)
    assert spec.similarity(pois["ramen"]) == 1.0
    assert spec.similarity(pois["italian"]) == 1.0
    # sushi: 0.8 under Ramen, 0.5 under Italian → max 0.8
    assert spec.similarity(pois["sushi"]) == pytest.approx(0.8)
    assert pois["gift"] not in spec.sim_map
    assert "OR" in spec.label
    assert spec.best_nonperfect == pytest.approx(0.8)


def test_anyof_across_trees(instance):
    forest, net, index, pois = instance
    spec = AnyOf("Ramen", "Gift").compile(index, HierarchyWuPalmer(), 0)
    assert spec.similarity(pois["gift"]) == 1.0
    assert spec.similarity(pois["ramen"]) == 1.0
    assert len(spec.tree_ids) == 2


def test_allof_requires_every_branch(instance):
    forest, net, index, pois = instance
    spec = AllOf("Bakery", "Italian").compile(index, HierarchyWuPalmer(), 0)
    # only the multi-category PoI satisfies both at similarity 1
    assert spec.similarity(pois["cafe_bakery"]) == 1.0
    # plain italian: sim(Bakery→Italian)=2/3 (siblings), sim(Italian)=1 → min 2/3
    assert spec.similarity(pois["italian"]) == pytest.approx(2 / 3)
    assert pois["gift"] not in spec.sim_map
    assert "AND" in spec.label


def test_excluding_removes_closure(instance):
    forest, net, index, pois = instance
    spec = Excluding("Shop", "Hobby").compile(index, HierarchyWuPalmer(), 0)
    assert pois["gift"] in spec.sim_map
    # Games is a child of Hobby → excluded via closure
    assert pois["games"] not in spec.sim_map
    assert "NOT" in spec.label


def test_excluding_recomputes_best_nonperfect(instance):
    forest, net, index, pois = instance
    spec = Excluding("Gift", "Hobby").compile(index, HierarchyWuPalmer(), 0)
    # remaining candidates: gift (perfect) only → no nonperfect left
    assert spec.best_nonperfect is None


def test_predicate_constructor_validation():
    with pytest.raises(QueryError):
        AnyOf()
    with pytest.raises(QueryError):
        AllOf()
    with pytest.raises(QueryError):
        Excluding("Shop")


def test_nested_predicates(instance):
    forest, net, index, pois = instance
    spec = AnyOf(Excluding("Shop", "Hobby"), "Ramen").compile(
        index, HierarchyWuPalmer(), 0
    )
    assert pois["gift"] in spec.sim_map
    assert pois["ramen"] in spec.sim_map
    assert pois["games"] not in spec.sim_map


def test_bssr_parity_with_predicates():
    """BSSR == oracle when positions are predicates."""
    for seed in range(10):
        network, forest, rng = random_instance(seed, num_pois=12)
        query = pick_query(network, forest, rng, 2)
        if query is None:
            continue
        start, cats = query
        requirements = [
            AnyOf(cats[0], "Italian"),
            Excluding(forest.name_of(forest.tree_id(cats[1])), cats[1])
            if forest.tree_id(cats[1]) != cats[1]
            else cats[1],
        ]
        index = PoIIndex(network, forest)
        compiled = compile_query(
            start, requirements, index, HierarchyWuPalmer()
        )
        if any(not s.sim_map for s in compiled.specs):
            continue
        expected = brute_force_skysr(network, compiled)
        actual, _ = run_bssr(network, compiled)
        assert score_set(actual) == score_set(expected), f"seed={seed}"
        # predicate positions have no share_key: CH builds their streams
        # (and buckets) per search instead of memoizing them
        with_ch, _ = run_bssr(
            network, compiled, options=BSSROptions(use_contraction=True)
        )
        assert score_set(with_ch) == score_set(expected), f"seed={seed}"

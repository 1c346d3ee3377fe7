"""Query compilation: PositionSpec construction and validation."""

import pytest

from repro.core.spec import (
    CategoryRequirement,
    as_requirement,
    compile_query,
)
from repro.errors import QueryError
from repro.graph.poi import PoIIndex
from repro.graph.road_network import RoadNetwork
from repro.semantics.similarity import HierarchyWuPalmer

from .conftest import small_forest


@pytest.fixture()
def instance():
    forest = small_forest()
    net = RoadNetwork()
    road = [net.add_vertex() for _ in range(3)]
    ramen = net.add_poi(forest.resolve("Ramen"))
    italian = net.add_poi(forest.resolve("Italian"))
    gift = net.add_poi(forest.resolve("Gift"))
    hobby = net.add_poi(forest.resolve("Hobby"))
    for i, p in enumerate((ramen, italian, gift, hobby)):
        net.add_edge(road[i % 3], p, 1.0)
    index = PoIIndex(net, forest)
    return forest, net, index, dict(
        ramen=ramen, italian=italian, gift=gift, hobby=hobby
    )


def test_category_requirement_compiles_sims(instance):
    forest, net, index, pois = instance
    req = CategoryRequirement(forest.resolve("Ramen"))
    spec = req.compile(index, HierarchyWuPalmer(), 0)
    assert spec.label == "Ramen"
    assert spec.similarity(pois["ramen"]) == 1.0
    # Italian vs Ramen: lca Food (d=1), query d=3 → 2/4
    assert spec.similarity(pois["italian"]) == pytest.approx(0.5)
    assert spec.similarity(pois["gift"]) is None
    assert spec.perfect == {pois["ramen"]}
    assert spec.is_perfect(pois["ramen"])
    assert not spec.is_perfect(pois["italian"])
    assert spec.num_candidates == 2
    assert spec.best_nonperfect == pytest.approx(0.5)
    assert set(spec.candidates()) == {pois["ramen"], pois["italian"]}


def test_root_query_all_perfect(instance):
    forest, net, index, pois = instance
    spec = CategoryRequirement(forest.resolve("Shop")).compile(
        index, HierarchyWuPalmer(), 1
    )
    assert spec.perfect == {pois["gift"], pois["hobby"]}
    assert spec.best_nonperfect is None


def test_as_requirement_coercions(instance):
    forest, _, _, _ = instance
    req = as_requirement("Gift", forest)
    assert isinstance(req, CategoryRequirement)
    assert req.category == forest.resolve("Gift")
    same = as_requirement(forest.resolve("Gift"), forest)
    assert same.category == req.category
    assert as_requirement(req, forest) is req
    with pytest.raises(QueryError):
        as_requirement(3.14, forest)


def test_compile_query_basics(instance):
    forest, net, index, _ = instance
    compiled = compile_query(
        0, ["Ramen", "Gift"], index, HierarchyWuPalmer()
    )
    assert compiled.size == 2
    assert compiled.labels() == ["Ramen", "Gift"]
    assert compiled.destination is None


def test_compile_query_validation(instance):
    forest, net, index, _ = instance
    with pytest.raises(QueryError):
        compile_query(0, [], index, HierarchyWuPalmer())
    with pytest.raises(QueryError):
        compile_query(999, ["Ramen"], index, HierarchyWuPalmer())
    with pytest.raises(QueryError):
        compile_query(
            0, ["Ramen"], index, HierarchyWuPalmer(), destination=999
        )


def test_empty_position_compiles_to_empty_spec(instance):
    forest, net, index, _ = instance
    compiled = compile_query(0, ["Jazz"], index, HierarchyWuPalmer())
    assert compiled.specs[0].num_candidates == 0


def test_multi_category_poi_takes_best_similarity():
    forest = small_forest()
    net = RoadNetwork()
    a = net.add_vertex()
    both = net.add_poi((forest.resolve("Italian"), forest.resolve("Sushi")))
    net.add_edge(a, both, 1.0)
    index = PoIIndex(net, forest)
    spec = CategoryRequirement(forest.resolve("Sushi")).compile(
        index, HierarchyWuPalmer(), 0
    )
    assert spec.similarity(both) == 1.0  # the Sushi association wins

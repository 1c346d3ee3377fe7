"""Unordered skyline trip planning (Section 6) vs permutation oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import BSSROptions
from repro.core.spec import compile_query
from repro.errors import AlgorithmError
from repro.extensions.predicates import AnyOf
from repro.extensions.unordered import (
    brute_force_unordered,
    category_orders,
    run_unordered_skysr,
)
from repro.graph.poi import PoIIndex
from repro.semantics.similarity import HierarchyWuPalmer

from .conftest import pick_query, random_instance


def _rows(routes):
    return [(r.pois, r.length, round(r.semantic, 9)) for r in routes]


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 50_000))
def test_property_unordered_matches_permutation_oracle(seed):
    network, forest, rng = random_instance(seed, num_pois=9)
    query = pick_query(network, forest, rng, 3)
    if query is None:
        return
    start, cats = query
    index = PoIIndex(network, forest)
    compiled = compile_query(start, cats, index, HierarchyWuPalmer())
    expected = brute_force_unordered(network, compiled)
    actual, stats = run_unordered_skysr(network, compiled)
    assert _rows(actual) == _rows(expected), f"seed={seed}"
    assert stats.algorithm == "unordered-bssr"


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 50_000))
def test_property_unordered_never_longer_than_ordered(seed):
    """Relaxing the order can only improve the best achievable length."""
    from repro.baselines.brute_force import brute_force_skysr

    network, forest, rng = random_instance(seed, num_pois=9)
    query = pick_query(network, forest, rng, 3)
    if query is None:
        return
    start, cats = query
    index = PoIIndex(network, forest)
    compiled = compile_query(start, cats, index, HierarchyWuPalmer())
    ordered = brute_force_skysr(network, compiled)
    unordered, _ = run_unordered_skysr(network, compiled)
    if not ordered:
        return
    assert unordered
    assert min(r.length for r in unordered) <= min(r.length for r in ordered)


def test_unordered_empty_position():
    network, forest, rng = random_instance(2, num_pois=4)
    index = PoIIndex(network, forest)
    compiled = compile_query(0, ["Jazz", "Ramen"], index, HierarchyWuPalmer())
    if all(s.sim_map for s in compiled.specs):
        pytest.skip("instance unexpectedly has Jazz PoIs")
    routes, _ = run_unordered_skysr(network, compiled)
    assert routes == []


def test_unordered_routes_use_distinct_pois():
    for seed in range(6):
        network, forest, rng = random_instance(seed, num_pois=10)
        query = pick_query(network, forest, rng, 3, distinct_trees=False)
        if query is None:
            continue
        start, cats = query
        index = PoIIndex(network, forest)
        compiled = compile_query(start, cats, index, HierarchyWuPalmer())
        routes, _ = run_unordered_skysr(network, compiled)
        for route in routes:
            assert len(set(route.pois)) == len(route.pois)


def test_orders_with_equal_share_keys_run_once():
    """A repeated category gives the same ordered query in either of its
    places, and a predicate position is distinct from every other."""
    network, forest, _rng = random_instance(3, num_pois=10)
    index = PoIIndex(network, forest)
    similarity = HierarchyWuPalmer()
    repeated = compile_query(0, ["Food", "Food", "Shop"], index, similarity)
    orders = list(category_orders(repeated))
    assert [[s.label for s in q.specs] for q in orders] == [
        ["Food", "Food", "Shop"],
        ["Food", "Shop", "Food"],
        ["Shop", "Food", "Food"],
    ]
    assert all(
        [s.index for s in q.specs] == [0, 1, 2] for q in orders
    )
    predicates = compile_query(
        0, [AnyOf("Food"), AnyOf("Food")], index, similarity
    )
    assert len(list(category_orders(predicates))) == 2


def test_expansion_cap_covers_every_order():
    """``max_routes_expanded`` caps the expansions of all orders
    together, not of each one."""
    network, forest, rng = random_instance(9, num_pois=9)
    start, cats = pick_query(network, forest, rng, 3)
    index = PoIIndex(network, forest)
    compiled = compile_query(start, cats, index, HierarchyWuPalmer())
    _, stats = run_unordered_skysr(network, compiled)
    total = stats.routes_expanded
    assert total > 1
    _, capped = run_unordered_skysr(
        network, compiled, options=BSSROptions(max_routes_expanded=total)
    )
    assert capped.routes_expanded == total
    with pytest.raises(AlgorithmError):
        run_unordered_skysr(
            network,
            compiled,
            options=BSSROptions(max_routes_expanded=total - 1),
        )


def test_every_order_shares_one_destination_field(monkeypatch):
    """An unordered query runs the reverse Dijkstra to its destination
    once, not once per category order, and still answers exactly."""
    import repro.core.bssr as bssr
    from repro import SkySREngine
    from repro.datasets import generate_workload, tokyo_like

    calls = []
    sweep = bssr.dijkstra

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(bssr, "dijkstra", counted)
    dataset = tokyo_like(scale=0.12)
    network = dataset.network
    engine = SkySREngine(network, dataset.forest)
    queries = generate_workload(dataset, 3, 5, seed=3)
    for i, q in enumerate(queries):
        destination = (q.start + 97 * (i + 1)) % network.num_vertices
        del calls[:]
        result = engine.query(
            q.start, list(q.categories), destination=destination,
            ordered=False,
        )
        assert len(calls) == 1
        compiled = engine.compile(
            q.start, list(q.categories), destination=destination
        )
        expected = brute_force_unordered(network, compiled)
        assert _rows(result.routes) == _rows(expected)

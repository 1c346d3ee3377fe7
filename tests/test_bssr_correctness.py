"""BSSR exactness: parity with the brute-force oracle (Theorem 3).

These are the most important tests in the repository.  BSSR with every
optimization enabled must return exactly the same skyline score set as
exhaustive enumeration on randomized instances covering: undirected and
directed networks, repeated category trees (where a route's own PoIs
reappear in later positions' cached streams), same-category repetitions
(PoI distinctness), destination queries, multi-category PoIs, and
alternative similarity measures / aggregators.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import brute_force_skysr
from repro.core.bssr import run_bssr
from repro.core.options import BSSROptions
from repro.core.spec import compile_query
from repro.errors import AlgorithmError
from repro.graph.poi import PoIIndex
from repro.semantics.scoring import (
    MeanAggregator,
    MinAggregator,
    ProductAggregator,
)
from repro.semantics.similarity import (
    ClassicWuPalmer,
    HierarchyWuPalmer,
    PathLengthSimilarity,
)

from .conftest import pick_query, random_instance, score_set


def _parity_check(
    seed,
    *,
    size=3,
    directed=False,
    distinct_trees=True,
    similarity=None,
    aggregator=None,
    options=None,
    destination=False,
    num_pois=10,
):
    network, forest, rng = random_instance(
        seed, directed=directed, num_pois=num_pois
    )
    query = pick_query(
        network, forest, rng, size, distinct_trees=distinct_trees
    )
    if query is None:
        return None
    start, cats = query
    similarity = similarity or HierarchyWuPalmer()
    aggregator = aggregator or ProductAggregator()
    index = PoIIndex(network, forest)
    dest = rng.randrange(network.num_vertices) if destination else None
    compiled = compile_query(
        start, cats, index, similarity, destination=dest
    )
    expected = brute_force_skysr(network, compiled, aggregator=aggregator)
    actual, stats = run_bssr(
        network, compiled, aggregator=aggregator, options=options
    )
    assert score_set(actual) == score_set(expected), (
        f"seed={seed} start={start} cats={cats} dest={dest}"
    )
    return stats


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 100_000))
def test_property_parity_undirected(seed):
    _parity_check(seed)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 100_000))
def test_property_parity_directed(seed):
    _parity_check(seed, directed=True)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 100_000))
def test_property_parity_repeated_trees(seed):
    """Positions drawing from the same tree: a route's own PoIs reappear
    in later positions' cached streams, so PoI distinctness is
    exercised."""
    _parity_check(seed, distinct_trees=False)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 100_000))
def test_property_parity_with_destination(seed):
    _parity_check(seed, destination=True)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 100_000))
def test_property_parity_size_two_and_four(seed):
    _parity_check(seed, size=2)
    _parity_check(seed, size=4, num_pois=12)


@pytest.mark.parametrize(
    "similarity",
    [ClassicWuPalmer(), PathLengthSimilarity()],
    ids=lambda s: s.name,
)
def test_parity_alternative_similarities(similarity):
    for seed in range(12):
        _parity_check(seed, similarity=similarity)


@pytest.mark.parametrize(
    "aggregator",
    [MinAggregator(), MeanAggregator()],
    ids=lambda a: a.name,
)
def test_parity_alternative_aggregators(aggregator):
    for seed in range(12):
        _parity_check(seed, aggregator=aggregator)


def test_parity_multi_category_pois():
    for seed in range(15):
        network, forest, rng = random_instance(seed, num_pois=8)
        # attach a second category (possibly from another tree) to some PoIs
        leaves = forest.leaves()
        for vid in network.poi_vertices():
            if rng.random() < 0.5:
                extra = leaves[rng.randrange(len(leaves))]
                cats = network.poi_categories(vid)
                if extra not in cats:
                    network.set_poi(vid, cats + (extra,))
        query = pick_query(network, forest, rng, 3)
        if query is None:
            continue
        start, cats = query
        index = PoIIndex(network, forest)
        compiled = compile_query(start, cats, index, HierarchyWuPalmer())
        expected = brute_force_skysr(network, compiled)
        actual, _ = run_bssr(network, compiled)
        assert score_set(actual) == score_set(expected), f"seed={seed}"


def test_figure1_instance_parity(figure1):
    from repro.datasets.paper_example import figure1_query

    index = figure1.index
    compiled = compile_query(
        figure1.landmarks["vq"],
        list(figure1_query()),
        index,
        HierarchyWuPalmer(),
    )
    expected = brute_force_skysr(figure1.network, compiled)
    actual, stats = run_bssr(figure1.network, compiled)
    assert score_set(actual) == score_set(expected)
    # the skyline must contain a perfect route and a generalized shorter one
    semantics = sorted(r.semantic for r in actual)
    assert semantics[0] == 0.0
    assert semantics[-1] > 0.0
    lengths = [r.length for r in actual]
    perfect_length = next(r.length for r in actual if r.semantic == 0.0)
    assert min(lengths) < perfect_length


def test_empty_position_returns_empty():
    network, forest, rng = random_instance(3, num_pois=5)
    index = PoIIndex(network, forest)
    # "Jazz" tree has no PoIs in this instance with high probability; if
    # it does, drop them
    for vid in list(network.poi_vertices()):
        if index.matches_tree("Jazz", vid):
            network.clear_poi(vid)
    index = PoIIndex(network, forest)
    compiled = compile_query(0, ["Ramen", "Jazz"], index, HierarchyWuPalmer())
    routes, stats = run_bssr(network, compiled)
    assert routes == []
    assert stats.result_size == 0


def test_max_routes_expanded_guard():
    query = None
    for seed in range(20):
        network, forest, rng = random_instance(seed, num_pois=14)
        query = pick_query(network, forest, rng, 3)
        if query is not None:
            break
    assert query is not None
    start, cats = query
    index = PoIIndex(network, forest)
    compiled = compile_query(start, cats, index, HierarchyWuPalmer())
    options = BSSROptions(max_routes_expanded=0)
    with pytest.raises(AlgorithmError):
        run_bssr(network, compiled, options=options)


def test_skyline_routes_are_valid_sequenced_routes():
    """Definition 3.4: size, semantic matches, distinct PoIs."""
    for seed in range(10):
        network, forest, rng = random_instance(seed)
        query = pick_query(network, forest, rng, 3)
        if query is None:
            continue
        start, cats = query
        index = PoIIndex(network, forest)
        compiled = compile_query(start, cats, index, HierarchyWuPalmer())
        routes, _ = run_bssr(network, compiled)
        for route in routes:
            assert route.size == 3
            assert len(set(route.pois)) == 3
            for position, vid in enumerate(route.pois):
                assert compiled.specs[position].similarity(vid) is not None
            assert len(route.sims) == 3

"""The public engine API: algorithms, results, validation."""

import pytest

from repro.core.engine import ALGORITHMS, SkySREngine
from repro.core.options import BSSROptions
from repro.datasets import generate_workload, tokyo_like
from repro.datasets.paper_example import figure1_query
from repro.errors import QueryError
from repro.extensions.predicates import AnyOf
from repro.extensions.unordered import brute_force_unordered

from .conftest import route_rows, score_set


@pytest.fixture()
def engine(figure1):
    return SkySREngine(figure1.network, figure1.forest)


def test_all_algorithms_agree_on_figure1(figure1, engine):
    start = figure1.landmarks["vq"]
    cats = list(figure1_query())
    results = {
        algo: engine.query(start, cats, algorithm=algo)
        for algo in ALGORITHMS
    }
    reference = score_set(results["brute-force"].routes)
    for algo, result in results.items():
        assert score_set(result.routes) == reference, algo
        assert result.algorithm == algo
        assert result.start == start
        assert result.labels == cats
        assert result.stats.elapsed >= 0.0


def test_result_presentation(figure1, engine):
    start = figure1.landmarks["vq"]
    result = engine.query(start, list(figure1_query()))
    assert len(result) == len(result.routes)
    assert list(iter(result)) == result.routes
    shortest = result.shortest
    assert shortest is not None
    assert shortest.length == min(r.length for r in result.routes)
    perfect = result.perfect
    assert perfect is not None and perfect.semantic == 0.0
    names = result.poi_category_names(perfect)
    assert names[0] == "Asian Restaurant"
    table = result.to_table()
    assert "distance" in table and "Asian Restaurant" in table
    line = result.describe_route(perfect)
    assert "->" in line


def test_unknown_algorithm_rejected(figure1, engine):
    with pytest.raises(QueryError):
        engine.query(0, ["Gift Shop"], algorithm="magic")


def test_unordered_restrictions(figure1, engine):
    """The naive baselines refuse unordered queries; BSSR answers them
    with a destination too, as the permutation oracle does."""
    for algorithm in ("dij", "pne"):
        with pytest.raises(QueryError):
            engine.query(0, ["Gift Shop"], ordered=False, algorithm=algorithm)
    start = figure1.landmarks["vq"]
    cats = list(figure1_query())
    for destination in (1, start):
        compiled = engine.compile(start, cats, destination=destination)
        oracle = brute_force_unordered(figure1.network, compiled)
        assert oracle
        for algorithm in ("bssr", "bssr-noopt"):
            result = engine.query(
                start,
                cats,
                ordered=False,
                destination=destination,
                algorithm=algorithm,
            )
            assert route_rows(result.routes) == route_rows(oracle)
            assert result.algorithm == "unordered-bssr"
            assert result.destination == destination


def test_naive_baselines_reject_predicates(figure1, engine):
    predicate = AnyOf("Gift Shop", "Hobby Shop")
    with pytest.raises(QueryError):
        engine.query(0, [predicate], algorithm="dij")
    # BSSR accepts them
    result = engine.query(figure1.landmarks["vq"], [predicate])
    assert len(result) >= 1


def test_per_query_options_override(figure1, engine):
    start = figure1.landmarks["vq"]
    cats = list(figure1_query())
    base = engine.query(start, cats)
    ablated = engine.query(
        start, cats, options=BSSROptions.without_optimizations()
    )
    assert score_set(base.routes) == score_set(ablated.routes)
    assert ablated.stats.cache_hits == 0


def test_bssr_noopt_algorithm_name(figure1, engine):
    start = figure1.landmarks["vq"]
    result = engine.query(start, list(figure1_query()), algorithm="bssr-noopt")
    assert result.stats.init_routes == 0
    assert result.stats.cache_hits == 0


def test_bssr_noopt_keeps_the_callers_other_options():
    """``bssr-noopt`` turns off the five Section 5.3 switches only: a
    diversified top-k answer is the same list as ``bssr``'s."""
    dataset = tokyo_like(scale=0.12)
    engine = SkySREngine(dataset.network, dataset.forest)
    options = BSSROptions(k=5, diversity_lambda=1.0)
    for q in generate_workload(dataset, 3, 4, seed=7):
        cats = list(q.categories)
        fast = engine.query(q.start, cats, options=options)
        plain = engine.query(
            q.start, cats, options=options, algorithm="bssr-noopt"
        )
        assert plain.routes == fast.routes
        assert plain.stats.init_routes == 0
        assert plain.stats.cache_hits == 0


def test_index_refresh(figure1, engine):
    index_before = engine.index
    assert engine.index is index_before  # cached
    engine.refresh_index()
    assert engine.index is not index_before


def test_compile_exposes_specs(figure1, engine):
    compiled = engine.compile(
        figure1.landmarks["vq"], list(figure1_query())
    )
    assert compiled.size == 3
    assert [s.label for s in compiled.specs] == list(figure1_query())


def test_result_without_context_raises():
    from repro.core.routes import SkylineRoute
    from repro.core.engine import SkySRResult
    from repro.core.stats import SearchStats

    result = SkySRResult(
        routes=[SkylineRoute(pois=(1,), length=1.0, semantic=0.0)],
        stats=SearchStats(),
        start=0,
        labels=["x"],
        algorithm="bssr",
    )
    with pytest.raises(QueryError):
        result.poi_category_names(result.routes[0])


def test_engine_accepts_category_ids(figure1, engine):
    start = figure1.landmarks["vq"]
    ids = [figure1.forest.resolve(name) for name in figure1_query()]
    by_name = engine.query(start, list(figure1_query()))
    by_id = engine.query(start, ids)
    assert score_set(by_name.routes) == score_set(by_id.routes)

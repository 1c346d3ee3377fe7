"""The top-k sequenced route subsystem.

Three layers of evidence:

* :class:`SkybandSet` obeys the k-skyband law (membership = fewer than
  k dominators over the distinct score pairs) and collapses to the
  seed's :class:`SkylineSet` at ``k = 1``;
* the BSSR engine under ``BSSROptions(k=...)`` reproduces the
  brute-force top-k oracle on random small instances — including the
  acceptance property that ``k = 1`` output equals the plain skyline
  query and the ranked list always leads with the seed's shortest
  route;
* the user-facing surfaces (result accessor, service, CLI, experiment)
  expose the ranked alternatives coherently.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.topk import brute_force_skyband, brute_force_topk
from repro.cli import main as cli_main
from repro.core.dominance import (
    SkybandSet,
    SkylineSet,
    dominance_depths,
    dominates,
    rank_routes,
    skyband_filter,
)
from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.core.routes import SkylineRoute
from repro.errors import QueryError
from repro.extensions.unordered import brute_force_unordered

from .conftest import pick_query, random_instance, route_rows, score_set

# ---------------------------------------------------------------------------
# SkybandSet


def _random_routes(rng: random.Random, count: int) -> list[SkylineRoute]:
    """Score pairs drawn from a small lattice so ties and dominance
    chains actually occur."""
    return [
        SkylineRoute(
            pois=(i,),
            length=float(rng.randint(1, 12)),
            semantic=rng.randint(0, 6) / 6.0,
        )
        for i in range(count)
    ]


def _true_skyband_scores(
    routes: list[SkylineRoute], k: int
) -> set[tuple[float, float]]:
    """Definitional k-skyband over the distinct score pairs."""
    distinct = {r.scores() for r in routes}
    return {
        p
        for p in distinct
        if sum(1 for q in distinct if q != p and dominates(q, p)) < k
    }


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_skyband_membership_law(seed, k):
    rng = random.Random(seed)
    routes = _random_routes(rng, 40)
    band = SkybandSet(k)
    for route in routes:
        band.update(route)
    assert band.as_score_set() == _true_skyband_scores(routes, k)


@pytest.mark.parametrize("seed", range(8))
def test_skyband_k1_is_the_skyline_set(seed):
    rng = random.Random(seed)
    routes = _random_routes(rng, 40)
    skyline, band = SkylineSet(), SkybandSet(1)
    for route in routes:
        skyline.update(route)
        band.update(route)
    assert [r.scores() for r in band.routes()] == [
        r.scores() for r in skyline.routes()
    ]
    assert (band.updates, band.rejects) == (skyline.updates, skyline.rejects)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [1, 2, 4])
def test_skyband_order_independence(seed, k):
    rng = random.Random(seed)
    routes = _random_routes(rng, 30)
    shuffled = list(routes)
    rng.shuffle(shuffled)
    a = skyband_filter(routes, k)
    b = skyband_filter(shuffled, k)
    assert score_set(a) == score_set(b)


def test_skyband_threshold_is_kth_smallest_qualifying_length():
    band = SkybandSet(2)
    for i, (length, semantic) in enumerate(
        [(4.0, 0.5), (6.0, 0.25), (9.0, 0.0), (11.0, 0.0)]
    ):
        assert band.update(
            SkylineRoute(pois=(i,), length=length, semantic=semantic)
        )
    # members with s <= 0.5: lengths 4, 6, 9, 11 -> 2nd smallest is 6
    assert band.threshold(0.5) == 6.0
    # members with s <= 0.0: lengths 9, 11 -> 2nd smallest is 11
    assert band.threshold(0.0) == 11.0
    assert band.perfect_route_length() == 11.0
    # fewer than k qualifying members -> cannot prune yet
    assert band.threshold(-1.0) == float("inf")


def test_skyband_collapses_equivalent_scores():
    band = SkybandSet(3)
    assert band.update(SkylineRoute(pois=(1,), length=5.0, semantic=0.5))
    assert not band.update(SkylineRoute(pois=(2,), length=5.0, semantic=0.5))
    assert band.rejects == 1
    assert len(band) == 1


def test_skyband_eviction_at_k_dominators():
    band = SkybandSet(2)
    band.update(SkylineRoute(pois=(1,), length=9.0, semantic=0.9))
    band.update(SkylineRoute(pois=(2,), length=5.0, semantic=0.5))
    assert len(band) == 2  # one dominator (< k) keeps the 9.0 route
    band.update(SkylineRoute(pois=(3,), length=3.0, semantic=0.3))
    assert (9.0, 0.9) not in band.as_score_set()  # now two dominators
    assert len(band) == 2


def test_skyband_rejects_invalid_k():
    with pytest.raises(ValueError):
        SkybandSet(0)


# ---------------------------------------------------------------------------
# ranking


def test_rank_routes_orders_by_depth_then_length():
    routes = [
        SkylineRoute(pois=(1,), length=10.0, semantic=0.0),  # skyline
        SkylineRoute(pois=(2,), length=4.0, semantic=0.5),  # skyline, shortest
        SkylineRoute(pois=(3,), length=12.0, semantic=0.0),  # depth 1
        SkylineRoute(pois=(4,), length=5.0, semantic=0.6),  # depth 1
    ]
    assert dominance_depths(routes) == [0, 0, 1, 1]
    ranked = rank_routes(routes)
    assert [r.pois[0] for r in ranked] == [2, 1, 4, 3]
    assert [r.pois[0] for r in rank_routes(routes, 2)] == [2, 1]


# ---------------------------------------------------------------------------
# options


def test_options_carry_k():
    assert BSSROptions().k == 1
    assert BSSROptions().but(k=3).k == 3
    assert BSSROptions.without_optimizations().but(k=4).k == 4


def test_options_reject_bad_k():
    with pytest.raises(QueryError):
        BSSROptions(k=0)
    with pytest.raises(QueryError):
        BSSROptions().but(k=-2)


# ---------------------------------------------------------------------------
# engine vs oracle (the acceptance properties)


def _engine_and_query(seed, size=3):
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, size)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    return SkySREngine(network, forest), network, start, cats


@pytest.mark.parametrize("seed", range(12))
def test_k1_topk_is_the_seed_shortest_route(seed):
    """Satellite property: k=1 top-k output == the plain BSSR shortest."""
    engine, _network, start, cats = _engine_and_query(seed)
    base = engine.query(start, cats)
    topk = engine.query(start, cats, options=BSSROptions().but(k=1))
    assert score_set(topk.routes) == score_set(base.routes)
    ranked = topk.topk()
    if base.shortest is None:
        assert ranked == []
    else:
        assert len(ranked) == 1
        assert ranked[0].scores() == base.shortest.scores()


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [2, 3])
def test_topk_matches_brute_force_oracle(seed, k):
    """Acceptance: ranked output and skyband equal the exhaustive oracle."""
    engine, network, start, cats = _engine_and_query(seed)
    result = engine.query(start, cats, options=BSSROptions().but(k=k))
    compiled = engine.compile(start, cats)
    oracle_ranked = brute_force_topk(network, compiled, k)
    assert [
        (r.length, round(r.semantic, 9)) for r in result.topk()
    ] == [(r.length, round(r.semantic, 9)) for r in oracle_ranked]
    oracle_band = brute_force_skyband(network, compiled, k)
    assert score_set(result.skyband) == score_set(oracle_band)


def test_landmarks_topk_never_returns_one_poi_tuple_twice():
    """Regression: with ALT, NNinit and the main search can sum one
    route along different equal-length paths, an ULP apart.  The copy
    used to take a skyband slot and push the oracle's rank-5 route out;
    at start 286 the tuple (508, 475, 510) came back twice."""
    from repro.datasets import generate_workload, tokyo_like

    dataset = tokyo_like(scale=0.12)
    engine = SkySREngine(dataset.network, dataset.forest)
    options = BSSROptions(use_landmarks=True, k=5)
    queries = generate_workload(dataset, 3, 6, seed=7)
    assert 286 in [q.start for q in queries]

    def grain(routes):
        return [(r.length, round(r.semantic, 9)) for r in routes]

    for q in queries:
        cats = list(q.categories)
        result = engine.query(q.start, cats, options=options)
        compiled = engine.compile(q.start, cats)
        band = [r.pois for r in result.skyband]
        assert len(band) == len(set(band))
        assert grain(result.topk()) == grain(
            brute_force_topk(dataset.network, compiled, 5)
        )
        assert sorted(grain(result.skyband)) == sorted(
            grain(brute_force_skyband(dataset.network, compiled, 5))
        )


@pytest.mark.parametrize("seed", range(12))
def test_topk_first_entry_equals_seed_shortest(seed):
    """Acceptance: k=3 returns <= 3 ranked routes led by the seed answer."""
    engine, _network, start, cats = _engine_and_query(seed)
    base = engine.query(start, cats)
    result = engine.query(start, cats, options=BSSROptions().but(k=3))
    assert result.k == 3
    assert len(result.routes) <= 3
    if base.shortest is not None:
        assert result.routes[0].scores() == base.shortest.scores()
    # the skyband always contains the whole skyline
    assert score_set(base.routes) <= score_set(result.skyband)


@pytest.mark.parametrize("seed", range(12))
def test_topk_truncation_never_hides_the_perfect_route(seed):
    """``result.perfect`` scans the skyband: the k cut may rank the
    semantic-0 route out of ``routes``, but never out of existence."""
    engine, _network, start, cats = _engine_and_query(seed)
    base = engine.query(start, cats)
    result = engine.query(start, cats, options=BSSROptions().but(k=2))
    if base.perfect is None:
        assert result.perfect is None
    else:
        assert result.perfect is not None
        assert result.perfect.scores() == base.perfect.scores()


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_topk_noopt_and_brute_force_agree_with_bssr(seed):
    engine, _network, start, cats = _engine_and_query(seed)
    opts = BSSROptions().but(k=3)
    ranked = [
        r.scores()
        for r in engine.query(start, cats, options=opts).topk()
    ]
    for algorithm in ("bssr-noopt", "brute-force"):
        other = engine.query(start, cats, algorithm=algorithm, options=opts)
        assert [r.scores() for r in other.topk()] == ranked


@pytest.mark.parametrize("seed", [2, 7])
def test_topk_with_destination_matches_oracle(seed):
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, 2)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    destination = rng.randrange(network.num_vertices)
    engine = SkySREngine(network, forest)
    result = engine.query(
        start, cats, destination=destination, options=BSSROptions().but(k=3)
    )
    compiled = engine.compile(start, cats, destination=destination)
    oracle = brute_force_topk(network, compiled, 3)
    assert [
        (r.length, round(r.semantic, 9)) for r in result.topk()
    ] == [(r.length, round(r.semantic, 9)) for r in oracle]


def test_topk_rejected_for_naive_and_unordered():
    """The naive baselines refuse top-k, ordered or not; an unordered
    top-k query is answered and ranks the permutation oracle's
    k-skyband."""
    engine, network, start, cats = _engine_and_query(3)
    for k in (2, 3, 5):
        opts = BSSROptions().but(k=k)
        for algorithm in ("dij", "pne"):
            for ordered in (True, False):
                with pytest.raises(QueryError):
                    engine.query(
                        start,
                        cats,
                        algorithm=algorithm,
                        ordered=ordered,
                        options=opts,
                    )
        result = engine.query(start, cats, ordered=False, options=opts)
        band = brute_force_unordered(network, engine.compile(start, cats), k)
        assert route_rows(rank_routes(result.skyband)) == route_rows(
            rank_routes(band)
        )
        assert route_rows(result.topk()) == route_rows(rank_routes(band, k))
        assert len(result.routes) <= k


def test_topk_accessor_and_ranked_table(figure1):
    engine = SkySREngine(figure1.network, figure1.forest)
    start = figure1.landmarks["vq"]
    cats = ["Asian Restaurant", "Arts & Entertainment", "Gift Shop"]
    result = engine.query(start, cats, options=BSSROptions().but(k=3))
    ranked = result.topk()
    assert 1 <= len(ranked) <= 3
    assert ranked[0].scores() == result.routes[0].scores()
    # ask for fewer / more than the query's k
    assert len(result.topk(1)) == 1
    assert len(result.topk(100)) == len(result.skyband)
    table = result.to_ranked_table()
    assert table.splitlines()[1].lstrip().startswith("1")
    assert result.stats.extra.get("k") == 3


# ---------------------------------------------------------------------------
# surfaces: service, CLI, experiment


def _service(seed=9):
    from repro.datasets import tokyo_like
    from repro.experiments.scenarios import ensure_category_pois
    from repro.service import SkySRService

    data = tokyo_like(scale=0.2, seed=seed)
    ensure_category_pois(data, ["Beer Garden", "Sake Bar"], per_category=3)
    return SkySRService(data), data


def test_service_plan_topk_cards():
    service, data = _service()
    from repro.experiments.scenarios import scenario_start

    start = scenario_start(data, seed=5)
    response = service.plan(["Beer Garden", "Sake Bar"], start=start, k=3)
    assert 1 <= len(response.cards) <= 3
    assert [card.rank for card in response.cards] == list(
        range(1, len(response.cards) + 1)
    )
    assert response.result.k == 3


def test_service_batch_geojson_ranks():
    service, data = _service()
    from repro.experiments.scenarios import scenario_start

    start = scenario_start(data, seed=5)
    payload = service.batch_geojson(
        [
            {"categories": ["Beer Garden", "Sake Bar"], "start": start},
            {"categories": ["Sake Bar"], "start": start, "k": 2},
        ],
        k=3,
    )
    assert payload["type"] == "SkySRBatch"
    assert len(payload["responses"]) == 2
    first, second = payload["responses"]
    assert first["k"] == 3 and second["k"] == 2
    for entry in payload["responses"]:
        features = entry["routes"]["features"]
        assert 1 <= len(features) <= entry["k"]
        assert [f["properties"]["rank"] for f in features] == list(
            range(1, len(features) + 1)
        )


def test_cli_query_topk(capsys):
    code = cli_main(
        [
            "query",
            "--preset",
            "mini",
            "--topk",
            "3",
            "--categories",
            "Asian Restaurant",
            "Gift Shop",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "top-3" in out
    assert "rank" in out


def test_topk_experiment_report():
    from repro.experiments import topk as topk_experiment
    from repro.experiments.harness import ExperimentConfig

    config = ExperimentConfig(
        scale=0.08, queries_per_cell=1, time_budget=10.0
    )
    report = topk_experiment.run(config, datasets=("tokyo",))
    assert report.experiment == "topk"
    assert report.data["k_values"] == [1, 3, 5]
    (row,) = report.data["rows"]
    assert row[0] == "tokyo-like"
    assert row[2] is not None  # k=1 finished

"""Prototype service, GeoJSON export, rendering, simulated user study."""

import json

import pytest

from repro.datasets.paper_example import figure1_query
from repro.datasets.presets import mini_city
from repro.errors import QueryError
from repro.service.geojson import (
    dumps,
    route_waypoints,
    routes_to_geojson,
)
from repro.service.prototype import SkySRService
from repro.service.rendering import render_network, render_route_summary
from repro.service.user_study import QUESTIONS, simulate_user_study


@pytest.fixture(scope="module")
def service():
    return SkySRService(mini_city())


def test_plan_returns_ranked_cards(service):
    data = service.dataset
    response = service.plan(
        list(figure1_query()), start=data.landmarks["vq"]
    )
    assert response.cards
    assert response.best() is response.cards[0]
    # rank 1 is the shortest; semantic fit in [0, 1]
    distances = [card.distance for card in response.cards]
    assert distances == sorted(distances)
    for card in response.cards:
        assert 0.0 <= card.semantic_fit <= 1.0
        assert len(card.stops) == 3
        assert "category" in card.stops[0]
    text = response.render_text()
    assert "Routes for" in text and "#1" in text
    assert "% match" in response.cards[0].headline()


def test_plan_snaps_map_click(service):
    data = service.dataset
    coords = data.network.coords(data.landmarks["vq"])
    response = service.plan(list(figure1_query()), near=coords)
    assert response.start == data.landmarks["vq"]
    with pytest.raises(QueryError):
        service.plan(list(figure1_query()))  # no start at all


def test_max_routes_cap():
    capped = SkySRService(mini_city(), max_routes=1)
    data = capped.dataset
    response = capped.plan(
        list(figure1_query()), start=data.landmarks["vq"]
    )
    assert len(response.cards) == 1


def test_no_feasible_route_renders_gracefully(service):
    # the Travel & Transport tree has no PoIs in the mini city
    response = service.plan(
        ["Hotel", "Gift Shop"], start=service.dataset.landmarks["vq"]
    )
    assert response.cards == []
    assert "(no feasible route)" in response.render_text()


def test_geojson_structure(service):
    data = service.dataset
    start = data.landmarks["vq"]
    response = service.plan(list(figure1_query()), start=start)
    routes = response.result.routes
    collection = routes_to_geojson(data.network, start, routes)
    assert collection["type"] == "FeatureCollection"
    assert len(collection["features"]) == len(routes)
    feature = collection["features"][0]
    assert feature["geometry"]["type"] == "LineString"
    assert len(feature["geometry"]["coordinates"]) == len(routes[0].pois) + 1
    assert feature["properties"]["rank"] == 1
    parsed = json.loads(dumps(collection))
    assert parsed == collection


def test_geojson_full_geometry(service):
    data = service.dataset
    start = data.landmarks["vq"]
    response = service.plan(list(figure1_query()), start=start)
    route = response.result.routes[0]
    waypoints = route_waypoints(data.network, start, route)
    assert waypoints[0] == start
    for poi in route.pois:
        assert poi in waypoints
    # consecutive waypoints are adjacent in the network
    for a, b in zip(waypoints, waypoints[1:]):
        assert data.network.has_edge(a, b)
    full = routes_to_geojson(data.network, start, [route], full_geometry=True)
    assert len(full["features"][0]["geometry"]["coordinates"]) == len(waypoints)


def test_render_network_ascii(service):
    data = service.dataset
    response = service.plan(
        list(figure1_query()), start=data.landmarks["vq"]
    )
    art = render_network(
        data.network,
        width=40,
        height=12,
        start=data.landmarks["vq"],
        route=response.result.routes[0],
    )
    lines = art.splitlines()
    assert len(lines) == 12
    assert any("S" in line for line in lines)
    assert any("1" in line for line in lines)
    summary = render_route_summary(
        data.network, response.result.routes[0], ["a", "b", "c"]
    )
    assert summary.startswith("S -> a -> b -> c")


def test_user_study_shape():
    outcome = simulate_user_study(mini_city(), respondents=10, seed=7)
    assert outcome.respondents == 10
    assert set(outcome.answers) == set(QUESTIONS)
    for question in QUESTIONS:
        ratios = outcome.ratios(question)
        assert len(ratios) == 3
        assert sum(ratios) == pytest.approx(1.0)
    assert 0.0 <= outcome.mean_satisfaction <= 1.0
    text = outcome.render_text()
    assert "Q1" in text and "%" in text


def test_user_study_deterministic():
    a = simulate_user_study(mini_city(), respondents=8, seed=3)
    b = simulate_user_study(mini_city(), respondents=8, seed=3)
    assert a.answers == b.answers


# ---------------------------------------------------------------------------
# ranked alternatives + admission control (the production-facing facade)


def _topk_service(**kwargs):
    from repro.datasets import tokyo_like
    from repro.experiments.scenarios import ensure_category_pois

    data = tokyo_like(scale=0.2, seed=9)
    ensure_category_pois(data, ["Beer Garden", "Sake Bar"], per_category=3)
    return SkySRService(data, **kwargs), data


def _start(data):
    from repro.experiments.scenarios import scenario_start

    return scenario_start(data, seed=5)


def test_service_admission_rejects_oversized_k():
    from repro.errors import AdmissionError

    service, data = _topk_service(max_k=3)
    start = _start(data)
    with pytest.raises(AdmissionError):
        service.plan(["Beer Garden", "Sake Bar"], start=start, k=4)
    with pytest.raises(AdmissionError):
        service.plan_batch(
            [{"categories": ["Sake Bar"], "start": start, "k": 10}]
        )
    # at the cap everything is admitted
    ok = service.plan(["Beer Garden", "Sake Bar"], start=start, k=3)
    assert ok.result.k == 3
    # AdmissionError is a QueryError: one service-boundary handler works
    with pytest.raises(QueryError):
        service.plan(["Beer Garden", "Sake Bar"], start=start, k=99)


def test_service_admission_caps_session_budget():
    from repro.errors import AdmissionError
    from repro.service import SessionApi
    from repro.store import InMemorySessionStore

    service, data = _topk_service()
    api = SessionApi(service, InMemorySessionStore(), max_session_routes=3)
    sid = api.create_session(
        {
            "categories": ["Beer Garden", "Sake Bar"],
            "start": _start(data),
            "page_size": 2,
        }
    ).session_id
    api.next_page(sid)  # serves <= 2 routes
    with pytest.raises(AdmissionError):
        api.next_page(sid)  # would exceed the 3-route budget
    assert api.next_page(sid, {"n": 1}).page == 2  # within budget


def test_service_diversity_lambda_plumbs_through():
    service, data = _topk_service()
    start = _start(data)
    plain = service.plan(["Beer Garden", "Sake Bar"], start=start, k=3)
    diverse = service.plan(
        ["Beer Garden", "Sake Bar"],
        start=start,
        k=3,
        diversity_lambda=0.8,
    )
    assert {c.pois for c in diverse.cards} <= {
        r.pois for r in plain.result.skyband
    }
    if diverse.cards and plain.cards:
        assert diverse.cards[0].pois == plain.cards[0].pois


@pytest.mark.parametrize(
    "entry, fragment",
    [
        ({"start": 0}, "categories"),
        ({"categories": ["Sake Bar"], "start": 0, "bogus": 1}, "bogus"),
        (["Sake Bar"], "objects"),
        ({"session": "sess-1"}, "/v1/sessions"),
        ({"categories": ["Sake Bar"], "start": 0, "page_size": 2},
         "/v1/sessions"),
        ({"session": "sess-1", "n": 2}, "/v1/sessions"),
    ],
)
def test_plan_batch_rejects_malformed_entries(
    service, monkeypatch, entry, fragment
):
    """Every bad entry is a QueryError naming the allowed keys, and
    nothing is planned: the good entry before it never runs."""
    planned = []
    monkeypatch.setattr(service, "plan", lambda *a, **kw: planned.append(a))
    good = {"categories": ["Gift Shop"], "start": 0}
    with pytest.raises(QueryError) as info:
        service.plan_batch([good, entry])
    assert planned == []
    message = str(info.value)
    assert fragment in message
    assert "allowed keys" in message and "'categories'" in message

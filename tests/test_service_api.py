"""The versioned, stateless session API over a pluggable store.

Evidence that the service tier is genuinely stateless:

* two :class:`~repro.service.SessionApi` instances sharing one store
  serve alternating pages of the same session, and the result equals an
  in-process oracle :class:`~repro.core.session.PlanningSession`;
* every typed failure maps to its status: 400 bad request, 404 unknown
  session, 410 expired, 429 admission/backpressure, 400 unsupported
  API version;
* the router speaks only ``/v1`` and refuses anything else up front.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict

import pytest

from repro.datasets.presets import mini_city
from repro.service import API_VERSION, SessionApi, SkySRService
from repro.service.api import PageResource
from repro.store import DiskSessionStore, InMemorySessionStore

CATS = ["Asian Restaurant", "Arts & Entertainment", "Gift Shop"]


@pytest.fixture()
def city():
    return mini_city()


@pytest.fixture()
def service(city):
    return SkySRService(city, max_k=10)


@pytest.fixture()
def api(service):
    counter = itertools.count(1)
    return SessionApi(
        service,
        InMemorySessionStore(),
        id_factory=lambda: f"s{next(counter)}",
        max_session_routes=40,
    )


def _create(api, city, **overrides):
    body = {"categories": CATS, "start": city.landmarks["vq"], "page_size": 2}
    body.update(overrides)
    return api.dispatch("POST", f"/{API_VERSION}/sessions", body)


def _route_keys(page_body):
    return [(tuple(r["pois"]), r["distance"]) for r in page_body["routes"]]


# ---------------------------------------------------------------------------
# endpoints


def test_create_get_page_close_lifecycle(api, city):
    created = _create(api, city)
    assert created.status == 201
    sid = created.body["session_id"]
    assert created.body["pages_served"] == 0
    assert created.body["categories"] == CATS

    page = api.dispatch("POST", f"/v1/sessions/{sid}/pages")
    assert page.status == 200
    assert page.body["page"] == 1 and page.body["first_rank"] == 1
    assert not page.body["resumed"]
    assert len(page.body["routes"]) == 2
    assert page.body["routes"][0]["rank"] == 1

    described = api.dispatch("GET", f"/v1/sessions/{sid}")
    assert described.status == 200
    assert described.body["pages_served"] == 1
    assert described.body["routes_served"] == 2

    listed = api.dispatch("GET", "/v1/sessions")
    assert listed.body == {"sessions": [sid]}

    closed = api.dispatch("DELETE", f"/v1/sessions/{sid}")
    assert closed.status == 204


def test_pages_match_in_process_oracle_session(api, service, city):
    sid = _create(api, city).body["session_id"]
    oracle = service.engine.session(
        city.landmarks["vq"], CATS, page_size=2
    )
    for _ in range(3):
        body = api.dispatch("POST", f"/v1/sessions/{sid}/pages").body
        page = oracle.next_page()
        assert _route_keys(body) == [(r.pois, r.length) for r in page.routes]
        assert body["first_rank"] == page.first_rank
        assert body["exhausted"] == page.exhausted
        if page.exhausted:
            break


def test_page_body_is_the_deep_copied_resource(api, service, city):
    """Each route card's dict is built once and the page passes it
    through: the body still equals the old form, a dataclass copy of the
    page over dataclass copies of its cards, ``pois`` tuples included."""
    sid = _create(api, city).body["session_id"]
    oracle = service.engine.session(city.landmarks["vq"], CATS, page_size=2)
    for _ in range(2):
        body = api.dispatch("POST", f"/v1/sessions/{sid}/pages").body
        page = oracle.next_page()
        cards = service._capped(
            service._cards(oracle.to_result(page), first_rank=page.first_rank)
        )
        old = asdict(
            PageResource(
                session_id=sid,
                page=page.number,
                first_rank=page.first_rank,
                routes=[asdict(card) for card in cards],
                resumed=page.resumed,
                exhausted=page.exhausted,
            )
        )
        assert body["routes"]
        assert body == old
        assert all(type(r["pois"]) is tuple for r in body["routes"])


def test_two_api_instances_share_sessions_via_the_store(service, city):
    """True statelessness: alternating workers serve one session."""
    store = InMemorySessionStore()
    worker_a = SessionApi(service, store, id_factory=lambda: "shared")
    worker_b = SessionApi(service, store)
    sid = _create(worker_a, city).body["session_id"]
    oracle = service.engine.session(city.landmarks["vq"], CATS, page_size=2)
    for worker in (worker_a, worker_b, worker_a):
        body = worker.dispatch("POST", f"/v1/sessions/{sid}/pages").body
        page = oracle.next_page()
        assert _route_keys(body) == [(r.pois, r.length) for r in page.routes]
        assert body["resumed"] == page.resumed


def test_disk_store_survives_api_instance_turnover(service, city, tmp_path):
    """Same, but durable: the second worker starts from the directory."""
    sid = _create(
        SessionApi(service, DiskSessionStore(tmp_path)),
        city,
        session_id="trip",
    ).body["session_id"]
    assert sid == "trip"
    later = SessionApi(service, DiskSessionStore(tmp_path))
    page = later.dispatch("POST", "/v1/sessions/trip/pages")
    assert page.status == 200 and page.body["page"] == 1


def test_next_page_n_override(api, city):
    sid = _create(api, city).body["session_id"]
    body = api.dispatch("POST", f"/v1/sessions/{sid}/pages", {"n": 3}).body
    assert len(body["routes"]) == 3


# ---------------------------------------------------------------------------
# typed failures -> statuses


def test_unknown_session_is_404(api):
    for method, path in [
        ("GET", "/v1/sessions/nope"),
        ("POST", "/v1/sessions/nope/pages"),
        ("DELETE", "/v1/sessions/nope"),
    ]:
        response = api.dispatch(method, path)
        assert response.status == 404, (method, path)
        assert response.body["error"] == "SessionNotFoundError"


def test_closed_session_is_404_not_keyerror(api, city):
    sid = _create(api, city).body["session_id"]
    api.dispatch("POST", f"/v1/sessions/{sid}/pages")
    assert api.dispatch("DELETE", f"/v1/sessions/{sid}").status == 204
    after = api.dispatch("POST", f"/v1/sessions/{sid}/pages")
    assert after.status == 404
    assert after.body["error"] == "SessionNotFoundError"


def test_expired_session_is_410(service, city):
    now = [0.0]
    store = InMemorySessionStore(ttl=5.0, clock=lambda: now[0])
    api = SessionApi(service, store, id_factory=lambda: "e1")
    _create(api, city)
    now[0] = 10.0
    gone = api.dispatch("GET", "/v1/sessions/e1")
    assert gone.status == 410
    assert gone.body["error"] == "SessionExpiredError"


def test_admission_cap_is_429(api, city):
    over = _create(api, city, page_size=99)
    assert over.status == 429
    assert over.body["error"] == "AdmissionError"


def test_store_backpressure_is_429(service, city):
    api = SessionApi(
        service, InMemorySessionStore(max_entries=1, evict=False)
    )
    assert _create(api, city).status == 201
    refused = _create(api, city)
    assert refused.status == 429
    assert refused.body["error"] == "AdmissionError"


def test_session_budget_cap_is_429(city):
    api = SessionApi(
        SkySRService(city), InMemorySessionStore(), max_session_routes=3
    )
    sid = _create(api, city).body["session_id"]
    assert api.dispatch("POST", f"/v1/sessions/{sid}/pages").status == 200
    refused = api.dispatch("POST", f"/v1/sessions/{sid}/pages")
    assert refused.status == 429
    assert refused.body["error"] == "AdmissionError"
    # a page that fits the remaining budget is still served
    within = api.dispatch("POST", f"/v1/sessions/{sid}/pages", {"n": 1})
    assert within.status == 200
    assert within.body["page"] == 2 and within.body["first_rank"] == 3


def test_store_budget_evicts_least_recently_used_session(service, city):
    """More sessions than the store holds: the LRU one is gone (404),
    the others still page."""
    counter = itertools.count(1)
    api = SessionApi(
        service,
        InMemorySessionStore(max_entries=2),
        id_factory=lambda: f"s{next(counter)}",
    )
    assert _create(api, city).status == 201  # s1
    assert _create(api, city).status == 201  # s2
    # paging s1 makes s2 the least recently used
    assert api.dispatch("POST", "/v1/sessions/s1/pages").status == 200
    assert _create(api, city).status == 201  # s3 evicts s2
    gone = api.dispatch("POST", "/v1/sessions/s2/pages")
    assert gone.status == 404
    assert gone.body["error"] == "SessionNotFoundError"
    for sid, page in [("s1", 2), ("s3", 1)]:
        served = api.dispatch("POST", f"/v1/sessions/{sid}/pages")
        assert served.status == 200 and served.body["page"] == page
    assert sorted(api.list_sessions()) == ["s1", "s3"]


@pytest.mark.parametrize(
    "body, fragment",
    [
        ({}, "categories"),
        ({"categories": []}, "categories"),
        ({"categories": CATS, "start": 0, "bogus": 1}, "bogus"),
        ({"categories": CATS}, "start"),
        ({"categories": CATS, "start": 0, "page_size": "3"}, "page_size"),
        ({"categories": CATS, "start": 0, "page_size": True}, "page_size"),
        ({"categories": CATS, "start": 0, "page_size": 2.5}, "page_size"),
        ({"categories": CATS, "start": 0, "page_size": 0}, "page_size"),
        ({"categories": CATS, "start": "x"}, "start"),
        ({"categories": CATS, "start": True}, "start"),
        ({"categories": CATS, "start": 0, "destination": "y"}, "destination"),
        ({"categories": CATS, "start": 0, "diversity_lambda": "a"},
         "diversity_lambda"),
        ({"categories": CATS, "near": [1]}, "near"),
        ({"categories": CATS, "near": [1, "y"]}, "near"),
        ({"categories": "Gift Shop", "start": 0}, "categories"),
        ({"categories": ["Gift Shop", 2.5], "start": 0}, "categories"),
        ({"categories": [True], "start": 0}, "categories"),
        ({"categories": [10**6], "start": 0}, "1000000"),
        ({"categories": ["No Such Place"], "start": 0}, "No Such Place"),
        ([1], "object"),
    ],
)
def test_bad_create_bodies_are_400(api, body, fragment):
    response = api.dispatch("POST", "/v1/sessions", body)
    assert response.status == 400
    assert fragment in response.body["message"]
    assert api.store.ids() == []  # nothing malformed is ever stored


def test_bad_page_bodies_are_400(api, city):
    sid = _create(api, city).body["session_id"]
    for body in [{"n": "two"}, {"pages": 2}, {"n": True}, {"n": 1.5}, [1]]:
        response = api.dispatch("POST", f"/v1/sessions/{sid}/pages", body)
        assert response.status == 400, body
        assert response.body["error"] == "QueryError", body
    # no rejected call advanced the session
    assert api.dispatch("GET", f"/v1/sessions/{sid}").body["pages_served"] == 0


def test_duplicate_session_id_is_400(api, city):
    assert _create(api, city, session_id="dup").status == 201
    assert _create(api, city, session_id="dup").status == 400


def test_unsafe_session_id_is_400(api, city):
    assert _create(api, city, session_id="../etc").status == 400


# ---------------------------------------------------------------------------
# version negotiation and routing


@pytest.mark.parametrize("path", ["/v2/sessions", "/v999/sessions"])
def test_unsupported_api_version_is_rejected(api, path):
    response = api.dispatch("GET", path)
    assert response.status == 400
    assert "unsupported API version" in response.body["message"]
    assert API_VERSION in response.body["message"]


@pytest.mark.parametrize("path", ["/sessions", "/", "/vx/sessions"])
def test_unversioned_paths_are_rejected(api, path):
    response = api.dispatch("GET", path)
    assert response.status == 400
    assert "version" in response.body["message"]


def test_unknown_endpoint_is_400(api):
    assert api.dispatch("PATCH", "/v1/sessions").status == 400
    assert api.dispatch("GET", "/v1/sessions/a/pages").status == 400
    assert api.dispatch("POST", "/v1/other").status == 400

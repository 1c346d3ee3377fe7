"""Durable sessions: serialization round trips and store semantics.

Three pillars of evidence:

* **round-trip exactness** (the acceptance property) — a session
  serialized to JSON and restored yields pop-for-pop identical pages
  (same scores, same PoIs, same queue pops) as the in-process oracle
  session it was copied from, across every page, including sessions
  serialized *before* their first page, with destinations, and across
  an OS process boundary (the payload really is self-contained);
* **schema negotiation** — unknown payload versions, wrong formats,
  corrupted/truncated JSON, and missing or mistyped fields all raise
  the typed :class:`~repro.errors.SessionDecodeError` naming the
  offending field, never a bare ``KeyError``;
* **store semantics** — TTL expiry (typed, via an injected fake
  clock), LRU eviction order, :class:`~repro.errors.AdmissionError`
  backpressure on budget exhaustion, typed not-found after close, and
  disk-store adoption across instances.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import datasets
from repro.core.bssr import BSSRSearch
from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.core.serialize import SCHEMA_VERSION
from repro.core.session import PlanningSession
from repro.datasets import Dataset
from repro.errors import (
    AdmissionError,
    AlgorithmError,
    QueryError,
    SessionDecodeError,
    SessionEncodeError,
    SessionExpiredError,
    SessionNotFoundError,
)
from repro.graph.contraction import contraction_for
from repro.graph.io import save_dataset
from repro.graph.road_network import RoadNetwork
from repro.service import SessionApi
from repro.service.prototype import SkySRService
from repro.store import DiskSessionStore, InMemorySessionStore

from .conftest import (
    attach_integer_pois,
    pick_query,
    random_instance,
    small_forest,
)

PAGES = 4


def page_fingerprint(page):
    """Everything a page must preserve across a round trip."""
    return {
        "scores": [(r.length, round(r.semantic, 12)) for r in page.routes],
        "pois": [r.pois for r in page.routes],
        "first_rank": page.first_rank,
        "pops": page.stats.routes_expanded,
        # a parked parent a resume pops again reads on from its offsets
        "continued": page.stats.routes_continued,
        "exhausted": page.exhausted,
    }


def _engine_and_query(seed, size=3, **session_kwargs):
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, size)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    return SkySREngine(network, forest), start, cats


# ---------------------------------------------------------------------------
# round-trip exactness (the acceptance property)


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_pages_match_oracle_pop_for_pop(seed):
    """Serialize -> deserialize -> resume gives pages identical to the
    in-process oracle session: scores, PoIs, ranks, AND queue pops.

    The restored copy is re-serialized before *every* page, so the
    property covers payloads of started sessions at every depth, not
    just the newborn one.
    """
    engine, start, cats = _engine_and_query(seed)
    oracle = engine.session(start, cats, page_size=2)
    text = engine.session(start, cats, page_size=2).dumps()
    for _ in range(PAGES):
        restored = PlanningSession.loads(engine, text)
        expected = page_fingerprint(oracle.next_page())
        assert page_fingerprint(restored.next_page()) == expected
        text = restored.dumps()
        if expected["exhausted"]:
            break


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("with_destination", [False, True])
@pytest.mark.parametrize(
    "options",
    [BSSROptions(), BSSROptions(use_contraction=True)],
    ids=["default", "ch"],
)
def test_skyband_members_are_archived_and_restored_resumes_are_exact(
    seed, with_destination, options
):
    """The search archives each route it offers, and NNinit's offers
    need no archiving: every member of the band, after ``run()`` and
    after each ``resume(k')``, is in the archive.  A checkpoint taken
    at each ``k`` restores and resumes to exactly a fresh ``k'`` run."""
    network, forest, rng = random_instance(seed, num_pois=12)
    start, cats = pick_query(network, forest, rng, 3, distinct_trees=False)
    destination = rng.randrange(network.num_vertices)
    engine = SkySREngine(network, forest)
    compiled = engine.compile(
        start, cats, destination=destination if with_destination else None
    )
    aggregator = engine.aggregator
    assert options.initial_search
    search = BSSRSearch(network, compiled, aggregator, options)
    search.run()
    archive = search.state.archive
    assert {r.pois for r in search.skyline.routes()} <= archive.keys()
    for k in (2, 3, 5):
        payload = json.loads(json.dumps(search.to_dict()))
        restored = BSSRSearch.from_dict(network, compiled, aggregator, payload)
        fresh, _ = BSSRSearch(
            network, compiled, aggregator, options.but(k=k)
        ).run()
        assert restored.resume(k)[0] == fresh
        assert search.resume(k)[0] == fresh
        assert {r.pois for r in search.skyline.routes()} <= archive.keys()


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_round_trip_survives_json_text_not_just_dicts(seed):
    """dumps/loads (the at-rest form) is lossless, not merely to_dict."""
    engine, start, cats = _engine_and_query(seed)
    session = engine.session(start, cats, page_size=3)
    session.next_page()
    clone = PlanningSession.loads(engine, session.dumps())
    # identical continuation from the JSON text
    assert page_fingerprint(clone.next_page()) == page_fingerprint(
        session.next_page()
    )
    # and the payload is pure JSON (round-trips through the codec)
    payload = json.loads(session.dumps())
    assert payload == json.loads(json.dumps(payload))


@pytest.mark.parametrize("seed", [2, 7])
def test_round_trip_with_destination(seed):
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, 2)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    destination = rng.randrange(network.num_vertices)
    engine = SkySREngine(network, forest)
    oracle = engine.session(start, cats, destination=destination, page_size=2)
    copy = engine.session(start, cats, destination=destination, page_size=2)
    copy.next_page()
    restored = PlanningSession.loads(engine, copy.dumps())
    oracle.next_page()
    assert page_fingerprint(restored.next_page()) == page_fingerprint(
        oracle.next_page()
    )


@pytest.mark.parametrize("seed", [0, 5])
def test_round_trip_with_diversity(seed):
    engine, start, cats = _engine_and_query(seed)
    oracle = engine.session(start, cats, page_size=2, diversity_lambda=0.5)
    copy = engine.session(start, cats, page_size=2, diversity_lambda=0.5)
    for _ in range(3):
        copy = PlanningSession.loads(engine, copy.dumps())
        expected = page_fingerprint(oracle.next_page())
        assert page_fingerprint(copy.next_page()) == expected
        if expected["exhausted"]:
            break


@pytest.mark.parametrize("seed", range(6))
def test_restored_resume_beats_fresh_recompute(seed):
    """The acceptance inequality: restoring + resuming does strictly
    fewer queue pops than recomputing the widened query from scratch."""
    engine, start, cats = _engine_and_query(seed)
    session = engine.session(start, cats, page_size=2)
    session.next_page()
    restored = PlanningSession.loads(engine, session.dumps())
    page2 = restored.next_page()
    if page2.stats.extra.get("exhausted"):
        pytest.skip("instance exhausted on page 1 — no resume work to save")
    fresh = engine.query(start, cats, options=BSSROptions().but(k=4))
    assert page2.stats.routes_expanded < fresh.stats.routes_expanded


@pytest.mark.parametrize("seed", range(10))
def test_restored_pages_do_not_depend_on_cache_warmth(seed):
    """One page-1 payload, restored on a warm service engine, on a fresh
    service engine with a cold cache, and on a cache-free engine, serves
    identical pages 2-4, pops included.

    The payload carries no candidate searches, so every restore rebuilds
    them (or adopts warm ones from the engine's cache) and replays the
    stored offsets.
    """
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, 3)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    dataset = Dataset(name=f"grid-{seed}", network=network, forest=forest)
    warm = SkySRService(dataset).engine
    session = warm.session(start, cats, page_size=2)
    session.next_page()
    payload = session.to_dict()
    assert SCHEMA_VERSION == 11
    assert payload["version"] == SCHEMA_VERSION
    assert not {"cache", "queue", "serial"} & set(payload["search"]["state"])
    # drive the warm engine's shared searches well past page 1's budget
    warm.query(start, cats, options=BSSROptions().but(k=8))

    engines = {
        "warm": warm,
        "cold": SkySRService(dataset).engine,
        "no-cache": SkySREngine(network, forest),
    }
    pages = {}
    for name, engine in engines.items():
        text = json.dumps(payload)
        fingerprints = []
        for _ in range(PAGES - 1):
            restored = PlanningSession.loads(engine, text)
            fingerprints.append(page_fingerprint(restored.next_page()))
            text = restored.dumps()
        pages[name] = fingerprints
    assert pages["warm"] == pages["cold"] == pages["no-cache"]


def _one_way_grid(seed, rows=4, cols=4):
    """A directed grid whose roads run only right and down, plus a few
    random chords: from most vertices some PoIs are unreachable."""
    rng = random.Random(seed)
    forest = small_forest()
    network = RoadNetwork(directed=True)
    ids = [
        [network.add_vertex(float(c), float(r)) for c in range(cols)]
        for r in range(rows)
    ]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                network.add_edge(
                    ids[r][c], ids[r][c + 1], float(rng.randint(1, 3))
                )
            if r + 1 < rows:
                network.add_edge(
                    ids[r][c], ids[r + 1][c], float(rng.randint(1, 3))
                )
    for _ in range(3):
        u, v = rng.randrange(rows * cols), rng.randrange(rows * cols)
        if u != v:
            network.add_edge(u, v, float(rng.randint(1, 4)))
    attach_integer_pois(network, 12, forest.leaves(), rng)
    return network, forest, rng


@pytest.mark.parametrize("seed", range(24))
def test_ch_restored_pages_do_not_depend_on_stream_growth(seed):
    """Under CH, one page-1 payload restored on the live engine after
    every memoized label stream was grown to its end, and on a fresh
    hierarchy whose streams grow only as far as budgets ask, serves
    identical pages 2-4, pops included, on a one-way grid where a
    route's endpoint cannot reach every candidate.  Whether a stream
    cut a route short (and so whether the route is parked) must depend
    on the stream's row alone, not on how far it was grown."""
    network, forest, rng = _one_way_grid(seed)
    _, cats = pick_query(network, forest, rng, 3, distinct_trees=False)
    options = BSSROptions(use_contraction=True)
    warm = SkySREngine(network, forest, options=options)
    session = warm.session(0, cats, page_size=1)
    session.next_page()
    payload = session.dumps()
    cold_network, cold_forest, _ = _one_way_grid(seed)
    engines = {
        "warm": warm,
        "cold": SkySREngine(cold_network, cold_forest, options=options),
    }
    pages = {}
    for name, engine in engines.items():
        text = payload
        fingerprints = []
        for _ in range(PAGES - 1):
            if name == "warm":
                memo = contraction_for(network)._memo
                for key, row in list(memo.items()):
                    if key[0] == "stream":
                        row.grow(math.inf)
            restored = PlanningSession.loads(engine, text)
            fingerprints.append(page_fingerprint(restored.next_page()))
            text = restored.dumps()
        pages[name] = fingerprints
    assert pages["warm"] == pages["cold"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 6])
def test_ch_session_pages_through_the_api_match_in_process(seed):
    """A ``use_contraction`` session paged through ``SessionApi`` is
    restored from the store on every page — its offsets replay on
    rebuilt CH streams at every position — and serves the in-process
    session's pages exactly."""
    network, forest, rng = random_instance(seed, num_pois=12)
    picked = pick_query(network, forest, rng, 3)
    assert picked is not None
    start, cats = picked
    dataset = Dataset(name=f"grid-{seed}", network=network, forest=forest)
    options = BSSROptions(use_contraction=True)
    api = SessionApi(
        SkySRService(dataset, options=options), InMemorySessionStore()
    )
    created = api.dispatch(
        "POST", "/v1/sessions",
        {"categories": cats, "start": start, "page_size": 2},
    )
    assert created.status == 201
    path = f"/v1/sessions/{created.body['session_id']}/pages"
    oracle = SkySREngine(network, forest, options=options).session(
        start, cats, page_size=2
    )
    for _ in range(PAGES):
        body = api.dispatch("POST", path).body
        page = oracle.next_page()
        assert [(tuple(r["pois"]), r["distance"]) for r in body["routes"]] == [
            (r.pois, r.length) for r in page.routes
        ]
        assert body["first_rank"] == page.first_rank
        assert body["exhausted"] == page.exhausted
        if page.exhausted:
            break


def test_unstarted_session_round_trip():
    """A session serialized before page 1 restores and starts cleanly."""
    engine, start, cats = _engine_and_query(0)
    oracle = engine.session(start, cats, page_size=2)
    restored = PlanningSession.loads(
        engine, engine.session(start, cats, page_size=2).dumps()
    )
    assert not restored.started
    assert page_fingerprint(restored.next_page()) == page_fingerprint(
        oracle.next_page()
    )


# ---------------------------------------------------------------------------
# cross-process round trip (the payload is genuinely self-contained)


_CHILD = """
import json, sys
from repro.core.session import PlanningSession
from repro.core.engine import SkySREngine
from repro.graph.io import load_dataset

dataset_path, session_path = sys.argv[1], sys.argv[2]
network, forest = load_dataset(dataset_path)
engine = SkySREngine(network, forest)
with open(session_path, encoding="utf-8") as fh:
    session = PlanningSession.loads(engine, fh.read())
page = session.next_page()
print(json.dumps({
    "scores": [(r.length, round(r.semantic, 12)) for r in page.routes],
    "pois": [list(r.pois) for r in page.routes],
    "first_rank": page.first_rank,
    "pops": page.stats.routes_expanded,
    "continued": page.stats.routes_continued,
}))
"""


def test_cross_process_round_trip(tmp_path: Path):
    """Page 1 here, page 2 in a fresh OS process restoring from a file:
    identical routes and identical (strictly-fewer-than-fresh) pops."""
    network, forest, rng = random_instance(1)
    picked = pick_query(network, forest, rng, 3)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    engine = SkySREngine(network, forest)

    dataset_path = tmp_path / "city.json"
    save_dataset(dataset_path, network, forest)
    session = engine.session(start, cats, page_size=2)
    session.next_page()
    session_path = tmp_path / "session.json"
    session_path.write_text(session.dumps(), encoding="utf-8")

    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(dataset_path), str(session_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    child = json.loads(proc.stdout)

    oracle_page2 = session.next_page()  # the same session, in-process
    assert child["scores"] == [
        [r.length, round(r.semantic, 12)] for r in oracle_page2.routes
    ]
    assert child["pois"] == [list(r.pois) for r in oracle_page2.routes]
    assert child["first_rank"] == oracle_page2.first_rank
    assert child["pops"] == oracle_page2.stats.routes_expanded
    assert child["continued"] == oracle_page2.stats.routes_continued
    fresh = engine.query(start, cats, options=BSSROptions().but(k=4))
    assert child["pops"] < fresh.stats.routes_expanded


# ---------------------------------------------------------------------------
# schema-version negotiation and strict decoding


def _payload(seed=0, pages=1):
    engine, start, cats = _engine_and_query(seed)
    session = engine.session(start, cats, page_size=2)
    for _ in range(pages):
        session.next_page()
    return engine, session.to_dict()


@pytest.mark.parametrize(
    "version",
    [SCHEMA_VERSION - 1, SCHEMA_VERSION + 1],
    ids=["previous", "next"],
)
def test_version_bump_is_rejected_with_field(version):
    """Newer payloads and the previous schema alike are refused: a
    previous-version offset addresses a different candidate stream."""
    engine, payload = _payload()
    payload["version"] = version
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "version"
    assert str(version) in str(exc.value)


def test_version_4_payload_is_rejected():
    """Version 4 stored lengths and stream offsets over unsnapped edge
    weights, and offsets into streams whose ties came out in discovery
    order: neither addresses a version 5 or later stream, so the
    payload is refused, not replayed."""
    engine, payload = _payload()
    payload["version"] = 4
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "version"


def test_version_5_payload_is_rejected():
    """Version 5 streams stopped before a candidate that tied the
    budget, and its searches pruned routes whose floor tied a
    threshold.  A session resumed under the closed budgets could swap
    an equal-score representative after it was served, so the payload
    is refused, not replayed."""
    engine, payload = _payload()
    payload["version"] = 5
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "version"


def test_version_6_payload_is_rejected():
    """Version 6 offsets index every modified-Dijkstra stream in
    distance order.  Past position 0 a stream now comes out in the
    ``(key, vertex)`` order of its to-go potential, so a version 6
    offset would skip or replay the wrong candidates: the payload is
    refused, not replayed."""
    engine, payload = _payload()
    payload["version"] = 6
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "version"


def test_version_7_payload_is_rejected():
    """Version 7 spelled out every route's similarities and semantic
    score and carried a bounds block; version 8 stores routes as
    ``[pois, length, …]`` rows and skyband, served and page routes as
    PoI tuples, so a version 7 payload is refused, not half-read."""
    engine, payload = _payload()
    payload["version"] = 7
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "version"


def test_version_8_payload_is_rejected():
    """Version 8 built and stored every child a prune test cut as its
    own deferred row, archived every completion, kept a serial column
    and wrote lengths as floats; version 9 parks cut children and
    completions under their parent as ``[PoI, length]`` pairs and
    writes lengths in weight grains, so a version 8 payload is refused,
    not misread."""
    engine, payload = _payload()
    payload["version"] = 8
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "version"


def test_version_9_payload_is_rejected():
    """Version 9 stored the route queue and its serial counter; version
    10 encodes only drained searches, so a version 9 payload is refused,
    not misread."""
    engine, payload = _payload()
    payload["version"] = 9
    payload["search"]["state"].update(queue=[], serial=0)
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "version"


def test_version_10_payload_is_rejected():
    """Version 10 stored one offset per deferred parent, into its whole
    candidate stream; version 11 stores one per similarity level, so a
    version 10 payload is refused, not misread."""
    engine, payload = _payload()
    payload["version"] = 10
    for row in payload["search"]["state"]["deferred"]:
        if row[2] is not None:
            row[2] = sum(row[2])
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "version"


def test_undrained_search_refuses_to_serialize():
    """A page that ``max_routes_expanded`` aborts leaves routes queued;
    such a search is no checkpoint, so encoding it is refused rather
    than writing queue rows no restore reads."""
    engine, start, cats = _engine_and_query(3)
    full = engine.session(start, cats, page_size=2)
    full.next_page()
    expanded = full.pages[0].stats.routes_expanded
    assert expanded > 1
    session = engine.session(
        start,
        cats,
        page_size=2,
        options=BSSROptions(max_routes_expanded=expanded - 1),
    )
    with pytest.raises(AlgorithmError):
        session.next_page()
    assert session._search.state.queue
    with pytest.raises(SessionEncodeError) as exc:
        session.to_dict()
    assert "drained" in str(exc.value)


def test_version_1_payload_with_search_cache_is_rejected():
    """Version 1 payloads serialized candidate searches; there is no
    reading path for them, only the typed version error."""
    engine, payload = _payload()
    payload["version"] = 1
    payload["search"]["state"]["cache"] = []
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "version"


def test_wrong_format_is_rejected_with_field():
    engine, payload = _payload()
    payload["format"] = "not-a-session"
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "format"


def test_aggregator_mismatch_is_rejected_with_field():
    engine, payload = _payload()
    payload["aggregator"] = "min"
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "aggregator"


def test_corrupted_json_text_raises_typed_error():
    engine, payload = _payload()
    text = json.dumps(payload)
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.loads(engine, text[: len(text) // 2])  # truncated
    assert exc.value.field == "<json>"
    with pytest.raises(SessionDecodeError):
        PlanningSession.loads(engine, "{not json")


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda p: p.pop("search"), "search"),
        (lambda p: p.pop("query"), "query"),
        (lambda p: p.__setitem__("page_size", "two"), "page_size"),
        (lambda p: p.__setitem__("page_size", True), "page_size"),
        (lambda p: p.__setitem__("served", 3), "served"),
        (lambda p: p["search"].pop("state"), "state"),
        (
            lambda p: p["search"]["state"].__setitem__("deferred", 7),
            "deferred",
        ),
    ],
)
def test_missing_or_mistyped_fields_name_the_field(mutate, field):
    """Strict decoding: never a KeyError/TypeError, always the typed
    error naming the offending field."""
    engine, payload = _payload()
    mutate(payload)
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == field


def test_corrupt_route_payload_is_wrapped_not_raw():
    engine, payload = _payload()
    payload["search"]["state"]["archive"][0][0] = "oops"
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "search.state.archive"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda row: row.__setitem__(0, [[1], [2]]),
        lambda row: row.__setitem__(1, "far"),
        lambda row: row.__setitem__(1, True),
        lambda row: row.__setitem__(1, 12.5),
        lambda row: row.__setitem__(1, 10**400),
        lambda row: row.__setitem__(1, -1),
        lambda row: row.append(0),
        lambda row: row.pop(),
        lambda row: row[0].pop(),
    ],
    ids=[
        "nested-pois",
        "length",
        "bool-length",
        "float-length",
        "huge-length",
        "negative-length",
        "extra",
        "short",
        "partial",
    ],
)
def test_malformed_route_row_names_the_field(mutate):
    """A malformed route row is a typed error naming its field, never a
    bare ``TypeError`` or ``ValueError``; an archived route visits every
    position."""
    engine, payload = _payload()
    mutate(payload["search"]["state"]["archive"][0])
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "search.state.archive"


def _unarchived(payload):
    """A PoI tuple of the query's size that no archive row holds."""
    return [-1] * len(payload["search"]["state"]["archive"][0][0])


@pytest.mark.parametrize(
    "mutate, field",
    [
        (
            lambda p: p["search"]["state"]["skyband"].__setitem__(
                0, _unarchived(p)
            ),
            "search.state.skyband",
        ),
        (lambda p: p["served"].__setitem__(0, _unarchived(p)), "served"),
        (
            lambda p: p["pages"][0]["routes"].__setitem__(0, _unarchived(p)),
            "pages.routes",
        ),
        (lambda p: p["served"].__setitem__(0, 7), "served"),
    ],
    ids=["skyband", "served", "page", "served-not-a-tuple"],
)
def test_reference_missing_from_archive_names_the_field(mutate, field):
    """Skyband members, served routes and page routes are stored as PoI
    tuples, and each must name an archive member."""
    engine, payload = _payload()
    mutate(payload)
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == field
    assert "archived" in str(exc.value)


@pytest.mark.parametrize("rows", ["archive", "deferred", "cut"])
def test_stored_poi_that_is_not_a_candidate_names_the_field(rows):
    """A route's similarities are looked up, not stored, so a PoI that is
    not a candidate at its position is corruption, in a route row and in
    a deferred row's cut ``[PoI, length]`` pairs alike."""
    engine, payload = _payload(seed=2)
    state = payload["search"]["state"]
    query = payload["query"]
    specs = engine.compile(query["start"], query["categories"]).specs

    def stranger(position):
        return next(
            v
            for v in range(engine.network.num_vertices)
            if v not in specs[position].sim_map
        )

    if rows == "cut":
        pois, _length, _consumed, cut = state["deferred"][0]
        position = len(pois)
        cut.append([stranger(position), 0])
        rows = "deferred"
    else:
        position = 0
        state[rows][0][0][0] = stranger(0)
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == f"search.state.{rows}"
    assert f"not a candidate at position {position}" in str(exc.value)


def _offsets(rows):
    """The per-level offsets of the first deferred row that has them."""
    return next(row[2] for row in rows if row[2] is not None)


def _complete_deferred_row(payload):
    """An archived (complete) route stored as a deferred row."""
    pois, length = payload["search"]["state"]["archive"][0]
    return [pois, length, None, []]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda rows: rows[0][3].append(7),
        lambda rows: rows[0][3].append([7]),
        lambda rows: rows[0][3].append([7, 1.5]),
        lambda rows: rows[0][3].append([True, 3]),
        lambda rows: rows[0][3].append([7, 3, 0]),
        lambda rows: rows[0][3].append([7, 10**400]),
        lambda rows: rows[0].__setitem__(3, None),
        lambda rows: rows[0].__setitem__(2, "far"),
        lambda rows: rows[0].__setitem__(2, 1.0),
        lambda rows: rows[0].__setitem__(2, 0),
        lambda rows: _offsets(rows).pop(),
        lambda rows: _offsets(rows).append(0),
        lambda rows: _offsets(rows).__setitem__(0, -1),
        lambda rows: _offsets(rows).__setitem__(0, True),
        lambda rows: _offsets(rows).__setitem__(0, 1.0),
        None,
    ],
    ids=[
        "pair-not-a-list",
        "short-pair",
        "float-length",
        "bool-poi",
        "long-pair",
        "huge-length",
        "cut-not-a-list",
        "offset-string",
        "offset-float",
        "offset-not-a-list",
        "one-offset-short",
        "one-offset-long",
        "negative-offset",
        "bool-offset",
        "float-offset",
        "complete-route",
    ],
)
def test_malformed_deferred_row_names_the_field(mutate):
    """A deferred row is ``[pois, length, consumed | null, [[PoI,
    length], …]]`` of a partial route, ``consumed`` holding one
    non-negative offset per similarity level of the next position;
    anything else is a typed error naming the deferred list."""
    engine, payload = _payload(seed=2)
    rows = payload["search"]["state"]["deferred"]
    if mutate is None:
        rows.insert(0, _complete_deferred_row(payload))
    else:
        mutate(rows)
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "search.state.deferred"


def test_stored_session_is_compact():
    """Routes are stored as rows and references, so a payload holds no
    similarities, semantic scores or bounds, and restores exactly.

    The fixed session (``tokyo_like(scale=0.12)``, start 241,
    categories 56, 48 and 98, pages of 3) weighs 87,144 bytes of JSON
    after 3 pages under schema 7, 28,185 bytes under schema 8, about
    17,100 bytes under schemas 9 and 10 and about 12,360 bytes under
    schema 11, whose searches read each similarity level only up to its
    own budget and so park far fewer cut pairs (its page stats hold
    timings, so the size moves by a few bytes from run to run); the pin
    allows 14,200.
    """
    data = datasets.tokyo_like(scale=0.12)
    engine = SkySREngine(data.network, data.forest)
    session = engine.session(241, [56, 48, 98], page_size=3)
    for _ in range(3):
        session.next_page()
    text = session.dumps()
    assert len(text) <= 14_200
    for field in ('"sims"', '"semantic"', '"bounds"'):
        assert field not in text
    restored = PlanningSession.loads(engine, text)
    assert page_fingerprint(restored.next_page()) == page_fingerprint(
        session.next_page()
    )


# ---------------------------------------------------------------------------
# store semantics


def test_put_get_delete_and_typed_not_found():
    store = InMemorySessionStore()
    store.put("a", {"x": 1})
    assert store.get("a") == {"x": 1}
    assert "a" in store and len(store) == 1
    assert store.delete("a") is True
    assert store.delete("a") is False
    with pytest.raises(SessionNotFoundError) as exc:
        store.get("a")
    assert not isinstance(exc.value, SessionExpiredError)


def test_ttl_expiry_is_typed_and_counted():
    now = [0.0]
    store = InMemorySessionStore(ttl=10.0, clock=lambda: now[0])
    store.put("a", {"x": 1})
    now[0] = 5.0
    assert store.get("a") == {"x": 1}
    now[0] = 20.0
    with pytest.raises(SessionExpiredError):
        store.get("a")
    assert isinstance(SessionExpiredError("x"), SessionNotFoundError)
    assert store.stats.expirations == 1
    assert "a" not in store and len(store) == 0


def test_touch_refreshes_ttl():
    now = [0.0]
    store = InMemorySessionStore(ttl=10.0, clock=lambda: now[0])
    store.put("a", {"x": 1})
    now[0] = 8.0
    store.touch("a")
    now[0] = 15.0  # would have expired without the touch
    assert store.get("a") == {"x": 1}


def test_lru_eviction_order_refreshed_by_reads():
    store = InMemorySessionStore(max_entries=2)
    store.put("a", {"v": 1})
    store.put("b", {"v": 2})
    store.get("a")  # refresh a; b becomes LRU
    store.put("c", {"v": 3})
    assert "b" not in store and "a" in store and "c" in store
    assert store.stats.evictions == 1
    assert store.ids() == ["a", "c"]  # least recently used first


def test_byte_budget_evicts_lru():
    store = InMemorySessionStore(max_bytes=100)
    store.put("a", {"v": "x" * 30})
    store.put("b", {"v": "y" * 30})
    store.put("c", {"v": "z" * 30})
    assert "a" not in store and "b" in store and "c" in store


def test_admission_error_when_eviction_disabled():
    store = InMemorySessionStore(max_entries=1, evict=False)
    store.put("a", {"v": 1})
    with pytest.raises(AdmissionError):
        store.put("b", {"v": 2})
    store.put("a", {"v": 9})  # replacing the same id is always admitted
    assert store.get("a") == {"v": 9}


def test_admission_error_when_payload_can_never_fit():
    store = InMemorySessionStore(max_bytes=8)
    with pytest.raises(AdmissionError):
        store.put("a", {"big": "x" * 100})


@pytest.mark.parametrize("bad", ["", "a/b", ".hidden", "a b", "x\n"])
def test_unsafe_session_ids_are_rejected(bad):
    with pytest.raises(QueryError):
        InMemorySessionStore().put(bad, {})


def test_store_round_trips_real_session_payloads():
    engine, payload = _payload(pages=1)
    store = InMemorySessionStore()
    store.put("trip", payload)
    restored = PlanningSession.from_dict(engine, store.get("trip"))
    assert restored.started and len(restored.served) == 2


# ---------------------------------------------------------------------------
# disk store


def test_disk_store_adopts_existing_files(tmp_path: Path):
    first = DiskSessionStore(tmp_path)
    first.put("sess-1", {"hello": "world"})
    first.put("sess-2", {"n": 2})
    second = DiskSessionStore(tmp_path)  # fresh instance, same directory
    assert len(second) == 2
    assert second.get("sess-1") == {"hello": "world"}
    assert sorted(second.ids()) == ["sess-1", "sess-2"]


def test_disk_store_corruption_is_typed(tmp_path: Path):
    store = DiskSessionStore(tmp_path)
    store.put("s", {"ok": True})
    (tmp_path / "s.json").write_text("{truncated", encoding="utf-8")
    with pytest.raises(SessionDecodeError) as exc:
        store.get("s")
    assert exc.value.field == "<json>"


def test_disk_store_delete_removes_file(tmp_path: Path):
    store = DiskSessionStore(tmp_path)
    store.put("s", {"ok": True})
    assert (tmp_path / "s.json").exists()
    store.delete("s")
    assert not (tmp_path / "s.json").exists()
    assert list(tmp_path.glob("*.tmp")) == []  # atomic write left no junk

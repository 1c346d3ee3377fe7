"""Resumable planning sessions: the pagination property/oracle layer.

Four pillars of evidence:

* **pagination exactness** — paginating twice with ``page_size = k``
  yields exactly the ranked routes of a single ``k = 2k`` run, and the
  concatenation of pages 1..p equals the one-shot top-(p·k), all
  cross-checked against the brute-force top-k oracle on small
  synthetic cities (score-for-score: equal-score routes are
  interchangeable representatives under Definition 4.1);
* **resume efficiency** — a resumed page does strictly less search
  work (queue pops) than recomputing the widened query from scratch;
* **state-machine behaviour** — exhaustion detection, variable page
  sizes, no duplicates, guard rails;
* **engine/result plumbing** — the session factory and page results.
"""

from __future__ import annotations

import pytest

from repro.baselines.topk import brute_force_topk
from repro.core.bssr import BSSRSearch
from repro.core.dominance import SkybandSet
from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.errors import AlgorithmError, QueryError

from .conftest import pick_query, random_instance, score_set


def scores(routes) -> list[tuple[float, float]]:
    return [(r.length, round(r.semantic, 9)) for r in routes]


def _engine_and_query(seed, size=3):
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, size)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    return SkySREngine(network, forest), network, start, cats


# ---------------------------------------------------------------------------
# pagination exactness (the acceptance property)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [2, 3])
def test_two_pages_equal_one_shot_double_k(seed, k):
    """Satellite property: two pages of size k == a single 2k run."""
    engine, _network, start, cats = _engine_and_query(seed)
    session = engine.session(start, cats, page_size=k)
    page1 = session.next_page()
    page2 = session.next_page()
    oneshot = engine.query(start, cats, options=BSSROptions().but(k=2 * k))
    assert scores(page1.routes) + scores(page2.routes) == scores(
        oneshot.topk(2 * k)
    )


@pytest.mark.parametrize("seed", range(12))
def test_concatenated_pages_match_brute_force_oracle(seed):
    """Pages 1..p == oracle top-(p*k) for every prefix p."""
    engine, network, start, cats = _engine_and_query(seed)
    page_size = 2
    session = engine.session(start, cats, page_size=page_size)
    compiled = engine.compile(start, cats)
    served: list = []
    for p in range(1, 4):
        page = session.next_page()
        served.extend(page.routes)
        oracle = brute_force_topk(network, compiled, p * page_size)
        assert scores(served) == scores(oracle), f"prefix p={p}"
        if page.exhausted:
            break


@pytest.mark.parametrize("seed", range(8))
def test_resumed_skyband_equals_fresh_skyband(seed):
    """The widened checkpoint is the exact k'-skyband, not an
    approximation: same score set as a from-scratch run."""
    engine, _network, start, cats = _engine_and_query(seed)
    compiled = engine.compile(start, cats)
    search = BSSRSearch(
        engine.network, compiled, engine.aggregator, BSSROptions().but(k=2)
    )
    search.run()
    resumed, _ = search.resume(5)
    fresh = BSSRSearch(
        engine.network, compiled, engine.aggregator, BSSROptions().but(k=5)
    )
    fresh_band, _ = fresh.run()
    assert score_set(resumed) == score_set(fresh_band)


@pytest.mark.parametrize("seed", [2, 7])
def test_session_with_destination_matches_oracle(seed):
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, 2)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    destination = rng.randrange(network.num_vertices)
    engine = SkySREngine(network, forest)
    session = engine.session(start, cats, destination=destination, page_size=2)
    served = list(session.next_page()) + list(session.next_page())
    compiled = engine.compile(start, cats, destination=destination)
    assert scores(served) == scores(brute_force_topk(network, compiled, 4))


@pytest.mark.parametrize(
    "options",
    [BSSROptions(), BSSROptions(use_contraction=True)],
    ids=["default", "ch"],
)
def test_a_parent_whose_cursor_a_budget_stopped_resumes_exactly(options):
    """Without a2 (see ``_sibling_network``), once ⟨a1, b1⟩ sets the
    threshold to 2 the empty route's cursor stops at a3: its key 2 is
    past the budget 2 − 1, and nothing was cut.  The cursor parks the
    empty route at that offset, and the next page resumes it there:
    pages of one route equal the one-shot ``k'`` runs rank for rank,
    and page 2 is ⟨a3, b3⟩ (length 3), which only that parent reaches."""
    from .test_expansion import _sibling_network, _triples

    net, forest, s, pois = _sibling_network(with_a2=False)
    engine = SkySREngine(net, forest)
    cats = ["Ramen", "Gift"]
    session = engine.session(s, cats, page_size=1, options=options)
    served = list(session.next_page().routes)
    parked = [
        d for d in session._search.state.deferred if not d.route.pois
    ]
    assert [(d.consumed, d.cut) for d in parked] == [((1,), [])]
    for k in range(2, 5):
        page = session.next_page()
        served += page.routes
        one_shot = engine.query(s, cats, options=options.but(k=k))
        assert _triples(served) == _triples(one_shot.topk(k)), k
    assert [r.pois for r in served[:2]] == [
        (pois["a1"], pois["b1"]),
        (pois["a3"], pois["b3"]),
    ]


def _read_out_network():
    """Undirected: ``s`` reaches the Ramen PoIs a1 and a2 at 1 each;
    a1 reaches the destination ``d`` at 1 and a2 at 3, so ⟨a1⟩ is 2 long
    and ⟨a2⟩ 4."""
    from repro.graph.road_network import RoadNetwork

    from .conftest import small_forest

    forest = small_forest()
    net = RoadNetwork()
    s = net.add_vertex()
    d = net.add_vertex()
    pois = {}
    for name, leg in [("a1", 1.0), ("a2", 3.0)]:
        pois[name] = net.add_poi(forest.resolve("Ramen"))
        net.add_edge(s, pois[name], 1.0)
        net.add_edge(pois[name], d, leg)
    return net, forest, s, d, pois


def test_a_parent_read_to_its_end_resumes_without_a_stream():
    """Once ⟨a1⟩ (length 2) sets the threshold, a2 is still inside the
    budget 2 − 1 (the reserve is the least leg to ``d``), so it is read
    and its completion, 4 long, is cut.  No Ramen PoI is left, so the
    empty route is parked read to its end (``consumed is None``) with
    that one pair.  After a JSON round trip the next page re-tests the
    pair at k' = 2 and offers it without opening a stream: no modified
    Dijkstra runs and nothing is settled."""
    from repro.core.session import PlanningSession

    from .test_expansion import _triples

    net, forest, s, d, pois = _read_out_network()
    engine = SkySREngine(net, forest)
    session = engine.session(s, ["Ramen"], destination=d, page_size=1)
    served = list(session.next_page().routes)
    parked = session._search.state.deferred
    assert [(p.route.pois, p.consumed, p.cut) for p in parked] == [
        ((), None, [(pois["a2"], 4.0)])
    ]
    session = PlanningSession.loads(engine, session.dumps())
    page = session.next_page()
    served += page.routes
    one_shot = engine.query(
        s, ["Ramen"], destination=d, options=BSSROptions(k=2)
    )
    assert _triples(served) == _triples(one_shot.topk(2))
    assert [r.pois for r in served] == [(pois["a1"],), (pois["a2"],)]
    assert page.stats.mdijkstra_runs == 0
    assert page.stats.settled == 0


# ---------------------------------------------------------------------------
# resume efficiency (the benchmark acceptance, pinned as a property)


@pytest.mark.parametrize("seed", range(10))
def test_resume_does_strictly_less_work_than_recompute(seed):
    engine, _network, start, cats = _engine_and_query(seed)
    session = engine.session(start, cats, page_size=2)
    session.next_page()
    page2 = session.next_page()
    if page2.stats.extra.get("exhausted"):
        pytest.skip("alternatives exhausted before page 2")
    fresh = engine.query(start, cats, options=BSSROptions().but(k=session.k))
    assert page2.stats.routes_expanded < fresh.stats.routes_expanded


def test_page_within_checkpoint_does_no_search():
    engine, _network, start, cats = _engine_and_query(0)
    session = engine.session(start, cats, page_size=4)
    session.next_page(2)  # runs the k=4 search, serves ranks 1..2
    page2 = session.next_page(2)  # ranks 3..4 are already settled
    assert page2.stats.extra.get("served_from_checkpoint")
    assert page2.stats.routes_expanded == 0


# ---------------------------------------------------------------------------
# state-machine behaviour


@pytest.mark.parametrize("seed", range(6))
def test_pages_never_repeat_routes(seed):
    engine, _network, start, cats = _engine_and_query(seed)
    session = engine.session(start, cats, page_size=2)
    seen = []
    for _ in range(10):
        page = session.next_page()
        seen.extend(scores(page.routes))
        if page.exhausted:
            break
    assert len(seen) == len(set(seen))


def test_exhausted_session_serves_empty_pages():
    engine, _network, start, cats = _engine_and_query(1, size=2)
    session = engine.session(start, cats, page_size=50)
    first = session.next_page()
    assert first.exhausted  # k=50 clears the whole route space
    again = session.next_page()
    assert len(again) == 0
    assert again.stats.extra.get("exhausted")
    assert again.stats.routes_expanded == 0


def test_variable_page_sizes_cover_contiguous_ranks():
    engine, _network, start, cats = _engine_and_query(0)
    session = engine.session(start, cats, page_size=2)
    a = session.next_page(1)
    b = session.next_page(3)
    assert list(a.ranks) == [1]
    assert list(b.ranks) == [2, 3, 4][: len(b)]
    oneshot = engine.query(start, cats, options=BSSROptions().but(k=4))
    assert scores(session.served) == scores(oneshot.topk(4))


def test_session_guard_rails():
    engine, _network, start, cats = _engine_and_query(0)
    with pytest.raises(QueryError):
        engine.session(start, cats, page_size=0)
    with pytest.raises(QueryError):
        engine.session(start, cats, diversity_lambda=1.5)
    session = engine.session(start, cats, page_size=2)
    with pytest.raises(QueryError):
        session.next_page(0)


def test_search_state_guard_rails():
    engine, _network, start, cats = _engine_and_query(0)
    compiled = engine.compile(start, cats)
    search = BSSRSearch(engine.network, compiled, engine.aggregator)
    with pytest.raises(AlgorithmError):
        search.resume(3)  # resume before run
    search.run()
    with pytest.raises(AlgorithmError):
        search.run()  # run twice
    search2 = BSSRSearch(
        engine.network, compiled, engine.aggregator, BSSROptions().but(k=4)
    )
    search2.run()
    with pytest.raises(QueryError):
        search2.resume(2)  # narrowing a checkpoint


# ---------------------------------------------------------------------------
# plumbing


def test_session_page_results_and_stats(figure1):
    engine = SkySREngine(figure1.network, figure1.forest)
    start = figure1.landmarks["vq"]
    cats = ["Asian Restaurant", "Arts & Entertainment", "Gift Shop"]
    session = engine.session(start, cats, page_size=2)
    page = session.next_page()
    assert page.number == 1 and page.first_rank == 1 and not page.resumed
    result = session.to_result(page)
    assert result.algorithm == "bssr-session"
    assert [r.pois for r in result.routes] == [r.pois for r in page.routes]
    table = result.to_page_table(first_rank=page.first_rank)
    assert table.splitlines()[1].lstrip().startswith("1")
    page2 = session.next_page()
    assert page2.resumed and page2.first_rank == len(page.routes) + 1
    total = session.total_stats()
    assert total.routes_expanded == sum(
        p.stats.routes_expanded for p in session.pages
    )


def test_options_carry_page_size_and_lambda():
    opts = BSSROptions().but(page_size=4, diversity_lambda=0.3)
    assert opts.page_size == 4 and opts.diversity_lambda == 0.3
    with pytest.raises(QueryError):
        BSSROptions(page_size=0)
    with pytest.raises(QueryError):
        BSSROptions(diversity_lambda=-0.1)
    with pytest.raises(QueryError):
        BSSROptions(diversity_lambda=1.1)
    engine, _network, start, cats = _engine_and_query(0)
    # options-level page_size feeds the session default
    session = engine.session(start, cats, options=BSSROptions().but(page_size=3))
    assert session.page_size == 3


def test_deferred_routes_are_counted():
    """The checkpoint machinery parks pruned work instead of dropping
    it, and says so in the stats."""
    engine, _network, start, cats = _engine_and_query(0)
    compiled = engine.compile(start, cats)
    search = BSSRSearch(engine.network, compiled, engine.aggregator)
    search.run()
    assert search.stats.routes_deferred == len(search.state.deferred)


@pytest.mark.parametrize("seed", range(8))
def test_checkpointable_runs_archive_no_route_above_its_threshold(
    seed, monkeypatch
):
    """A completion longer than the threshold at its own semantic score
    is parked under its parent as ``(PoI, length)``, never offered to
    the live skyband (nor archived): not on the first run, and not when
    a resume replays it under a wider ``k``."""
    engine, _network, start, cats = _engine_and_query(seed)
    compiled = engine.compile(start, cats)
    search = BSSRSearch(
        engine.network, compiled, engine.aggregator, BSSROptions().but(k=2)
    )
    above = []
    update = SkybandSet.update

    def checked(band, route):
        # a resume rebuilds its band from the archive first; only
        # offers to the live band come from the search itself
        if band is search.state.skyband:
            if route.length > band.threshold(route.semantic):
                above.append(route)
        return update(band, route)

    monkeypatch.setattr(SkybandSet, "update", checked)
    search.run()
    for k in (4, 6):
        search.resume(k)
    assert above == []
    # and a parked completion is never archived as well
    assert not any(
        item.route.size + 1 == compiled.size
        and item.route.pois + (vid,) in search.state.archive
        for item in search.state.deferred
        for vid, _length in item.cut
    )

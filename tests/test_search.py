"""The modified Dijkstra (Algorithm 2): unfiltered emission, order, resume."""

import math

import pytest

from repro.core.search import PoICandidateSearch
from repro.core.spec import CategoryRequirement, compile_query
from repro.core.stats import SearchStats
from repro.graph.poi import PoIIndex
from repro.graph.road_network import RoadNetwork
from repro.semantics.similarity import HierarchyWuPalmer

from .conftest import small_forest


def _line_instance():
    """start -- p_weak -- p_perfect -- p_far  on one line.

    p_weak (Italian, sim 0.5 for query Ramen), p_perfect (Ramen, sim 1),
    p_far (Sushi, sim 0.8) strictly behind the perfect match.
    """
    forest = small_forest()
    net = RoadNetwork()
    start = net.add_vertex()
    weak = net.add_poi(forest.resolve("Italian"))
    perfect = net.add_poi(forest.resolve("Ramen"))
    far = net.add_poi(forest.resolve("Sushi"))
    net.add_edge(start, weak, 1.0)
    net.add_edge(weak, perfect, 1.0)
    net.add_edge(perfect, far, 1.0)
    index = PoIIndex(net, forest)
    spec = CategoryRequirement(forest.resolve("Ramen")).compile(
        index, HierarchyWuPalmer(), 0
    )
    return net, spec, dict(start=start, weak=weak, perfect=perfect, far=far)


def _read(search, budget, start=None):
    """``(distance, vid, sim)`` of every candidate ``scored_until`` hands
    out, in stream order, with the same ``budget`` (a float, or a
    callable read before every segment) at every level, from per-level
    offsets ``start``."""
    levels = len(search.levels)
    if not callable(budget):
        budget = (lambda b=budget: b)
    found = []
    for level, lo, hi in search.scored_until(
        [budget] * levels, start=start or (0,) * levels
    ):
        found += search.levels[level][1][lo:hi]
    vids = search.candidates
    return [
        (search.dists[i], vids[i], search.sim_map[vids[i]])
        for i in sorted(found)
    ]


def test_candidates_in_distance_order_with_perfect_stop():
    """Every match comes out at its true distance, in ``(d, vid)``
    order.  The perfect match no longer stops traversal (Lemma 5.5 ii
    is dropped), so ``far`` appears behind it."""
    net, spec, ids = _line_instance()
    search = PoICandidateSearch(net, spec, ids["start"])
    found = _read(search, math.inf)
    assert found == [
        (1.0, ids["weak"], 0.5),
        (2.0, ids["perfect"], 1.0),
        (3.0, ids["far"], 0.8),
    ]


def test_suppression_of_weaker_candidate_behind_stronger():
    """No suppression (Lemma 5.5 i is dropped): a PoI behind another
    with >= similarity is still emitted, because the stronger one may be
    needed elsewhere in the route, or the weaker one may rank in a
    k-skyband."""
    forest = small_forest()
    net = RoadNetwork()
    start = net.add_vertex()
    sushi = net.add_poi(forest.resolve("Sushi"))     # sim 0.8 for Ramen
    italian = net.add_poi(forest.resolve("Italian"))  # sim 0.5, behind sushi
    net.add_edge(start, sushi, 1.0)
    net.add_edge(sushi, italian, 1.0)
    index = PoIIndex(net, forest)
    spec = CategoryRequirement(forest.resolve("Ramen")).compile(
        index, HierarchyWuPalmer(), 0
    )
    search = PoICandidateSearch(net, spec, start)
    found = _read(search, math.inf)
    assert found == [(1.0, sushi, 0.8), (2.0, italian, 0.5)]


def test_equal_distance_candidates_in_vertex_order():
    """Ties on distance come out by vertex id, whatever the path."""
    forest = small_forest()
    net = RoadNetwork()
    start = net.add_vertex()
    a = net.add_poi(forest.resolve("Ramen"))
    b = net.add_poi(forest.resolve("Sushi"))
    c = net.add_poi(forest.resolve("Italian"))
    net.add_edge(start, c, 1.0)
    net.add_edge(c, b, 1.0)
    net.add_edge(start, a, 2.0)
    index = PoIIndex(net, forest)
    spec = CategoryRequirement(forest.resolve("Ramen")).compile(
        index, HierarchyWuPalmer(), 0
    )
    search = PoICandidateSearch(net, spec, start)
    found = [(d, v) for d, v, _ in _read(search, math.inf)]
    assert found == [(1.0, c), (2.0, a), (2.0, b)]


def test_stronger_candidate_behind_weaker_is_emitted():
    forest = small_forest()
    net = RoadNetwork()
    start = net.add_vertex()
    italian = net.add_poi(forest.resolve("Italian"))  # sim 0.5
    sushi = net.add_poi(forest.resolve("Sushi"))      # sim 0.8 behind it
    net.add_edge(start, italian, 1.0)
    net.add_edge(italian, sushi, 1.0)
    index = PoIIndex(net, forest)
    spec = CategoryRequirement(forest.resolve("Ramen")).compile(
        index, HierarchyWuPalmer(), 0
    )
    search = PoICandidateSearch(net, spec, start)
    found = [(v, s) for _, v, s in _read(search, math.inf)]
    assert found == [(italian, 0.5), (sushi, 0.8)]


def test_budget_pauses_and_resumes_search():
    net, spec, ids = _line_instance()
    search = PoICandidateSearch(net, spec, ids["start"])
    first = _read(search, 1.5)
    assert [v for _, v, _ in first] == [ids["weak"]]
    assert not search.exhausted
    # resume with a bigger budget: stored candidates replayed first
    second = _read(search, 2.5)
    assert [v for _, v, _ in second] == [ids["weak"], ids["perfect"]]
    assert search.radius == 2.0
    assert not search.exhausted
    # a consumer resuming at its per-level offsets (levels 1.0, 0.8,
    # 0.5: perfect, far, weak) sees only the remainder
    third = _read(search, math.inf, start=(1, 0, 1))
    assert [v for _, v, _ in third] == [ids["far"]]
    assert search.radius == 3.0
    assert search.exhausted


def test_dynamic_budget_callable():
    net, spec, ids = _line_instance()
    search = PoICandidateSearch(net, spec, ids["start"])
    budgets = iter([5.0, 5.0, 5.0, 0.0, 0.0, 0.0])
    found = _read(search, lambda: next(budgets))
    assert len(found) <= 2


def test_stats_counters():
    net, spec, ids = _line_instance()
    stats = SearchStats()
    search = PoICandidateSearch(net, spec, ids["start"], stats=stats)
    _read(search, math.inf)
    assert stats.settled == 4  # start, weak, perfect and far behind it
    assert stats.relaxed == 6  # both directions of the three edges
    assert stats.heap_pushes == 3


def test_source_can_be_candidate():
    """A query starting on a matching PoI yields a zero-length candidate,
    and the search goes on past it."""
    forest = small_forest()
    net = RoadNetwork()
    poi = net.add_poi(forest.resolve("Ramen"))
    other = net.add_poi(forest.resolve("Sushi"))
    net.add_edge(poi, other, 2.0)
    index = PoIIndex(net, forest)
    spec = CategoryRequirement(forest.resolve("Ramen")).compile(
        index, HierarchyWuPalmer(), 0
    )
    search = PoICandidateSearch(net, spec, poi)
    found = _read(search, math.inf)
    assert found == [(0.0, poi, 1.0), (2.0, other, 0.8)]


def test_compiled_query_end_to_end():
    forest = small_forest()
    net = RoadNetwork()
    start = net.add_vertex()
    ramen = net.add_poi(forest.resolve("Ramen"))
    gift = net.add_poi(forest.resolve("Gift"))
    net.add_edge(start, ramen, 1.0)
    net.add_edge(ramen, gift, 1.0)
    index = PoIIndex(net, forest)
    compiled = compile_query(start, ["Ramen", "Gift"], index, HierarchyWuPalmer())
    s0 = PoICandidateSearch(net, compiled.specs[0], start)
    assert [v for _, v, _ in _read(s0, math.inf)] == [ramen]
    s1 = PoICandidateSearch(net, compiled.specs[1], ramen)
    assert [v for _, v, _ in _read(s1, math.inf)] == [gift]


def test_budget_hands_out_one_match_per_segment():
    """A budget is re-read before every segment, and the search stops at
    each match, so each segment holds one candidate and the search
    settles only as far as the last one read.  Three Ramen PoIs on a
    line make one level, so the level is the whole stream."""
    forest = small_forest()
    net = RoadNetwork()
    start = net.add_vertex()
    ramen = [net.add_poi(forest.resolve("Ramen")) for _ in range(3)]
    for u, v in zip([start, *ramen], ramen):
        net.add_edge(u, v, 1.0)
    spec = CategoryRequirement(forest.resolve("Ramen")).compile(
        PoIIndex(net, forest), HierarchyWuPalmer(), 0
    )
    assert spec.levels == (1.0,)
    stats = SearchStats()
    single = PoICandidateSearch(net, spec, start, stats=stats)
    reads = single.scored_until([lambda: 2.5], start=(0,))
    assert next(reads) == (0, 0, 1)
    # start and the first PoI: the second one waits for the next read
    assert stats.settled == 2 and single.candidates == ramen[:1]
    assert list(reads) == [(0, 1, 2)]
    assert stats.settled == 3  # the third PoI (3.0) is past the budget
    assert single.dists == [1.0, 2.0]
    assert single.candidates == ramen[:2]
    # a resumed consumer gets the replay, then the new match
    assert list(single.scored_until([lambda: math.inf], start=(1,))) == [
        (0, 1, 2),
        (0, 2, 3),
    ]
    assert list(single.scored_until([lambda: math.inf], start=(3,))) == []


def test_budget_is_closed():
    """A candidate exactly at the budget is within it: it can still tie
    the threshold.  The search settles up to the budget and no further."""
    net, spec, ids = _line_instance()
    stats = SearchStats()
    search = PoICandidateSearch(net, spec, ids["start"], stats=stats)
    found = _read(search, 2.0)
    assert [(d, v) for d, v, _ in found] == [
        (1.0, ids["weak"]),
        (2.0, ids["perfect"]),
    ]
    assert search.radius == 2.0
    assert stats.settled == 3  # start, weak, perfect; far (3.0) waits
    assert not search.exhausted


def test_ch_stream_bisects_once_per_budget():
    from array import array

    from repro.core.search import CHCandidateStream
    from repro.graph.contraction import CHBucket, LabelStream

    # one hub at distance 0 from the source, holding four targets, by
    # slot (index in the sorted targets 3, 4, 7, 9): 7 at 1.0, 3 and 9
    # at 2.0, 4 at 5.0
    bucket = CHBucket(
        targets=array("i", [3, 4, 7, 9]),
        pairs={
            0: (array("d", [1.0, 2.0, 2.0, 5.0]), array("i", [2, 0, 3, 1]))
        },
        hubmin={0: 1.0},
    )
    sim_map = {7: 1.0, 3: 1.0, 9: 1.0, 4: 1.0}
    hubs = (array("d", [0.0]), array("i", [0]))
    stream = CHCandidateStream(
        LabelStream(hubs, bucket, sim_map, (1.0,)), sim_map
    )
    # the budget is closed: both candidates at exactly 2.0 are within it,
    # and the row grows only that far
    assert list(stream.scored_until([lambda: 2.0], start=(0,))) == [
        (0, 0, 3)
    ]
    assert list(stream.candidates) == [7, 3, 9]
    assert stream.radius == 2.0 and not stream.exhausted
    assert list(stream.scored_until([lambda: 1.5], start=(0,))) == [
        (0, 0, 1)
    ]
    assert list(stream.scored_until([lambda: 3.0], start=(1,))) == [
        (0, 1, 3)
    ]
    # one bisect per budget value read: the second read finds nothing
    budgets = iter([3.0, 3.0])
    assert list(
        stream.scored_until([lambda: next(budgets)], start=(0,))
    ) == [(0, 0, 3)]
    # the budget is read again after each segment: a rising one reads on
    budgets = iter([1.0, 2.0, 2.0])
    assert list(
        stream.scored_until([lambda: next(budgets)], start=(0,))
    ) == [(0, 0, 1), (0, 1, 3)]
    assert list(stream.scored_until([lambda: math.inf], start=(4,))) == []
    assert stream.exhausted and list(stream.candidates) == [7, 3, 9, 4]


# ----------------------------------------------------------------------
# the consumer seam: BSSR reads every stream through ``scored_until``


def test_both_stream_kinds_hand_out_segments_from_generator_functions():
    """perfbench times ``scored_until`` one generator step at a time,
    which needs a generator function on both classes."""
    import inspect

    from repro.core.search import CHCandidateStream

    for cls in (PoICandidateSearch, CHCandidateStream):
        assert inspect.isgeneratorfunction(cls.__dict__["scored_until"])


@pytest.mark.parametrize(
    "use_contraction, stream_class",
    [(False, "PoICandidateSearch"), (True, "CHCandidateStream")],
)
def test_every_expansion_reads_its_stream_through_scored_until(
    monkeypatch, use_contraction, stream_class
):
    from repro import SkySREngine
    from repro.core import search as search_module
    from repro.core.options import BSSROptions

    from .conftest import pick_query, random_instance

    network, forest, rng = random_instance(3, num_pois=12)
    start, cats = pick_query(network, forest, rng, 3)
    engine = SkySREngine(network, forest)
    options = BSSROptions(use_contraction=use_contraction, k=2)
    expected = engine.query(start, cats, options=options)

    cls = getattr(search_module, stream_class)
    original = cls.__dict__["scored_until"]
    calls = []

    def counted(self, budget, *, start=0):
        calls.append(start)
        yield from original(self, budget, start=start)

    monkeypatch.setattr(cls, "scored_until", counted)
    result = engine.query(start, cats, options=options)
    assert result.routes == expected.routes
    # the start vertex's expansion plus one per queue pop
    assert len(calls) == result.stats.routes_expanded + 1

    def silent(self, budget, *, start=0):
        return
        yield

    monkeypatch.setattr(cls, "scored_until", silent)
    starved = engine.query(start, cats, options=options)
    assert starved.stats.routes_enqueued == 0
    assert starved.stats.routes_expanded == 0

"""Contraction hierarchy ≡ Dijkstra: the exactness property layer.

The CH subsystem (:mod:`repro.graph.contraction`) promises exact
distances — preprocessing may add redundant shortcuts but never a wrong
one, and every query primitive (point-to-point, one-to-many buckets,
set-to-set minima, the lazy destination oracle) must agree with the
plain Dijkstra kernels.  Integer edge weights make float sums exact, so
these tests compare with strict equality at the oracle level and
against the exhaustive skyline/top-k oracles; against the default
search backends, engine-level CH answers are compared at the 9-decimal
grain because CH sums associate differently along up-then-down paths.

The oracle cells also run the modified Dijkstra (default options, with
and without its cache, and without lower bounds), whose unfiltered
streams must agree just as exactly, PoI tuple for PoI tuple.  Also pinned here: that ALT is inert under CH, that the stall filter
fires and keeps every consumer exact, that legs from one category
share one sweep, that a PoI edit drops every category-keyed memo, the
checkpoint round-trip under CH candidate streams, the stats surfaces,
and that every target bucket is built at most once per distinct target
set per hierarchy, cache or no cache.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import brute_force_skysr
from repro.baselines.topk import brute_force_topk
from repro.core.bssr import BSSRSearch
from repro.core.distcache import DistanceCache
from repro.core.dominance import rank_routes
from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.core.stats import SearchStats
from repro.datasets.presets import tokyo_like
from repro.datasets.workloads import generate_workload
from repro.graph.contraction import (
    CHDistanceOracle,
    ContractionHierarchy,
    contraction_for,
    shared_bucket,
)
from repro.graph.dijkstra import dijkstra
from repro.graph.landmarks import LandmarkIndex

from .conftest import pick_query, random_instance, score_set


# ----------------------------------------------------------------------
# oracle-level exactness: every primitive against plain Dijkstra


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), directed=st.booleans())
def test_property_distances_identical_to_dijkstra(seed, directed):
    network, _forest, rng = random_instance(seed, directed=directed)
    ch = contraction_for(network)
    n = network.num_vertices
    for source in rng.sample(range(n), 4):
        exact = dijkstra(network, source)
        for target in rng.sample(range(n), 6):
            assert ch.distance(source, target) == exact.get(
                target, math.inf
            )


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), directed=st.booleans())
def test_property_many_to_many_identical_to_dijkstra(seed, directed):
    network, _forest, rng = random_instance(seed, directed=directed)
    ch = contraction_for(network)
    n = network.num_vertices
    targets = rng.sample(range(n), 5)
    sources = rng.sample(range(n), 3)
    bucket = ch.bucket(targets)
    reference = {
        t: dijkstra(network, t, reverse=True) for t in targets
    }
    for s in sources:
        row = ch.distances_from(s, bucket)
        for t in targets:
            assert row.get(t, math.inf) == reference[t].get(s, math.inf)
    expected = min(
        reference[t].get(s, math.inf) for t in targets for s in sources
    )
    assert ch.min_from_set(sources, bucket) == expected


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), directed=st.booleans())
# directed seeds whose labels turn inexact when the forward sweep's
# stall test reads the upward arcs instead of the downward ones
@example(seed=4, directed=True)
@example(seed=79, directed=True)
def test_property_stall_pruned_labels_exact_from_every_vertex(seed, directed):
    """Every consumer of the stall-pruned labels — point-to-point,
    one-to-many rows, per-vertex floors, the destination oracle and the
    memoized ``"ls"``/``"lp"``/``"dest"`` leg minima — equals Dijkstra
    from every vertex."""
    network, forest, rng = random_instance(seed, directed=directed)
    ch = contraction_for(network)
    n = network.num_vertices
    exact = {u: dijkstra(network, u) for u in range(n)}

    def d(u, v):
        return exact[u].get(v, math.inf)

    for u in range(n):
        for v in range(n):
            assert ch.distance(u, v) == d(u, v)
    picked = pick_query(network, forest, rng, 2, distinct_trees=False)
    if picked is None:
        return
    start, cats = picked
    first, second = SkySREngine(network, forest).compile(start, cats).specs

    destination = rng.randrange(n)
    oracle = CHDistanceOracle(ch, destination)
    bucket = ch.memo_bucket("cands", second.share_key, second.sim_map)
    for u in range(n):
        row = ch.distances_from(u, bucket)
        for t in second.sim_map:
            assert row.get(t, math.inf) == d(u, t)
        assert ch.vertex_min(
            "cands", second.share_key, u, second.sim_map
        ) == min(d(u, t) for t in second.sim_map)
        assert oracle.get(u, math.inf) == d(u, destination)

    def set_min(sources, targets):
        return min(
            (d(s, t) for s in sources for t in targets), default=math.inf
        )

    src_key, tgt_key = first.share_key, second.share_key
    pbucket = ch.memo_bucket("perfect", tgt_key, second.perfect)
    legs = [
        (("ls", src_key, tgt_key), bucket, second.sim_map),
        (("lp", src_key, tgt_key), pbucket, second.perfect),
        (("dest", src_key, destination), oracle.bucket, (destination,)),
    ]
    for key, target_bucket, targets in legs:
        assert ch.memo_min(
            key, src_key, first.sim_map, target_bucket
        ) == set_min(first.sim_map, targets)


def test_stall_filter_prunes_forward_labels():
    """Pin that the filter fires: over 100 sources on tokyo@0.12 the
    kept forward labels are at most 0.7 of the settles (about 0.55)."""
    data = tokyo_like(0.12)
    ch = contraction_for(data.network)
    counters = SearchStats()
    sources = random.Random(0).sample(range(data.network.num_vertices), 100)
    kept = sum(len(ch.forward_row(u, counters)) for u in sources)
    assert kept <= 0.7 * counters.settled


def test_legs_from_one_source_set_share_one_sweep(monkeypatch):
    """Two ``"ls"`` legs leaving one category sweep its set once."""
    network, forest, rng = random_instance(1, num_pois=12)
    ch = contraction_for(network)
    engine = SkySREngine(network, forest)
    picked = pick_query(network, forest, rng, 3)
    assert picked is not None
    start, cats = picked
    first, second, third = engine.compile(start, cats).specs
    buckets = [
        ch.memo_bucket("cands", spec.share_key, spec.sim_map)
        for spec in (second, third)
    ]
    sweeps = [0]
    sweep = ContractionHierarchy._sweep

    def counted(self, sources, forward, counters=None):
        sweeps[0] += 1
        return sweep(self, sources, forward, counters)

    monkeypatch.setattr(ContractionHierarchy, "_sweep", counted)
    values = [
        ch.memo_min(
            ("ls", first.share_key, spec.share_key),
            first.share_key,
            first.sim_map,
            bucket,
        )
        for spec, bucket in zip((second, third), buckets)
    ]
    assert sweeps[0] == 1
    assert values == [ch.min_from_set(first.sim_map, b) for b in buckets]


def test_destination_oracle_matches_reverse_dijkstra():
    network, _forest, rng = random_instance(99, directed=True)
    ch = contraction_for(network)
    destination = rng.randrange(network.num_vertices)
    oracle = CHDistanceOracle(ch, destination)
    exact = dijkstra(network, destination, reverse=True)
    for vid in range(network.num_vertices):
        assert oracle.get(vid, math.inf) == exact.get(vid, math.inf)


def test_memoized_rows_and_streams_are_consistent():
    network, forest, rng = random_instance(7)
    ch = contraction_for(network)
    engine = SkySREngine(network, forest)
    picked = pick_query(network, forest, rng, 2)
    assert picked is not None
    start, cats = picked
    spec = engine.compile(start, cats).specs[-1]
    assert spec.share_key is not None
    # an engine query under CH reads candidate rows only as streams: no
    # ("drow", "cands", ...) copy is memoized beside them
    engine.query(start, cats, options=BSSROptions(use_contraction=True))
    assert any(key[0] == "stream" for key in ch._memo)
    assert not any(key[:2] == ("drow", "cands") for key in ch._memo)
    bucket = ch.bucket(spec.sim_map)
    row = ch.distances_from(start, bucket)
    assert ch.memo_row("cands", spec.share_key, start, spec.sim_map) == row
    # memo hit: same object, no recomputation
    memo = ch.memo_row("cands", spec.share_key, start, spec.sim_map)
    assert memo is ch.memo_row("cands", spec.share_key, start, spec.sim_map)
    # the stream grown to the end is the row as (dists, vids) typed
    # arrays in (d, vid) order, stored once: a memo hit returns the same
    # object
    stream = ch.memo_stream(
        spec.share_key, start, spec.sim_map, spec.levels
    )
    stream.grow(math.inf)
    assert list(zip(stream.dists, stream.vids)) == sorted(
        (d, vid) for vid, d in row.items()
    )
    assert stream is ch.memo_stream(
        spec.share_key, start, spec.sim_map, spec.levels
    )
    if row:
        expected = min(row.values())
        assert (
            ch.vertex_min("cands", spec.share_key, start, spec.sim_map)
            == expected
        )


def test_shared_bucket_memoizes_on_hierarchy_without_cache():
    network, forest, rng = random_instance(13)
    ch = contraction_for(network)
    engine = SkySREngine(network, forest)
    picked = pick_query(network, forest, rng, 2)
    assert picked is not None
    start, cats = picked
    spec = engine.compile(start, cats).specs[0]
    a = shared_bucket(ch, None, "cands", spec.share_key, spec.sim_map)
    b = shared_bucket(ch, None, "cands", spec.share_key, spec.sim_map)
    assert a is b
    # no share_key: built fresh every time (unshareable target sets)
    c = shared_bucket(ch, None, "cands", None, spec.sim_map)
    assert c is not shared_bucket(ch, None, "cands", None, spec.sim_map)


def _count_bucket_builds(monkeypatch) -> list[int]:
    """Patch :meth:`ContractionHierarchy.bucket` to count its calls."""
    calls = [0]
    build = ContractionHierarchy.bucket

    def counted(self, targets, counters=None):
        calls[0] += 1
        return build(self, targets, counters)

    monkeypatch.setattr(ContractionHierarchy, "bucket", counted)
    return calls


def test_memo_bucket_shares_one_bucket_per_target_set(monkeypatch):
    network, forest, rng = random_instance(17)
    ch = contraction_for(network)
    engine = SkySREngine(network, forest)
    picked = pick_query(network, forest, rng, 2)
    assert picked is not None
    start, cats = picked
    spec = engine.compile(start, cats).specs[0]
    calls = _count_bucket_builds(monkeypatch)
    a = ch.memo_bucket("cands", spec.share_key, spec.sim_map)
    b = ch.memo_bucket("perfect", ("alias",), frozenset(spec.sim_map))
    assert a is b
    assert calls[0] == 1
    assert a == ch.bucket(spec.sim_map)


def test_bucket_traffic_counted_on_cache_not_stored_in_it():
    network, forest, rng = random_instance(29)
    picked = pick_query(network, forest, rng, 3)
    assert picked is not None
    start, cats = picked
    cache = DistanceCache(max_entries=64)
    engine = SkySREngine(network, forest, distance_cache=cache)
    options = BSSROptions(use_contraction=True)
    engine.query(start, cats, options=options)
    first_hits = cache.stats.bucket_hits
    first_misses = cache.stats.bucket_misses
    assert first_misses > 0
    engine.query(start, cats, options=options)
    assert cache.stats.bucket_misses == first_misses
    assert cache.stats.bucket_hits > first_hits
    # every position reads a CH stream: the LRU holds no search at all
    assert not cache._entries


def test_buckets_survive_a_one_entry_cache(monkeypatch):
    """Query A, B, A on a one-entry cache: the repeat builds no bucket,
    and all answers match cache-free ALT+CH (exactly) and default
    options (9 decimals)."""
    data = tokyo_like(0.12, seed=11)
    workload = generate_workload(data, 3, 40, seed=3)
    query_a = workload[0]
    query_b = next(
        q for q in workload if set(q.categories) != set(query_a.categories)
    )
    options = BSSROptions(use_landmarks=True, use_contraction=True)
    cached = SkySREngine(
        data.network, data.forest, distance_cache=DistanceCache(max_entries=1)
    )
    calls = _count_bucket_builds(monkeypatch)
    answers = []
    builds = []
    for q in (query_a, query_b, query_a):
        before = calls[0]
        answers.append(cached.query(q.start, list(q.categories), options=options))
        builds.append(calls[0] - before)
    assert builds[0] > 0
    assert builds[2] == 0

    plain = SkySREngine(data.network, data.forest)
    for q, got in zip((query_a, query_b, query_a), answers):
        exact = plain.query(q.start, list(q.categories), options=options)
        assert {r.scores() for r in got.routes} == {
            r.scores() for r in exact.routes
        }
        default = plain.query(q.start, list(q.categories))
        assert score_set(got.routes) == score_set(default.routes)


# ----------------------------------------------------------------------
# ALT is inert under CH: no landmark method runs, and the search is
# counter-for-counter the CH-only search


def _forbid_landmark_bounds(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a landmark bound ran under use_contraction")

    for name in ("restrict_within", "profile", "min_between"):
        monkeypatch.setattr(LandmarkIndex, name, refuse)


def _assert_same_search(got, expected):
    assert got.routes == expected.routes
    for counter in (
        "routes_expanded",
        "routes_continued",
        "routes_enqueued",
        "routes_pruned_on_pop",
        "routes_pruned_on_insert",
        "sum_ls",
        "sum_lp",
    ):
        assert getattr(got.stats, counter) == getattr(
            expected.stats, counter
        ), counter


@pytest.mark.parametrize("k", [1, 3])
def test_alt_is_inert_under_ch_on_tokyo(monkeypatch, k):
    _forbid_landmark_bounds(monkeypatch)
    data = tokyo_like(0.12, seed=11)
    engine = SkySREngine(data.network, data.forest)
    both = BSSROptions(use_landmarks=True, use_contraction=True, k=k)
    ch_only = BSSROptions(use_contraction=True, k=k)
    for q in generate_workload(data, 3, 40, seed=3):
        cats = list(q.categories)
        _assert_same_search(
            engine.query(q.start, cats, options=both),
            engine.query(q.start, cats, options=ch_only),
        )


@pytest.mark.parametrize("directed", [False, True])
def test_alt_is_inert_under_ch_on_random_graphs(monkeypatch, directed):
    _forbid_landmark_bounds(monkeypatch)
    for seed in range(30):
        network, forest, rng = random_instance(seed, directed=directed)
        picked = pick_query(network, forest, rng, 3)
        if picked is None:
            continue
        start, cats = picked
        engine = SkySREngine(network, forest)
        for k in (1, 3):
            both = BSSROptions(use_landmarks=True, use_contraction=True, k=k)
            ch_only = BSSROptions(use_contraction=True, k=k)
            _assert_same_search(
                engine.query(start, cats, options=both),
                engine.query(start, cats, options=ch_only),
            )


# ----------------------------------------------------------------------
# engine level: CH on ≡ CH off at the 9-decimal grain


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), directed=st.booleans())
def test_property_engine_answers_identical_with_ch(seed, directed):
    network, forest, rng = random_instance(seed, directed=directed)
    picked = pick_query(network, forest, rng, 3)
    if picked is None:
        return
    start, cats = picked
    engine = SkySREngine(network, forest)
    plain = engine.query(start, cats)
    with_ch = engine.query(
        start, cats, options=BSSROptions(use_contraction=True)
    )
    assert score_set(with_ch.routes) == score_set(plain.routes)


def test_engine_answers_identical_with_ch_and_destination():
    network, forest, rng = random_instance(42)
    picked = pick_query(network, forest, rng, 2)
    assert picked is not None
    start, cats = picked
    destination = rng.randrange(network.num_vertices)
    engine = SkySREngine(network, forest)
    plain = engine.query(start, cats, destination=destination)
    with_ch = engine.query(
        start,
        cats,
        destination=destination,
        options=BSSROptions(use_contraction=True),
    )
    assert score_set(with_ch.routes) == score_set(plain.routes)


# ----------------------------------------------------------------------
# engine level: every candidate stream ≡ the exhaustive oracle, exactly
#
# Integer weights make every route length an exact float sum, so these
# compare with strict equality.  The seeds are the ones of range(150)
# where serving only the final position from CH missed an oracle route,
# plus the first 26 for spread.  Under default options the same seeds
# caught the modified Dijkstra's Lemma 5.5 filters.

ORACLE_SEEDS = sorted(
    set(range(26)) | {42, 73, 81, 84, 93, 100, 106, 124, 127, 134, 135}
)

#: CH label-row streams (ids are the bare seed), then the modified
#: Dijkstra with and without the on-the-fly cache, and without the
#: lower bounds (the plain Algorithm 2 stream, no floors)
ORACLE_OPTION_CASES = [
    pytest.param(BSSROptions(use_contraction=True), seed, id=str(seed))
    for seed in ORACLE_SEEDS
] + [
    pytest.param(options, seed, id=f"{name}-{seed}")
    for name, options in (
        ("default", BSSROptions()),
        ("no-cache", BSSROptions(caching=False)),
        ("no-bounds", BSSROptions(lower_bounds=False)),
    )
    for seed in ORACLE_SEEDS
]


def _oracle_cases(seed):
    """Directed and undirected, disjoint and shared category trees, with
    and without a destination: ``(network, forest, start, cats, dest)``."""
    for directed in (False, True):
        for distinct in (True, False):
            network, forest, rng = random_instance(
                seed, directed=directed, num_pois=12
            )
            picked = pick_query(
                network, forest, rng, 3, distinct_trees=distinct
            )
            if picked is None:
                continue
            start, cats = picked
            destination = rng.randrange(network.num_vertices)
            for dest in (None, destination):
                yield network, forest, start, cats, dest


def _scores(routes):
    """Route for route: the PoI tuple (the representative of its score
    class), the exact length and the semantic score."""
    return [(r.pois, r.length, round(r.semantic, 9)) for r in routes]


@pytest.mark.parametrize("options, seed", ORACLE_OPTION_CASES)
def test_ch_at_every_position_matches_oracle_exactly(options, seed):
    """Skyline, one-shot top-2/3 and ``run()`` → ``resume(k)`` all equal
    the brute force PoI tuple for PoI tuple, under CH streams and under
    the modified Dijkstra with and without its cache and its bounds."""
    for network, forest, start, cats, dest in _oracle_cases(seed):
        engine = SkySREngine(network, forest)
        compiled = engine.compile(start, cats, destination=dest)
        skyline = engine.query(start, cats, destination=dest, options=options)
        assert sorted(_scores(skyline.routes)) == sorted(
            _scores(brute_force_skysr(network, compiled))
        )
        search = BSSRSearch(network, compiled, options=options)
        search.run()
        for k in (2, 3):
            oracle = _scores(brute_force_topk(network, compiled, k))
            one_shot = engine.query(
                start, cats, destination=dest, options=options.but(k=k)
            )
            assert _scores(one_shot.topk()) == oracle
            resumed, _stats = search.resume(k)
            assert _scores(rank_routes(resumed, k)) == oracle


def test_ch_returns_the_route_a_start_poi_would_suppress():
    """Regression: start vertex 23 is itself a position-0 PoI (sim 2/3).
    Lemma 5.5 (i) would suppress PoI 26 behind it, yet the only route
    dominating (26, 17, 23) is (23, 17, 23), which reuses 23.  Unfiltered
    CH streams keep the oracle's route at length 17."""
    network, forest, _rng = random_instance(146, directed=True, num_pois=12)
    engine = SkySREngine(network, forest)
    compiled = engine.compile(23, [5, 4, 3], destination=4)
    oracle = brute_force_skysr(network, compiled)
    assert ((26, 17, 23), 17.0) in [(r.pois, r.length) for r in oracle]
    result = engine.query(
        23, [5, 4, 3], destination=4,
        options=BSSROptions(use_contraction=True),
    )
    assert [(r.pois, r.scores()) for r in result.routes] == [
        (r.pois, r.scores()) for r in oracle
    ]


# ----------------------------------------------------------------------
# stats and memoization


def test_ch_stats_reported_on_search_and_engine():
    network, forest, rng = random_instance(3)
    picked = pick_query(network, forest, rng, 2)
    assert picked is not None
    start, cats = picked
    engine = SkySREngine(network, forest)
    result = engine.query(
        start, cats, options=BSSROptions(use_contraction=True)
    )
    ch_stats = result.stats.extra["ch"]
    assert ch_stats["vertices"] == network.num_vertices
    assert ch_stats["preprocess_ms"] >= 0.0
    perf = engine.perf_stats()
    assert perf["contraction"] == ch_stats


def test_contraction_for_memoized_and_invalidated():
    network, _forest, _rng = random_instance(21)
    ch = contraction_for(network)
    assert contraction_for(network) is ch
    network.add_edge(0, 1, 3.0)
    rebuilt = contraction_for(network)
    assert rebuilt is not ch
    assert rebuilt.distance(0, 1) <= 3.0


@pytest.mark.parametrize("use_contraction", [True, False])
def test_poi_edit_drops_category_memos(use_contraction):
    """Regression: after ``set_poi`` and ``refresh_index`` an engine
    that already answered the query (CH, or default options with a
    shared query LRU) answers like a fresh engine.  The hierarchy's and
    the cache's category-keyed entries used to survive the edit (23 and
    10 of these 40 seeds differed)."""
    options = BSSROptions(use_contraction=use_contraction)
    for seed in range(40):
        network, forest, rng = random_instance(seed, num_pois=10)
        picked = pick_query(network, forest, rng, 2)
        if picked is None:
            continue
        start, cats = picked
        cache = None if use_contraction else DistanceCache(max_entries=64)
        engine = SkySREngine(network, forest, distance_cache=cache)
        engine.query(start, cats, options=options)
        vid = next(
            v for v in range(network.num_vertices)
            if not network.is_poi(v) and v != start
        )
        network.set_poi(vid, cats[-1])
        engine.refresh_index()
        got = engine.query(start, cats, options=options)
        fresh = SkySREngine(network, forest).query(start, cats)
        assert score_set(got.routes) == score_set(fresh.routes), seed


# ----------------------------------------------------------------------
# sessions: checkpoint round trip over CH candidate streams


def test_session_checkpoint_round_trips_with_ch():
    network, forest, rng = random_instance(23)
    picked = pick_query(network, forest, rng, 3)
    assert picked is not None
    start, cats = picked
    options = BSSROptions(use_contraction=True)
    engine = SkySREngine(network, forest)
    reference = engine.session(start, cats, page_size=1, options=options)
    session = engine.session(start, cats, page_size=1, options=options)
    first = list(session.next_page())
    assert score_set(reference.next_page()) == score_set(first)
    payload = session.dumps()
    restored = type(session).loads(engine, payload)
    assert score_set(restored.next_page()) == score_set(
        reference.next_page()
    )

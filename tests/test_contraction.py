"""Contraction hierarchy ≡ Dijkstra: the exactness property layer.

The CH subsystem (:mod:`repro.graph.contraction`) promises exact
distances — preprocessing may add redundant shortcuts but never a wrong
one, and every query primitive (point-to-point, one-to-many buckets,
set-to-set minima, the lazy destination oracle) must agree with the
plain Dijkstra kernels.  Integer edge weights make float sums exact, so
these tests compare with strict equality at the oracle level; at the
engine level CH answers are compared at the 9-decimal grain because CH
sums associate differently along up-then-down paths.

Also pinned here: the checkpoint round-trip under CH candidate
streams and the stats surfaces.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.graph.contraction import (
    CHDistanceOracle,
    contraction_for,
    shared_bucket,
)
from repro.graph.dijkstra import dijkstra
from repro.graph.road_network import RoadNetwork

from .conftest import pick_query, random_instance, score_set


def min_edge_weight(network: RoadNetwork, u: int, v: int) -> float:
    """Smallest ``u -> v`` edge weight (parallel edges collapse in CH)."""
    best = math.inf
    for head, w in network.neighbors(u):
        if head == v and w < best:
            best = w
    return best


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
def test_property_path_unpacks_to_original_edges(seed, directed):
    network, _forest, rng = random_instance(seed, directed=directed)
    ch = contraction_for(network)
    n = network.num_vertices
    source = rng.randrange(n)
    exact = dijkstra(network, source)
    for target in rng.sample(range(n), 5):
        dist, path = ch.path(source, target)
        assert dist == exact.get(target, math.inf)
        if dist == math.inf:
            assert path == []
            continue
        assert path[0] == source and path[-1] == target
        # every hop is an original edge and the hop weights close the
        # distance exactly (integer weights: float sums are exact)
        total = 0.0
        for a, b in zip(path, path[1:]):
            w = min_edge_weight(network, a, b)
            assert w < math.inf
            total += w
        assert total == dist


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
    bucket = ch.bucket(spec.sim_map)
    row = ch.distances_from(start, bucket)
    assert ch.memo_row("cands", spec.share_key, start, spec.sim_map) == row
    # memo hit: same object, no recomputation
    memo = ch.memo_row("cands", spec.share_key, start, spec.sim_map)
    assert memo is ch.memo_row("cands", spec.share_key, start, spec.sim_map)
    stream = ch.memo_stream(spec.share_key, start, spec.sim_map)
    assert stream == sorted(
        (d, vid, spec.sim_map[vid]) for vid, d in row.items()
    )
    assert stream is ch.memo_stream(spec.share_key, start, spec.sim_map)
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
    a = shared_bucket(ch, network, None, "cands", spec.share_key, spec.sim_map)
    b = shared_bucket(ch, network, None, "cands", spec.share_key, spec.sim_map)
    assert a is b
    # no share_key: built fresh every time (unshareable target sets)
    c = shared_bucket(ch, network, None, "cands", None, spec.sim_map)
    assert c is not shared_bucket(
        ch, network, None, "cands", None, spec.sim_map
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

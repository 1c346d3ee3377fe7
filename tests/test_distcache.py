"""Cross-query distance cache: budgets, binding, and exact reuse."""

from __future__ import annotations

import random

import pytest

from repro.baselines.topk import brute_force_skyband
from repro.core.distcache import DistanceCache, _estimate_bytes
from repro.core.engine import SkySREngine
from repro.core.search import PoICandidateSearch
from repro.core.spec import PositionSpec
from repro.datasets.presets import mini_city
from repro.errors import QueryError
from repro.graph.road_network import RoadNetwork
from repro.service.prototype import SkySRService

from .conftest import pick_query, random_instance, score_set, small_forest


def _searches(seed=31, size=3):
    """A compiled instance plus fresh searches for each position."""
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, size)
    assert picked is not None
    start, cats = picked
    engine = SkySREngine(network, forest)
    compiled = engine.compile(start, cats)
    return network, start, compiled


def test_lookup_miss_admit_hit_cycle():
    network, start, compiled = _searches()
    cache = DistanceCache()
    spec = compiled.specs[0]
    assert cache.lookup(network, start, spec) is None
    search = PoICandidateSearch(network, spec, start)
    assert cache.admit(network, start, spec, search)
    assert cache.lookup(network, start, spec) is search
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.admissions == 1
    assert len(cache) == 1


def test_unshareable_spec_is_never_cached():
    network, start, compiled = _searches()
    cache = DistanceCache()
    anon = PositionSpec(
        index=0,
        label="predicate",
        sim_map=dict(compiled.specs[0].sim_map),
        perfect=compiled.specs[0].perfect,
        tree_ids=compiled.specs[0].tree_ids,
        share_key=None,
    )
    search = PoICandidateSearch(network, anon, start)
    assert not cache.admit(network, start, anon, search)
    assert cache.lookup(network, start, anon) is None
    assert cache.stats.unshareable == 1
    assert len(cache) == 0


def test_lru_eviction_respects_recency():
    network, start, compiled = _searches()
    cache = DistanceCache(max_entries=2)
    specs = compiled.specs
    assert len(specs) >= 3
    for spec in specs[:2]:
        cache.admit(
            network, start, spec, PoICandidateSearch(network, spec, start)
        )
    # touch the first entry so the second becomes the LRU victim
    assert cache.lookup(network, start, specs[0]) is not None
    cache.admit(
        network, start, specs[2],
        PoICandidateSearch(network, specs[2], start),
    )
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.lookup(network, start, specs[0]) is not None
    assert cache.lookup(network, start, specs[1]) is None  # evicted
    assert cache.lookup(network, start, specs[2]) is not None


@pytest.mark.parametrize("budget", [{"max_entries": 3}, {"max_bytes": 3}])
def test_mixed_lookups_and_admits_match_a_reference_lru(budget):
    """Interleaved hits, misses and admits over many evictions keep the
    same membership, eviction count and byte total as a naive LRU."""
    network, start, compiled = _searches()
    spec = compiled.specs[0]
    size = _estimate_bytes(PoICandidateSearch(network, spec, start))
    if "max_bytes" in budget:  # room for exactly three searches
        budget = {"max_bytes": budget["max_bytes"] * size}
    capacity = 3
    cache = DistanceCache(**budget)
    rng = random.Random(7)
    sources = list(range(8))
    reference: list[int] = []  # least recently used first
    evictions = 0
    for _ in range(200):
        source = rng.choice(sources)
        if rng.random() < 0.5:
            hit = cache.lookup(network, source, spec)
            assert (hit is not None) == (source in reference)
            if hit is not None:
                reference.remove(source)
                reference.append(source)
        else:
            search = PoICandidateSearch(network, spec, source)
            assert cache.admit(network, source, spec, search)
            if source in reference:
                reference.remove(source)
            reference.append(source)
            while len(reference) > capacity:
                reference.pop(0)
                evictions += 1
        assert len(cache) == len(reference)
        assert cache.total_bytes == size * len(reference)
    assert evictions > 10
    assert cache.stats.evictions == evictions
    for source in sources:
        assert (cache.lookup(network, source, spec) is not None) == (
            source in reference
        )


def test_byte_budget_rejects_never_fitting_search():
    network, start, compiled = _searches()
    cache = DistanceCache(max_bytes=1)
    spec = compiled.specs[0]
    search = PoICandidateSearch(network, spec, start)
    assert not cache.admit(network, start, spec, search)
    assert len(cache) == 0
    assert cache.total_bytes == 0


def test_cache_binds_to_one_network():
    network, start, compiled = _searches(seed=41)
    other_network = _searches(seed=42)[0]
    cache = DistanceCache()
    cache.lookup(network, start, compiled.specs[0])
    with pytest.raises(QueryError):
        cache.lookup(other_network, 0, compiled.specs[0])


def test_invalid_budgets_rejected():
    with pytest.raises(QueryError):
        DistanceCache(max_entries=0)
    with pytest.raises(QueryError):
        DistanceCache(max_bytes=0)


def test_clear_resets_entries_but_keeps_stats():
    network, start, compiled = _searches()
    cache = DistanceCache()
    spec = compiled.specs[0]
    cache.admit(network, start, spec, PoICandidateSearch(network, spec, start))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.admissions == 1


def test_warm_engine_hits_cache_and_answers_identically():
    network, forest, rng = random_instance(51)
    picked = pick_query(network, forest, rng, 3)
    assert picked is not None
    start, cats = picked
    cold = SkySREngine(network, forest)
    expected = cold.query(start, cats)

    cache = DistanceCache(max_entries=64)
    warm = SkySREngine(network, forest, distance_cache=cache)
    first = warm.query(start, cats)
    second = warm.query(start, cats)
    assert score_set(first.routes) == score_set(expected.routes)
    assert score_set(second.routes) == score_set(expected.routes)
    if cache.stats.admissions:  # pops were needed → the second run reuses
        assert cache.stats.hits > 0


def test_service_wires_a_default_cache():
    service = SkySRService(mini_city())
    cache = service.engine.distance_cache
    assert isinstance(cache, DistanceCache)
    assert cache.max_entries == SkySRService.DEFAULT_CACHE_ENTRIES
    assert cache.max_bytes == SkySRService.DEFAULT_CACHE_BYTES

    custom = DistanceCache(max_entries=3)
    tuned = SkySRService(mini_city(), distance_cache=custom)
    assert tuned.engine.distance_cache is custom


def test_streams_are_shared_only_under_the_same_potential():
    """Past position 0 a stream's keys carry its query's remaining
    route, so queries that agree on a position but not on what follows
    it must not share its searches.

    ``s`` reaches the one Ramen PoI ``x``.  From ``x``, the Gift PoI
    ``y_near`` (1 away) is next to the Jazz PoI ``z1``, and ``y_far``
    (3 away) is next to the Hotel PoI ``z2``.  Query A asks for Ramen,
    Gift, Jazz; query B for Ramen, Gift, Hotel.  B's NNinit takes
    ``y_near``, a 7-long route; B's optimum is ⟨x, y_far, z2⟩ at 5.  A's
    position-1 stream from ``x`` keys ``y_far`` at 3 + 5 = 8, past B's
    budget of 6, so B must not read it.  B's own stream keys ``y_far``
    at 3 + 1 = 4."""
    forest = small_forest()
    forest.add_path("Stay", "Hotel")
    network = RoadNetwork()
    s = network.add_vertex()
    x = network.add_poi(forest.resolve("Ramen"))
    y_near = network.add_poi(forest.resolve("Gift"))
    y_far = network.add_poi(forest.resolve("Gift"))
    z1 = network.add_poi(forest.resolve("Jazz"))
    z2 = network.add_poi(forest.resolve("Hotel"))
    for u, v, w in [
        (s, x, 1.0),
        (x, y_near, 1.0),
        (y_near, z1, 1.0),
        (x, y_far, 3.0),
        (y_far, z2, 1.0),
    ]:
        network.add_edge(u, v, w)
    cache = DistanceCache(max_entries=64)
    engine = SkySREngine(network, forest, distance_cache=cache)
    engine.query(s, ["Ramen", "Gift", "Jazz"])
    hits = cache.stats.hits
    b = ["Ramen", "Gift", "Hotel"]
    result = engine.query(s, b)
    expected = brute_force_skyband(network, engine.compile(s, b), 1)
    rows = [(r.pois, r.length, r.semantic) for r in result.routes]
    assert rows == [(r.pois, r.length, r.semantic) for r in expected]
    assert rows[0][:2] == ((x, y_far, z2), 5.0)
    # B still shares A's position-0 stream from s, whose potential is
    # the candidate field both queries agree on
    assert cache.stats.hits > hits

"""Skyline dominance + minimal-set invariants (Definitions 4.1/4.2/5.4)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import (
    SkylineSet,
    dominates,
    equivalent,
    skyline_filter,
)
from repro.core.routes import SkylineRoute


def _route(length, semantic, pois=(1,)):
    return SkylineRoute(pois=tuple(pois), length=length, semantic=semantic)


def test_dominates_definition():
    assert dominates((1.0, 0.5), (2.0, 0.5))
    assert dominates((1.0, 0.4), (1.0, 0.5))
    assert dominates((1.0, 0.4), (2.0, 0.5))
    assert not dominates((1.0, 0.5), (1.0, 0.5))  # equivalence ≠ dominance
    assert not dominates((1.0, 0.6), (2.0, 0.5))  # incomparable
    assert not dominates((2.0, 0.5), (1.0, 0.6))


def test_equivalent():
    assert equivalent((1.0, 0.5), (1.0, 0.5))
    assert not equivalent((1.0, 0.5), (1.0, 0.4))


def test_skyline_set_update_and_eviction():
    sky = SkylineSet()
    assert sky.update(_route(10.0, 0.0, (1,)))
    assert sky.update(_route(5.0, 0.5, (2,)))
    assert len(sky) == 2
    # dominated by (5, 0.5) → rejected
    assert not sky.update(_route(6.0, 0.5, (3,)))
    assert not sky.update(_route(5.0, 0.6, (4,)))
    # equivalent → rejected, first stays
    assert not sky.update(_route(5.0, 0.5, (5,)))
    assert sky.routes()[0].pois == (2,)
    # dominates both → evicts both
    assert sky.update(_route(4.0, 0.0, (6,)))
    assert len(sky) == 1
    assert sky.updates == 3 and sky.rejects == 3


def test_threshold_definition_5_4():
    sky = SkylineSet()
    sky.update(_route(10.0, 0.0))
    sky.update(_route(7.0, 0.2))
    sky.update(_route(4.0, 0.6))
    assert sky.threshold(0.0) == 10.0
    assert sky.threshold(0.1) == 10.0
    assert sky.threshold(0.2) == 7.0
    assert sky.threshold(0.5) == 7.0
    assert sky.threshold(0.6) == 4.0
    assert sky.threshold(1.0) == 4.0
    assert sky.perfect_route_length() == 10.0
    assert SkylineSet().threshold(1.0) == math.inf


def test_dominated_or_equal():
    sky = SkylineSet()
    sky.update(_route(5.0, 0.3))
    assert sky.dominated_or_equal(5.0, 0.3)
    assert sky.dominated_or_equal(6.0, 0.3)
    assert sky.dominated_or_equal(5.0, 0.4)
    assert not sky.dominated_or_equal(4.9, 0.3)
    assert not sky.dominated_or_equal(5.0, 0.29)


def test_skyline_entries_sorted():
    sky = SkylineSet()
    for length, semantic in [(9, 0.1), (3, 0.9), (6, 0.4)]:
        sky.update(_route(float(length), semantic, (length,)))
    lengths = [r.length for r in sky.routes()]
    semantics = [r.semantic for r in sky.routes()]
    assert lengths == sorted(lengths)
    assert semantics == sorted(semantics, reverse=True)


score_pairs = st.tuples(
    st.integers(min_value=0, max_value=20).map(float),
    st.integers(min_value=0, max_value=10).map(lambda s: s / 10.0),
)


@settings(deadline=None, max_examples=100)
@given(scores=st.lists(score_pairs, min_size=0, max_size=30))
def test_property_skyline_filter_invariants(scores):
    routes = [
        _route(length, semantic, (i,))
        for i, (length, semantic) in enumerate(scores)
    ]
    skyline = skyline_filter(routes)
    pairs = [r.scores() for r in skyline]
    # 1. mutual non-domination, no equivalents
    for i, a in enumerate(pairs):
        for j, b in enumerate(pairs):
            if i != j:
                assert not dominates(a, b)
                assert not equivalent(a, b)
    # 2. completeness: every input dominated by or equivalent to a member
    for route in routes:
        assert any(
            dominates(p, route.scores()) or equivalent(p, route.scores())
            for p in pairs
        )
    # 3. idempotence
    assert {r.scores() for r in skyline_filter(skyline)} == set(pairs)
    # 4. order insensitivity (score-wise)
    reversed_result = skyline_filter(list(reversed(routes)))
    assert {r.scores() for r in reversed_result} == set(pairs)


@settings(deadline=None, max_examples=60)
@given(scores=st.lists(score_pairs, min_size=1, max_size=25))
def test_property_threshold_is_min_over_feasible(scores):
    sky = SkylineSet()
    for i, (length, semantic) in enumerate(scores):
        sky.update(_route(length, semantic, (i,)))
    for probe in [s / 10.0 for s in range(11)]:
        feasible = [r.length for r in sky if r.semantic <= probe]
        expected = min(feasible) if feasible else math.inf
        assert sky.threshold(probe) == expected


# ---------------------------------------------------------------------------
# deterministic tie-break (lexicographic PoI ids)


def test_equivalence_collapse_keeps_lexicographically_smallest_pois():
    """Regression: equal-score routes collapse to a *defined*
    representative — the lexicographically smallest PoI tuple — no
    matter the insertion order."""
    late_winner = SkylineSet()
    late_winner.update(_route(5.0, 0.5, (9, 2)))
    late_winner.update(_route(5.0, 0.5, (3, 7)))
    assert [r.pois for r in late_winner] == [(3, 7)]

    early_winner = SkylineSet()
    early_winner.update(_route(5.0, 0.5, (3, 7)))
    early_winner.update(_route(5.0, 0.5, (9, 2)))
    assert [r.pois for r in early_winner] == [(3, 7)]

    # membership counters are unaffected by the representative swap
    assert late_winner.updates == early_winner.updates == 1
    assert late_winner.rejects == early_winner.rejects == 1


def test_skyband_collapse_is_order_independent_on_representatives():
    import itertools
    import random

    from repro.core.dominance import skyband_filter

    rng = random.Random(5)
    routes = [
        _route(float(rng.randint(1, 4)), rng.randint(0, 2) / 2.0, (i, j))
        for i, j in itertools.product(range(4), range(4))
        if i != j
    ]
    reference = [r.pois for r in skyband_filter(routes, 2)]
    for _ in range(10):
        rng.shuffle(routes)
        assert [r.pois for r in skyband_filter(routes, 2)] == reference


def test_rank_routes_breaks_score_ties_by_pois():
    from repro.core.dominance import rank_routes

    a = _route(5.0, 0.5, (4, 1))
    b = _route(5.0, 0.5, (2, 9))
    c = _route(5.0, 0.5, (2, 3))
    ranked = rank_routes([a, b, c])
    assert [r.pois for r in ranked] == [(2, 3), (2, 9), (4, 1)]
    # deterministic under any input order
    assert rank_routes([c, a, b]) == ranked


# ---------------------------------------------------------------------------
# threshold memo: every mutation path must invalidate it

PROBES = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0]


def _scanned(band, semantic):
    """Definition 5.4's threshold by a fresh scan of the members."""
    lengths = sorted(r.length for r in band if r.semantic <= semantic)
    return lengths[band.k - 1] if len(lengths) >= band.k else math.inf


def _warm(band):
    for probe in PROBES:
        band.threshold(probe)


def _assert_fresh(band):
    for probe in PROBES:
        assert band.threshold(probe) == _scanned(band, probe), probe


def _mutated(band, route):
    """Offer ``route`` with a warm memo; the version must move iff the
    members did, and the memo must agree with a fresh scan after."""
    from repro.core.dominance import SkybandSet

    _warm(band)
    before = ([(r.pois, r.length, r.semantic) for r in band], band.version)
    kept = SkybandSet.update(band, route)
    after = [(r.pois, r.length, r.semantic) for r in band]
    assert (band.version != before[1]) == (after != before[0])
    _assert_fresh(band)
    return kept


@pytest.mark.parametrize("k", [1, 3])
def test_threshold_memo_follows_insert(k):
    from repro.core.dominance import SkybandSet

    band = SkybandSet(k)
    for i, (length, semantic) in enumerate(
        [(10.0, 0.0), (7.0, 0.2), (4.0, 0.6), (8.0, 0.1), (5.0, 0.5)]
    ):
        assert _mutated(band, _route(length, semantic, (i,)))


@pytest.mark.parametrize("k", [1, 3])
def test_threshold_memo_follows_eviction_past_k(k):
    from repro.core.dominance import SkybandSet

    band = SkybandSet(k)
    assert _mutated(band, _route(20.0, 0.5, (50,)))
    # mutually incomparable, each dominating (20, 0.5): the k-th evicts it
    for i in range(k):
        assert (20.0, 0.5) in band.as_score_set()
        assert _mutated(band, _route(10.0 + i, 0.4 - 0.1 * i, (i,)))
    assert (20.0, 0.5) not in band.as_score_set()
    assert len(band) == k


@pytest.mark.parametrize("k", [1, 3])
def test_threshold_memo_follows_representative_swap(k):
    from repro.core.dominance import SkybandSet

    band = SkybandSet(k)
    _mutated(band, _route(5.0, 0.3, (7, 8)))
    _mutated(band, _route(9.0, 0.0, (4,)))
    version = band.version
    assert not _mutated(band, _route(5.0, 0.3, (2, 3)))
    assert band.version != version
    assert [r.pois for r in band] == [(2, 3), (4,)]
    # the same route offered twice: one member, one reject, same version
    version, rejects = band.version, band.rejects
    assert not _mutated(band, _route(5.0, 0.3, (2, 3)))
    assert band.version == version
    assert band.rejects == rejects + 1
    assert [r.pois for r in band] == [(2, 3), (4,)]


@pytest.mark.parametrize("k", [1, 3])
@settings(deadline=None, max_examples=80)
@given(
    offers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.sampled_from([0.0, 1.0, 2.0]),
            st.booleans(),
            st.sampled_from([0.0, 0.2, 0.5]),
        ),
        max_size=25,
    )
)
def test_property_threshold_memo_equals_fresh_scan(k, offers):
    """Random offers on a coarse grid (so ties, equal scores and ULP
    copies of one PoI tuple all occur): after every one the memo must
    agree with a fresh scan."""
    from repro.core.dominance import SkybandSet

    band = SkybandSet(k)
    for poi, length, ulp, semantic in offers:
        if ulp:
            length = math.nextafter(length, math.inf)
        _mutated(band, _route(length, semantic, (poi,)))

"""ALT landmarks: admissibility properties and BSSR equivalence.

Every number a :class:`~repro.graph.landmarks.LandmarkIndex` produces
is a *lower bound* on a true shortest-path distance — that is the whole
soundness argument for using them inside BSSR's pruning tests and
the l̄(ϕ)-ball restriction.  The property tests
here check each bound form against exact Dijkstra ground truth on
random graphs, and the engine-level test pins that switching
``use_landmarks`` on never changes an answer.
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.graph.dijkstra import dijkstra
from repro.graph.landmarks import LandmarkIndex, landmarks_for

from .conftest import integer_grid, pick_query, random_instance, score_set


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), directed=st.booleans())
def test_property_lower_bound_is_admissible(seed, directed):
    rng = random.Random(seed)
    net = integer_grid(4, 4, rng, directed=directed, extra_edges=3)
    index = LandmarkIndex(net, count=4)
    for _ in range(10):
        u = rng.randrange(net.num_vertices)
        v = rng.randrange(net.num_vertices)
        truth = dijkstra(net, u).get(v, math.inf)
        bound = index.lower_bound(u, v)
        assert bound <= truth
        if bound == math.inf:
            assert truth == math.inf  # inf is claimed only when exact
    u = rng.randrange(net.num_vertices)
    assert index.lower_bound(u, u) == 0.0


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10_000))
def test_property_set_bounds_are_admissible(seed):
    rng = random.Random(seed)
    net = integer_grid(4, 4, rng, extra_edges=2)
    index = LandmarkIndex(net, count=4)
    first = rng.sample(range(net.num_vertices), 3)
    second = rng.sample(range(net.num_vertices), 3)
    truth = min(
        dijkstra(net, p).get(q, math.inf) for p in first for q in second
    )
    assert index.min_between(index.profile(first), index.profile(second)) <= truth


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), directed=st.booleans())
def test_property_tables_are_exact_dijkstra_rows(seed, directed):
    """The rows landmark selection computed, reused as ``_from``, are
    the plain Dijkstra rows; undirected ``_to`` shares them."""
    network, _forest, _rng = random_instance(seed, directed=directed)
    index = LandmarkIndex(network, count=4)
    n = network.num_vertices
    for i, lm in enumerate(index.landmarks):
        forward = dijkstra(network, lm)
        backward = dijkstra(network, lm, reverse=True)
        assert index._from[i] == [forward.get(v, math.inf) for v in range(n)]
        assert index._to[i] == [backward.get(v, math.inf) for v in range(n)]
        if not directed:
            assert index._to[i] is index._from[i]


def test_empty_profile_disables_pruning():
    rng = random.Random(3)
    net = integer_grid(3, 3, rng, extra_edges=0)
    index = LandmarkIndex(net, count=2)
    assert index.profile([]) is None
    assert index.min_between(None, index.profile([0])) == 0.0


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10_000))
def test_property_restrict_within_keeps_ball_superset(seed):
    rng = random.Random(seed)
    net = integer_grid(4, 4, rng, extra_edges=2)
    index = LandmarkIndex(net, count=4)
    u = rng.randrange(net.num_vertices)
    radius = float(rng.randint(1, 5))
    vids = list(range(net.num_vertices))
    kept = set(index.restrict_within(u, vids, radius))
    truth = dijkstra(net, u)
    for v in vids:
        if truth.get(v, math.inf) <= radius:
            assert v in kept  # never drops a true ball member
    assert u in kept


@settings(deadline=None, max_examples=12)
@given(seed=st.integers(0, 10_000))
def test_property_alt_search_returns_identical_routes(seed):
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, 3)
    if picked is None:
        return
    start, cats = picked
    engine = SkySREngine(network, forest)
    default = engine.query(start, cats)
    alt = engine.query(
        start, cats, options=BSSROptions(use_landmarks=True)
    )
    assert score_set(alt.routes) == score_set(default.routes)
    assert [r.pois for r in alt.routes] == [r.pois for r in default.routes]


def test_landmarks_for_memoizes_per_network():
    rng = random.Random(5)
    net = integer_grid(3, 3, rng, extra_edges=0)
    index = landmarks_for(net, count=3)
    assert landmarks_for(net, count=3) is index
    assert landmarks_for(net, count=2) is not index  # different budget
    net.add_edge(0, 8, 3.0)
    assert landmarks_for(net, count=3) is not index  # structure changed


def test_landmark_selection_is_deterministic_and_bounded():
    rng = random.Random(6)
    net = integer_grid(3, 4, rng, extra_edges=1)
    a = LandmarkIndex(net, count=30)  # more than |V| requested
    b = LandmarkIndex(net, count=30)
    assert a.landmarks == b.landmarks
    assert len(a.landmarks) <= net.num_vertices
    assert len(set(a.landmarks)) == len(a.landmarks)

"""Dijkstra variants vs networkx ground truth + resumable semantics,
plus the flat CSR adjacency the kernels run on."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import flat_adjacency
from repro.graph.dijkstra import (
    ExpansionCounters,
    ResumableDijkstra,
    bounded_dijkstra,
    dijkstra,
    eccentricity,
    multi_source_min_distance,
    shortest_path,
)
from repro.graph.io import to_networkx
from repro.graph.road_network import RoadNetwork

from .conftest import integer_grid


def _nx_distances(net, source):
    graph = to_networkx(net)
    return nx.single_source_dijkstra_path_length(graph, source)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), directed=st.booleans())
def test_property_dijkstra_matches_networkx(seed, directed):
    rng = random.Random(seed)
    net = integer_grid(4, 5, rng, directed=directed, extra_edges=4)
    source = rng.randrange(net.num_vertices)
    ours = dijkstra(net, source)
    theirs = _nx_distances(net, source)
    assert ours == theirs
    # every predecessor edge closes its distance exactly (integer
    # weights: float sums are exact)
    dist, pred = dijkstra(net, source, with_predecessors=True)
    assert dist == theirs
    assert source not in pred
    for v, u in pred.items():
        assert any(
            head == v and dist[u] + w == dist[v]
            for head, w in net.neighbors(u)
        )
    # the bounded flavor is the radius cut of the full distances
    radius = float(rng.randint(1, 8))
    assert bounded_dijkstra(net, source, radius) == {
        v: d for v, d in theirs.items() if d < radius
    }


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_property_directed_reverse_dijkstra(seed):
    rng = random.Random(seed)
    net = integer_grid(3, 4, rng, directed=True, extra_edges=3)
    target = rng.randrange(net.num_vertices)
    reverse = dijkstra(net, target, reverse=True)
    graph = to_networkx(net)
    for v in net.vertices():
        try:
            expected = nx.dijkstra_path_length(graph, v, target)
        except nx.NetworkXNoPath:
            expected = None
        if expected is None:
            assert v not in reverse
        else:
            assert reverse[v] == expected


def test_bounded_dijkstra_cuts_at_radius():
    rng = random.Random(1)
    net = integer_grid(5, 5, rng, extra_edges=0)
    full = dijkstra(net, 0)
    ball = bounded_dijkstra(net, 0, 3.0)
    assert ball == {v: d for v, d in full.items() if d < 3.0}
    assert bounded_dijkstra(net, 0, math.inf) == full
    assert bounded_dijkstra(net, 0, 0.0) == {}


def test_shortest_path_reconstruction():
    net = RoadNetwork()
    a, b, c, d = (net.add_vertex() for _ in range(4))
    net.add_edge(a, b, 1.0)
    net.add_edge(b, c, 1.0)
    net.add_edge(a, c, 5.0)
    dist, path = shortest_path(net, a, c)
    assert dist == 2.0
    assert path == [a, b, c]
    dist, path = shortest_path(net, a, d)
    assert dist == math.inf and path == []


def test_multi_source_min_distance_exact():
    rng = random.Random(2)
    net = integer_grid(4, 4, rng, extra_edges=2)
    sources, targets = [0, 5], [10, 15]
    expected = min(
        dijkstra(net, s).get(t, math.inf) for s in sources for t in targets
    )
    assert multi_source_min_distance(net, sources, targets) == expected
    # overlap → zero; empty sets → inf; radius truncation → radius
    assert multi_source_min_distance(net, [3], [3]) == 0.0
    assert multi_source_min_distance(net, [], [3]) == math.inf
    assert multi_source_min_distance(net, [3], []) == math.inf
    truncated = multi_source_min_distance(net, sources, targets, radius=0.5)
    assert truncated in (0.5, expected)
    assert truncated <= expected


def test_multi_source_unreachable_is_inf():
    net = RoadNetwork()
    a, b = net.add_vertex(), net.add_vertex()
    c, d = net.add_vertex(), net.add_vertex()
    net.add_edge(a, b, 1.0)
    net.add_edge(c, d, 1.0)
    assert multi_source_min_distance(net, [a], [c]) == math.inf


def test_eccentricity():
    rng = random.Random(3)
    net = integer_grid(3, 3, rng, extra_edges=0)
    assert eccentricity(net, 0) == 4.0  # corner to corner on a 3x3 grid


def test_multi_source_reverse_on_directed_graph():
    net = RoadNetwork(directed=True)
    a, b, c = (net.add_vertex() for _ in range(3))
    net.add_edge(a, b, 1.0)
    net.add_edge(b, c, 1.0)  # only a -> b -> c exists
    # forward: distance from a source to a target
    assert multi_source_min_distance(net, [a], [c]) == 2.0
    assert multi_source_min_distance(net, [c], [a]) == math.inf
    # reverse: distance from a *target* to a *source* (incoming edges)
    assert multi_source_min_distance(net, [c], [a], reverse=True) == 2.0
    assert multi_source_min_distance(net, [a], [c], reverse=True) == math.inf


def test_multi_source_reverse_matches_forward_transpose():
    rng = random.Random(6)
    net = integer_grid(3, 4, rng, directed=True, extra_edges=4)
    sources, targets = [0, 7], [4, 11]
    expected = min(
        dijkstra(net, t).get(s, math.inf) for s in sources for t in targets
    )
    assert (
        multi_source_min_distance(net, sources, targets, reverse=True)
        == expected
    )


def test_eccentricity_reverse_on_directed_graph():
    net = RoadNetwork(directed=True)
    a, b, c = (net.add_vertex() for _ in range(3))
    net.add_edge(a, b, 1.0)
    net.add_edge(b, c, 2.0)
    assert eccentricity(net, a) == 3.0  # farthest reachable from a
    assert eccentricity(net, a, reverse=True) == 0.0  # nothing reaches a
    assert eccentricity(net, c, reverse=True) == 3.0  # a -> c is longest in


def test_resumable_settles_in_distance_order():
    rng = random.Random(4)
    net = integer_grid(4, 4, rng, extra_edges=3)
    search = ResumableDijkstra(net, 0)
    settled = []
    while not search.exhausted:
        step = search.settle_next()
        assert step is not None
        settled.append(step)
    distances = [d for d, _ in settled]
    assert distances == sorted(distances)
    full = dijkstra(net, 0)
    assert {v: d for d, v in settled} == full
    assert search.settle_next() is None
    assert search.next_distance() == math.inf


def test_resumable_expand_until_budget_and_resume():
    rng = random.Random(5)
    net = integer_grid(5, 5, rng, extra_edges=0)
    search = ResumableDijkstra(net, 0)
    first = search.expand_until(2.0)
    assert all(d < 2.0 for d, _ in first)
    assert search.next_distance() >= 2.0
    more = search.expand_until(4.0)
    assert all(2.0 <= d < 4.0 for d, _ in more)
    # callable budgets are re-evaluated
    budget = iter([10.0, 10.0, 0.0])
    steps = search.expand_until(lambda: next(budget))
    assert len(steps) <= 2
    assert search.distance(0) == 0.0
    far = max(dijkstra(net, 0), key=lambda v: dijkstra(net, 0)[v])
    assert search.distance(far) == math.inf  # not settled yet


# ----------------------------------------------------------------------
# early termination + predecessor skip


def test_target_early_termination_settles_strictly_less():
    rng = random.Random(9)
    net = integer_grid(6, 6, rng, extra_edges=0)
    source, target = 0, 1  # adjacent: settles long before exhaustion
    full = ExpansionCounters()
    dijkstra(net, source, counters=full)
    early = ExpansionCounters()
    dist = dijkstra(net, source, target=target, counters=early)
    assert early.settled < full.settled
    # the settled target's label is final
    exact = dijkstra(net, source)
    assert dist[target] == exact[target]


def test_predecessor_skip_equivalence():
    rng = random.Random(10)
    net = integer_grid(4, 5, rng, extra_edges=3)
    bare = dijkstra(net, 0)
    dist, pred = dijkstra(net, 0, with_predecessors=True)
    assert bare == dist
    for v, u in pred.items():
        assert v != 0
        assert u in dist


# ----------------------------------------------------------------------
# the adjacency rows


def test_flat_adjacency_memoized_and_invalidated():
    rng = random.Random(11)
    net = integer_grid(3, 3, rng, extra_edges=0)
    flat = flat_adjacency(net)
    assert flat_adjacency(net) is flat
    assert flat_adjacency(net, reverse=True) is flat  # undirected
    net.add_edge(0, 8, 2.0)
    rebuilt = flat_adjacency(net)
    assert rebuilt is not flat
    assert sum(map(len, rebuilt)) == 2 * net.num_edges  # both arcs
    assert rebuilt[0][-1] == (8, 2.0)


def test_flat_adjacency_mirrors_neighbor_order():
    rng = random.Random(12)
    net = integer_grid(3, 3, rng, directed=True, extra_edges=2)
    for reverse, neighbors in (
        (False, net.neighbors),
        (True, net.in_neighbors),
    ):
        rows = flat_adjacency(net, reverse=reverse)
        assert len(rows) == net.num_vertices
        for u, row in enumerate(rows):
            assert list(row) == list(neighbors(u))

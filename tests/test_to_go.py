"""To-go rows: the exact remaining-route floor of the default path.

``to_go[j][v]`` is the length of the shortest walk from ``v`` through
one candidate of each position ``j … n−1``, in order, then to the
destination if there is one.  The rows must equal a brute-force
dynamic program over Dijkstra distances, never exceed what a real
completion still travels, share one memoized object per candidate-set
pair, and be counted as sweeps, not as search work.  Used as the A*
potential of a modified-Dijkstra stream, a row must key every candidate
by its distance plus the exact remainder ahead of it, in ``(key,
vertex)`` order, under every way a consumer drives the stream.
"""

import math
from array import array
from itertools import product

import pytest

from repro import SkySREngine
from repro.core.bounds import compute_lower_bounds
from repro.core.bssr import BSSRSearch
from repro.core.dominance import SkylineSet
from repro.core.options import BSSROptions
from repro.core.search import PoICandidateSearch, field_memo
from repro.extensions.predicates import AnyOf
from repro.graph.dijkstra import dijkstra

from .conftest import pick_query, random_instance


def _query(seed, directed, *, size=3, destination=False, predicate=False):
    network, forest, rng = random_instance(
        seed, directed=directed, num_pois=12
    )
    picked = pick_query(network, forest, rng, size, distinct_trees=False)
    assert picked is not None
    start, cats = picked
    if predicate:
        cats[1] = AnyOf("Ramen", "Gift", "Jazz")
    dest = rng.randrange(network.num_vertices) if destination else None
    engine = SkySREngine(network, forest)
    return network, engine, engine.compile(start, cats, destination=dest)


def _distances(network):
    return {u: dijkstra(network, u) for u in network.vertices()}


def _brute_rows(network, compiled):
    """The to-go rows by a dynamic program over all-pairs distances."""
    dist = _distances(network)
    vertices = list(network.vertices())
    n = compiled.size
    if compiled.destination is None:
        after = {v: 0.0 for v in vertices}
    else:
        after = {
            v: dist[v].get(compiled.destination, math.inf) for v in vertices
        }
    rows = [None] * n
    for j in range(n - 1, 0, -1):
        cands = compiled.specs[j].sim_map
        row = {
            v: min(
                (dist[v].get(c, math.inf) + after[c] for c in cands),
                default=math.inf,
            )
            for v in vertices
        }
        rows[j] = [row[v] for v in vertices]
        after = row
    mins = [
        min((rows[j + 1][c] for c in compiled.specs[j].sim_map))
        for j in range(n - 1)
    ]
    return rows, mins


def _bounds(network, compiled):
    dest_dist = (
        None
        if compiled.destination is None
        else dijkstra(network, compiled.destination, reverse=True)
    )
    return compute_lower_bounds(
        network, compiled, SkylineSet(), dest_dist=dest_dist
    ), dest_dist


@pytest.mark.parametrize("predicate", [False, True])
@pytest.mark.parametrize("destination", [False, True])
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_rows_equal_a_brute_force_dynamic_program(
    seed, directed, destination, predicate
):
    network, _, compiled = _query(
        seed, directed, destination=destination, predicate=predicate
    )
    bounds, _ = _bounds(network, compiled)
    rows, mins = _brute_rows(network, compiled)
    assert bounds.to_go[0] is None
    for j in range(1, compiled.size):
        assert list(bounds.to_go[j]) == rows[j], j
    assert bounds.to_go_min == mins[0]


@pytest.mark.parametrize("destination", [False, True])
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_floor_is_admissible_for_every_completion(seed, directed, destination):
    """From any vertex, the row value is at most what any completion
    through distinct candidates still travels, compared with no
    slack."""
    network, _, compiled = _query(
        seed, directed, destination=destination, predicate=seed % 2 == 1
    )
    bounds, _ = _bounds(network, compiled)
    dist = _distances(network)
    n = compiled.size
    sets = [list(spec.sim_map) for spec in compiled.specs]
    for j in range(1, n):
        row = bounds.to_go[j]
        for last in network.vertices():
            floor = row[last]
            for tail in product(*sets[j:]):
                if len(set(tail)) < len(tail) or last in tail:
                    continue
                legs = zip((last, *tail), tail)
                remaining = sum(dist[a].get(b, math.inf) for a, b in legs)
                if compiled.destination is not None:
                    remaining += dist[tail[-1]].get(
                        compiled.destination, math.inf
                    )
                assert floor <= remaining, (j, last, tail)


def _read(search, budget, start=None):
    """The stream positions ``scored_until`` hands out, in stream order,
    with the constant ``budget`` at every level, from per-level offsets
    ``start``."""
    levels = len(search.levels)
    segments = list(
        search.scored_until(
            [lambda: budget] * levels, start=start or (0,) * levels
        )
    )
    return sorted(
        i for level, lo, hi in segments for i in search.levels[level][1][lo:hi]
    )


def _stream(network, spec, source, field, budget, start=None):
    """The ``(dist, key, vid)`` triples :func:`_read` hands out on a
    fresh search, plus the search."""
    search = PoICandidateSearch(network, spec, source, field=field)
    got = [
        (search.dists[i], search.keys[i], search.candidates[i])
        for i in _read(search, budget, start)
    ]
    return got, search


@pytest.mark.parametrize("destination", [False, True])
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_a_stream_on_a_to_go_row_is_keyed_by_the_remaining_route(
    seed, directed, destination
):
    """Streams at positions 1 … n−1 with ``to_go[j]`` as potential:
    keys are nondecreasing and each is the Dijkstra distance plus the
    next row's value (the destination leg at the last position);
    ``scored_until(B)`` covers exactly the candidates keyed at most
    ``B``, on a fresh stream and on one already drained past ``B``; a
    fresh instance replayed from an offset hands out the same stream."""
    network, _, compiled = _query(
        seed, directed, size=4, destination=destination
    )
    bounds, dest_dist = _bounds(network, compiled)
    n = compiled.size
    sources = list(network.vertices())[:: max(1, network.num_vertices // 8)]
    for j in range(1, n):
        spec = compiled.specs[j]
        field = bounds.to_go[j]
        if j + 1 < n:
            after = bounds.to_go[j + 1].__getitem__
        elif dest_dist is not None:
            after = lambda c: dest_dist.get(c, math.inf)  # noqa: E731
        else:
            after = lambda c: 0.0  # noqa: E731
        for source in sources:
            dist = dijkstra(network, source)
            expected = sorted(
                (
                    (dist[c], dist[c] + after(c), c)
                    for c in spec.sim_map
                    if c in dist and after(c) < math.inf
                ),
                key=lambda t: (t[1], t[2]),
            )
            full, warm = _stream(network, spec, source, field, math.inf)
            assert warm.exhausted
            assert full == expected
            keys = sorted({key for _, key, _ in full})
            midpoints = [a + (b - a) / 2 for a, b in zip(keys, keys[1:])]
            budgets = [-1.0, *keys, *midpoints]
            for budget in budgets:
                within = [t for t in full if t[1] <= budget]
                single, _ = _stream(network, spec, source, field, budget)
                assert single == within, (j, source, budget)
                # a stream another consumer drained past the budget
                # hands out the same prefix
                reread = _read(warm, budget)
                assert reread == list(range(len(within))), (j, budget)
                # a fresh instance replayed from per-level offsets: half
                # of each level's candidates within the budget
                level_of = [
                    spec.levels.index(spec.sim_map[vid])
                    for _, _, vid in within
                ]
                offsets = tuple(
                    level_of.count(level) // 2
                    for level in range(len(spec.levels))
                )
                rest = []
                taken = [0] * len(spec.levels)
                for triple, level in zip(within, level_of):
                    if taken[level] < offsets[level]:
                        taken[level] += 1
                    else:
                        rest.append(triple)
                replayed, _ = _stream(
                    network, spec, source, field, budget, start=offsets
                )
                assert replayed == rest, (j, source, budget)


def _named_instance(size):
    for seed in range(40):
        network, forest, rng = random_instance(seed, num_pois=12)
        picked = pick_query(network, forest, rng, size, distinct_trees=False)
        if picked is not None:
            return network, forest, picked
    raise AssertionError("no instance supports the query")


def test_one_pair_row_per_candidate_set_pair():
    network, forest, (start, cats) = _named_instance(3)
    engine = SkySREngine(network, forest)
    first = engine.compile(start, cats)
    other = engine.compile(
        (start + 1) % network.num_vertices, [cats[2], *cats[1:]]
    )
    a = compute_lower_bounds(network, first, SkylineSet())
    b = compute_lower_bounds(network, other, SkylineSet())
    assert isinstance(a.to_go[1], array)
    assert a.to_go[1] is b.to_go[1]
    key = (
        frozenset(first.specs[1].sim_map),
        frozenset(first.specs[2].sim_map),
    )
    memo = field_memo(network)
    assert memo[key] is a.to_go[1]
    # pair keys share one object per candidate set
    compute_lower_bounds(
        network, engine.compile(start, [cats[0], cats[2], cats[1]]),
        SkylineSet(),
    )
    sets = [s for k in memo if isinstance(k, tuple) and k[0] != "set" for s in k]
    assert len({id(s) for s in sets}) == len(set(sets))


@pytest.mark.parametrize("edit", ["set_poi", "clear_poi", "add_edge"])
def test_network_edits_drop_the_pair_rows(edit):
    network, forest, (start, cats) = _named_instance(3)
    engine = SkySREngine(network, forest)
    compiled = engine.compile(start, cats)
    before = compute_lower_bounds(network, compiled, SkylineSet()).to_go[1]
    key = (
        frozenset(compiled.specs[1].sim_map),
        frozenset(compiled.specs[2].sim_map),
    )
    assert field_memo(network)[key] is before
    if edit == "set_poi":
        vid = next(
            v for v in network.vertices()
            if not network.is_poi(v) and v != start
        )
        network.set_poi(vid, cats[-1])
    elif edit == "clear_poi":
        network.clear_poi(max(compiled.specs[-1].sim_map))
    else:
        network.add_edge(0, network.num_vertices - 1, 1.0)
    assert key not in field_memo(network)
    engine.refresh_index()
    compiled = engine.compile(start, cats)
    after = compute_lower_bounds(network, compiled, SkylineSet())
    assert after.to_go[1] is not before
    rows, _ = _brute_rows(network, compiled)
    assert list(after.to_go[1]) == rows[1]


@pytest.mark.parametrize("size, cold, warm", [(3, 1, 0), (5, 3, 2)])
def test_sweeps_are_counted_without_memo_hits(size, cold, warm):
    network, forest, (start, cats) = _named_instance(size)
    engine = SkySREngine(network, forest)
    first = engine.query(start, cats)
    second = engine.query(start, cats)
    assert first.stats.extra["to_go_sweeps"] == cold
    assert second.stats.extra["to_go_sweeps"] == warm
    # a live resume reuses the rows: they do not depend on k
    search = BSSRSearch(network, engine.compile(start, cats))
    search.run()
    rows = search.bounds.to_go
    _, stats = search.resume(3)
    assert stats.extra["to_go_sweeps"] == 0
    assert search.bounds.to_go is rows


def test_sweeps_stay_out_of_the_work_counters():
    """A cold and a warm run differ only in the sweeps they build, and
    neither ``settled`` nor ``relaxed`` counts them."""
    network, forest, (start, cats) = _named_instance(5)
    engine = SkySREngine(network, forest)
    options = BSSROptions(caching=False)
    cold = engine.query(start, cats, options=options).stats
    warm = engine.query(start, cats, options=options).stats
    assert cold.extra["to_go_sweeps"] > warm.extra["to_go_sweeps"]
    assert (cold.settled, cold.relaxed) == (warm.settled, warm.relaxed)

"""Level views of candidate streams, and the lazy CH label stream.

BSSR reads every candidate stream one similarity level at a time, each
level up to its own budget, through the stream's level views.  A view
must list, in stream order, exactly the stream positions of its level,
and a level read from any offset must cover exactly that level's keys
within the budget.  Under CH the stream is a label row grown lazily to
each budget: after any sequence of growths it must be, element for
element, the prefix of the sorted full row up to its radius.
"""

import math

import pytest

from repro import SkySREngine
from repro.core.bounds import compute_lower_bounds
from repro.core.dominance import SkylineSet
from repro.core.options import BSSROptions
from repro.core.search import CHCandidateStream, PoICandidateSearch
from repro.graph.contraction import contraction_for
from repro.graph.dijkstra import dijkstra

from .conftest import pick_query, random_instance


def _instance(seed, directed):
    network, forest, rng = random_instance(
        seed, directed=directed, num_pois=12
    )
    picked = pick_query(network, forest, rng, 3, distinct_trees=False)
    assert picked is not None
    start, cats = picked
    return network, SkySREngine(network, forest), start, cats, rng


def _full_row(ch, bucket, source):
    return sorted(
        (d, vid) for vid, d in ch.distances_from(source, bucket).items()
    )


def _check_views(levels, vids, keys, sim_map):
    """The level views partition the stream ``vids``, highest
    similarity first, each listing its level's positions in stream (so
    key) order."""
    sims = [sim for sim, _ in levels]
    assert sims == sorted(set(sim_map.values()), reverse=True)
    seen = []
    for sim, positions in levels:
        positions = list(positions)
        assert positions == sorted(set(positions))
        assert all(sim_map[vids[p]] == sim for p in positions)
        level_keys = [keys[p] for p in positions]
        assert level_keys == sorted(level_keys)
        seen += positions
    assert sorted(seen) == list(range(len(vids)))


def _check_prefix(row, full):
    """``row`` holds exactly the entries of ``full`` up to its radius."""
    expected = [(d, v) for d, v in full if d <= row.radius]
    assert list(zip(row.dists, row.vids)) == expected
    if row.exhausted:
        assert expected == full


def _bounds_from(full, rng):
    """Growth bounds that hit row distances exactly, fall between them
    and past them, in random order."""
    dists = sorted({d for d, _ in full}) or [0.0]
    picks = dists + [d + 0.5 for d in dists] + [
        rng.uniform(0.0, dists[-1] + 1.0) for _ in range(4)
    ]
    rng.shuffle(picks)
    return picks[: rng.randint(1, len(picks))]


def _level_reads(stream, budget_of, keys):
    """Every level read from every offset covers exactly that level's
    keys within the budget, as contiguous segments from the offset."""
    levels = len(stream.levels)
    for level in range(levels):
        budget = budget_of(level)
        offsets = [0] * levels
        for offset in range(len(stream.levels[level][1]) + 1):
            offsets[level] = offset
            budgets = [lambda: -math.inf] * levels
            budgets[level] = lambda: budget
            segments = list(
                stream.scored_until(budgets, start=tuple(offsets))
            )
            positions = stream.levels[level][1]
            expected = offset
            while (
                expected < len(positions)
                and keys[positions[expected]] <= budget
            ):
                expected += 1
            covered = offset
            for found_level, lo, hi in segments:
                assert found_level == level
                assert lo == covered < hi
                covered = hi
            assert covered == expected, (level, offset, budget)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_lazy_label_stream_is_the_sorted_row_up_to_its_radius(
    seed, directed
):
    network, engine, start, cats, rng = _instance(seed, directed)
    ch = contraction_for(network)
    for spec in engine.compile(start, cats).specs:
        bucket = ch.bucket(spec.sim_map)
        for source in network.vertices():
            full = _full_row(ch, bucket, source)
            fresh = ch.label_stream(
                source, bucket, spec.sim_map, spec.levels
            )
            for bound in _bounds_from(full, rng):
                fresh.grow(bound)
                _check_prefix(fresh, full)
                _check_views(
                    fresh.levels, fresh.vids, fresh.dists, spec.sim_map
                )
            # a stream rebuilt after a restore and grown in one step to
            # the same radius holds the same row and views
            restored = ch.label_stream(
                source, bucket, spec.sim_map, spec.levels
            )
            restored.grow(fresh.radius)
            assert list(restored.dists) == list(fresh.dists)
            assert list(restored.vids) == list(fresh.vids)
            assert [list(v) for _, v in restored.levels] == [
                list(v) for _, v in fresh.levels
            ]
            fresh.grow(math.inf)
            assert fresh.exhausted
            _check_prefix(fresh, full)
            _check_views(
                fresh.levels, fresh.vids, fresh.dists, spec.sim_map
            )


@pytest.mark.parametrize("destination", [False, True])
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_streams_grown_by_searches_are_sorted_row_prefixes(
    seed, directed, destination
):
    """Every memoized stream, after one-shot queries, a resume and
    restored pages have grown it to their budgets, is a prefix of its
    full row with level views that partition it."""
    network, engine, start, cats, rng = _instance(seed, directed)
    dest = rng.randrange(network.num_vertices) if destination else None
    options = BSSROptions(use_contraction=True)
    engine.query(start, cats, destination=dest, options=options)
    session = engine.session(
        start, cats, destination=dest, page_size=1, options=options
    )
    session.next_page()
    restored = type(session).loads(engine, session.dumps())
    restored.next_page()
    ch = contraction_for(network)
    specs = {
        spec.share_key: spec for spec in engine.compile(start, cats).specs
    }
    streams = [
        (key, row) for key, row in ch._memo.items() if key[0] == "stream"
    ]
    assert streams
    for (_, share_key, source), row in streams:
        spec = specs[share_key]
        full = _full_row(ch, ch.bucket(spec.sim_map), source)
        _check_prefix(row, full)
        _check_views(row.levels, row.vids, row.dists, spec.sim_map)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_ch_level_reads_cover_each_levels_keys_within_the_budget(
    seed, directed
):
    network, engine, start, cats, rng = _instance(seed, directed)
    ch = contraction_for(network)
    spec = engine.compile(start, cats).specs[1]
    bucket = ch.bucket(spec.sim_map)
    for source in rng.sample(range(network.num_vertices), 4):
        full = _full_row(ch, bucket, source)
        for budget in _bounds_from(full, rng)[:3] + [math.inf]:
            stream = CHCandidateStream(
                ch.label_stream(source, bucket, spec.sim_map, spec.levels),
                spec.sim_map,
            )
            # fresh: the first read grows the row; then replayed
            _level_reads(stream, lambda level: budget, stream.keys)
            _check_views(
                stream.levels, stream.candidates, stream.keys, spec.sim_map
            )


def _to_go(network, compiled):
    dest_dist = (
        None
        if compiled.destination is None
        else dijkstra(network, compiled.destination, reverse=True)
    )
    return compute_lower_bounds(
        network, compiled, SkylineSet(), dest_dist=dest_dist
    ).to_go


@pytest.mark.parametrize("destination", [False, True])
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_modified_dijkstra_level_views_under_a_to_go_potential(
    seed, directed, destination
):
    network, engine, start, cats, rng = _instance(seed, directed)
    dest = rng.randrange(network.num_vertices) if destination else None
    compiled = engine.compile(start, cats, destination=dest)
    to_go = _to_go(network, compiled)
    for j in range(1, compiled.size):
        spec = compiled.specs[j]
        for source in rng.sample(range(network.num_vertices), 3):
            drained = PoICandidateSearch(
                network, spec, source, field=to_go[j]
            )
            levels = len(spec.levels)
            list(
                drained.scored_until(
                    [lambda: math.inf] * levels, start=(0,) * levels
                )
            )
            assert drained.exhausted
            _check_views(
                drained.levels, drained.candidates, drained.keys, spec.sim_map
            )
            keys = sorted(set(drained.keys)) or [0.0]
            budgets = keys + [k + 0.5 for k in keys]
            for budget in rng.sample(budgets, min(3, len(budgets))):
                # a drained search replays past the budget: the reads
                # must stop at keys, not at distances
                _level_reads(drained, lambda level: budget, drained.keys)
                fresh = PoICandidateSearch(
                    network, spec, source, field=to_go[j]
                )
                _level_reads(fresh, lambda level: budget, fresh.keys)
                _check_views(
                    fresh.levels, fresh.candidates, fresh.keys, spec.sim_map
                )
                # what a fresh search emitted is the drained one's prefix
                size = len(fresh.candidates)
                assert fresh.candidates == drained.candidates[:size]
                assert fresh.keys == drained.keys[:size]

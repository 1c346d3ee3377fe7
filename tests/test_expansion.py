"""BSSR's expansion loop does the same work on every path.

The one-shot search (:func:`~repro.core.bssr.run_bssr`) skips the
checkpoint machinery: it builds no child its prune test rejects and
counts a completion the threshold rejects without building it.  Neither
shortcut may change what is searched — routes and every work counter
must equal the checkpointable search's, and a pinned set of counters
catches any change in pop order.
"""

import pytest

from repro import SkySREngine
from repro.core.bssr import BSSRSearch, run_bssr
from repro.core.options import BSSROptions
from repro.datasets import generate_workload, tokyo_like

from .conftest import pick_query, random_instance

#: every counter of the expansion loop, the skyband and the streams
WORK_COUNTERS = (
    "routes_expanded",
    "routes_enqueued",
    "routes_pruned_on_pop",
    "routes_pruned_on_insert",
    "skyline_updates",
    "skyline_rejects",
    "settled",
    "relaxed",
    "heap_pushes",
    "mdijkstra_runs",
    "max_queue_size",
)

OPTION_SETS = {
    "default": BSSROptions(),
    "no-cache": BSSROptions(caching=False),
    "ch": BSSROptions(use_contraction=True),
}


def _work(stats) -> dict:
    return {name: getattr(stats, name) for name in WORK_COUNTERS}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", list(OPTION_SETS))
@pytest.mark.parametrize("seed", range(10))
def test_one_shot_and_checkpointable_runs_count_the_same_work(seed, name, k):
    network, forest, rng = random_instance(seed, num_pois=12)
    start, cats = pick_query(network, forest, rng, 3, distinct_trees=False)
    destination = rng.randrange(network.num_vertices)
    engine = SkySREngine(network, forest)
    options = OPTION_SETS[name].but(k=k)
    for dest in (None, destination):
        compiled = engine.compile(start, cats, destination=dest)
        # the hierarchy's memos charge their first build to whichever
        # search touches them first: warm them before comparing
        run_bssr(network, compiled, options=options)
        one_shot, one_stats = run_bssr(network, compiled, options=options)
        search = BSSRSearch(network, compiled, options=options)
        full, full_stats = search.run()
        assert one_shot == full
        assert _work(one_stats) == _work(full_stats)
        # serials are drawn by built children (one for the route, one
        # for its queue entry): one-shot builds only pushed ones
        lean = BSSRSearch(
            network, compiled, options=options, checkpointable=False
        )
        lean.run()
        assert lean.state.serial == 2 * one_stats.routes_enqueued
        assert search.state.serial == (
            2 * full_stats.routes_enqueued + full_stats.routes_pruned_on_insert
        )


#: WORK_COUNTERS of each query, in order, on a fresh tokyo_like(0.12);
#: under CH the settles are the hierarchy's first-touch memo builds
GOLDEN_WORK = {
    "default": [
        (11, 12, 1, 25, 3, 0, 413, 1592, 522, 12, 11),
        (45, 73, 28, 384, 12, 42, 6613, 24890, 8753, 34, 55),
        (9, 15, 6, 1, 6, 24, 1763, 6669, 1790, 8, 11),
        (10, 42, 32, 30, 8, 5, 2450, 9171, 2345, 10, 40),
        (17, 21, 4, 8, 14, 85, 3375, 12664, 3322, 12, 11),
        (4, 4, 0, 3, 2, 0, 315, 1208, 244, 5, 3),
    ],
    "ch": [
        (11, 12, 1, 25, 3, 0, 1209, 6909, 0, 0, 11),
        (45, 73, 28, 384, 12, 42, 1655, 9543, 0, 0, 55),
        (9, 15, 6, 1, 6, 24, 326, 1859, 0, 0, 11),
        (10, 42, 32, 30, 8, 5, 433, 2349, 0, 0, 40),
        (17, 21, 4, 8, 14, 85, 27, 129, 0, 0, 11),
        (5, 5, 0, 3, 2, 0, 212, 1179, 0, 0, 3),
    ],
}


@pytest.mark.parametrize("name", list(GOLDEN_WORK))
def test_work_counters_are_pinned(name):
    """Counters of six one-shot queries; any change in which routes
    are popped, pruned or offered moves at least one of them."""
    dataset = tokyo_like(scale=0.12)
    queries = generate_workload(dataset, 3, 6, seed=7)
    engine = SkySREngine(dataset.network, dataset.forest)
    found = [
        tuple(
            _work(
                engine.query(
                    q.start, list(q.categories), options=OPTION_SETS[name]
                ).stats
            ).values()
        )
        for q in queries
    ]
    assert found == GOLDEN_WORK[name]


@pytest.mark.parametrize(
    "options",
    [
        BSSROptions(use_landmarks=True, k=5),
        BSSROptions(k=5),
        BSSROptions(use_contraction=True, k=5),
    ],
    ids=["alt", "default", "ch"],
)
def test_k5_never_returns_one_poi_tuple_twice(options):
    """Regression: ``use_landmarks=True, k=5`` used to return one route
    twice (two copies of a PoI tuple an ULP apart in length).  No tuple
    repeats in the skyband of 60 queries under any option set."""
    dataset = tokyo_like(scale=0.12)
    engine = SkySREngine(dataset.network, dataset.forest)
    for q in generate_workload(dataset, 3, 60, seed=7):
        result = engine.query(q.start, list(q.categories), options=options)
        band = [r.pois for r in result.skyband]
        assert len(band) == len(set(band)), (q.start, q.categories)

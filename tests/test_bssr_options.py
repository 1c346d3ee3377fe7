"""Optimization toggles never change results — only work done.

Every combination of the four Section 5.3 techniques must return the
same skyline score set; the ablations only differ in counters (visited
vertices, Dijkstra executions, queue sizes).
"""

import itertools

import pytest

from repro.baselines.brute_force import brute_force_skysr
from repro.core.bssr import run_bssr
from repro.core.options import BSSROptions
from repro.core.priority import distance_priority, policy_for, proposed_priority
from repro.core.routes import PartialRoute
from repro.core.spec import compile_query
from repro.graph.poi import PoIIndex
from repro.semantics.similarity import HierarchyWuPalmer

from .conftest import pick_query, random_instance, score_set

ALL_TOGGLES = list(itertools.product([False, True], repeat=4))


def _compiled(seed, size=3, distinct_trees=True):
    network, forest, rng = random_instance(seed, num_pois=12)
    query = pick_query(network, forest, rng, size, distinct_trees=distinct_trees)
    if query is None:
        return None
    start, cats = query
    index = PoIIndex(network, forest)
    return network, compile_query(start, cats, index, HierarchyWuPalmer())


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 21])
def test_all_sixteen_toggle_combinations_agree(seed):
    built = _compiled(seed)
    if built is None:
        pytest.skip("instance cannot host the query")
    network, compiled = built
    reference = None
    for init, queue, bounds, caching in ALL_TOGGLES:
        options = BSSROptions(
            initial_search=init,
            priority_queue=queue,
            lower_bounds=bounds,
            perfect_match_bound=bounds,
            caching=caching,
        )
        routes, _ = run_bssr(network, compiled, options=options)
        scores = score_set(routes)
        if reference is None:
            reference = scores
        else:
            assert scores == reference, (
                f"toggles init={init} queue={queue} bounds={bounds} "
                f"caching={caching}"
            )


def test_without_optimizations_factory():
    options = BSSROptions.without_optimizations()
    assert not options.initial_search
    assert not options.priority_queue
    assert not options.lower_bounds
    assert not options.caching
    assert not options.effective_perfect_bound()
    assert BSSROptions.all_enabled().effective_perfect_bound()


def test_but_returns_modified_copy():
    base = BSSROptions()
    variant = base.but(caching=False)
    assert base.caching and not variant.caching
    assert variant.initial_search == base.initial_search


def test_perfect_bound_requires_lower_bounds():
    options = BSSROptions(lower_bounds=False, perfect_match_bound=True)
    assert not options.effective_perfect_bound()


def test_priority_policies():
    small = PartialRoute(
        pois=(1,), length=5.0, semantic=0.2, sem_state=None
    )
    big = PartialRoute(
        pois=(1, 2), length=9.0, semantic=0.5, sem_state=None
    )
    assert proposed_priority(big) < proposed_priority(small)  # size first
    assert distance_priority(small) < distance_priority(big)  # length only
    tie_a = PartialRoute(pois=(3, 4), length=2.0, semantic=0.5, sem_state=None)
    assert proposed_priority(tie_a) < proposed_priority(big)  # length breaks
    better_sem = PartialRoute(
        pois=(5, 6), length=99.0, semantic=0.1, sem_state=None
    )
    assert proposed_priority(better_sem) < proposed_priority(big)
    assert policy_for(True) is proposed_priority
    assert policy_for(False) is distance_priority


def test_cache_disabled_runs_more_dijkstras():
    built = _compiled(11)
    if built is None:
        pytest.skip("instance cannot host the query")
    network, compiled = built
    _, with_cache = run_bssr(network, compiled)
    _, without_cache = run_bssr(
        network, compiled, options=BSSROptions(caching=False)
    )
    assert without_cache.cache_hits == 0
    assert with_cache.mdijkstra_runs <= without_cache.mdijkstra_runs


def test_cache_serves_repeated_trees():
    """Positions sharing a category tree reuse cached searches too:
    candidate streams do not depend on the route, so the cache is
    exact."""
    network, compiled = _compiled(5, distinct_trees=False)
    shared = {
        vid
        for i, spec in enumerate(compiled.specs)
        for other in compiled.specs[i + 1:]
        for vid in spec.sim_map.keys() & other.sim_map.keys()
    }
    assert shared  # the draw really shares candidates across positions
    cached, with_cache = run_bssr(network, compiled)
    uncached, without_cache = run_bssr(
        network, compiled, options=BSSROptions(caching=False)
    )
    assert with_cache.cache_hits > 0
    assert with_cache.mdijkstra_runs < without_cache.mdijkstra_runs
    assert score_set(cached) == score_set(uncached)
    assert score_set(cached) == score_set(brute_force_skysr(network, compiled))


def test_initial_search_shrinks_first_radius():
    """On instances where NNinit finds a short perfect chain, the first
    search explores no farther than the unseeded variant."""
    for seed in range(8):
        built = _compiled(seed)
        if built is None:
            continue
        network, compiled = built
        _, seeded = run_bssr(network, compiled)
        _, unseeded = run_bssr(
            network, compiled, options=BSSROptions(initial_search=False)
        )
        assert seeded.first_search_radius <= unseeded.first_search_radius + 1e-9

"""Differential oracle: every search path returns the brute force's
routes, PoI tuple for PoI tuple.

Edge weights are integers, so every length is an exact float and the
comparison is ``==`` on ``(pois, length, round(semantic, 9))``.  The
PoI tuple is part of it: among routes with equal scores the skyband
keeps the lexicographically smallest tuple, and every path must find
that same representative, which it can only do if no route whose floor
ties a threshold is pruned.

Each cell is one query on one generated graph:

* grids with spur PoIs (:func:`~tests.conftest.random_instance`), and
  chains whose PoIs sit on the only path, so a route cannot detour
  around a PoI it does not visit and equal-length routes are common;
* directed and undirected, with and without a destination.

Every cell runs under default options, ``caching=False``,
``lower_bounds=False`` and contraction hierarchies, one-shot at
k = 1, 3 and 5, and as a ``page_size=1`` session restored from its
checkpoint (``to_dict`` → ``from_dict``) before every page.  The ranked
k-skyband and the pages are compared with the oracle's.  Across all of
them, one PoI tuple has one length: the one the brute force sums.

The unordered slice runs every cell as an unordered query (Section 6)
under the same option sets and ``k`` values, against the permutation
oracle's ranked k-skyband.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.brute_force import enumerate_sequenced_routes
from repro.baselines.topk import brute_force_skyband, brute_force_topk
from repro.core.dominance import rank_routes
from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.core.session import PlanningSession
from repro.extensions.unordered import brute_force_unordered
from repro.graph.road_network import RoadNetwork

from .conftest import pick_query, random_instance, route_rows, small_forest

OPTION_SETS = {
    "default": BSSROptions(),
    "no-cache": BSSROptions(caching=False),
    "no-bounds": BSSROptions(lower_bounds=False),
    "ch": BSSROptions(use_contraction=True),
}

KS = (1, 3, 5)

SEEDS = range(10)


def _chain(seed: int, directed: bool):
    """A path of road vertices and PoIs, integer weights in 1..3.

    Every PoI is an inner vertex of the path, so it lies on the only
    route between its neighbours; a directed chain gets both directions
    with independent weights."""
    rng = random.Random(seed)
    forest = small_forest()
    leaves = forest.leaves()
    network = RoadNetwork(directed=directed)
    previous = network.add_vertex(0.0, 0.0)
    for i in range(1, 16):
        if rng.random() < 0.6:
            vertex = network.add_poi(leaves[rng.randrange(len(leaves))])
        else:
            vertex = network.add_vertex(float(i), 0.0)
        network.add_edge(previous, vertex, float(rng.randint(1, 3)))
        if directed:
            network.add_edge(vertex, previous, float(rng.randint(1, 3)))
        previous = vertex
    return network, forest, rng


def _cells(kind: str, seed: int, directed: bool):
    """``(network, forest, start, cats, dest)`` for one generated graph,
    without and with a destination."""
    if kind == "grid":
        network, forest, rng = random_instance(
            seed, directed=directed, num_pois=12
        )
    else:
        network, forest, rng = _chain(seed, directed)
    picked = pick_query(network, forest, rng, 3, distinct_trees=False)
    if picked is None:
        return
    start, cats = picked
    destination = rng.randrange(network.num_vertices)
    for dest in (None, destination):
        yield network, forest, start, cats, dest


def _paged(engine, start, cats, dest, options, pages):
    """A ``page_size=1`` session, restored from its checkpoint before
    every page; returns the served routes and the search archive."""
    session = engine.session(
        start, cats, destination=dest, page_size=1, options=options
    )
    served = []
    for _ in range(pages):
        session = PlanningSession.from_dict(engine, session.to_dict())
        served.extend(session.next_page().routes)
    return served, list(session._search.state.archive.values())


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("kind", ["grid", "chain"])
def test_every_path_returns_the_oracle_routes(kind, directed):
    cells = 0
    for seed in SEEDS:
        for network, forest, start, cats, dest in _cells(kind, seed, directed):
            cells += 1
            where = (kind, directed, seed, dest)
            engine = SkySREngine(network, forest)
            compiled = engine.compile(start, cats, destination=dest)
            # the brute force's length of every PoI tuple, and the
            # length of every route any path produced for this cell
            lengths = {
                r.pois: r.length
                for r in enumerate_sequenced_routes(network, compiled)
            }
            produced = []
            bands = {
                k: rank_routes(brute_force_skyband(network, compiled, k))
                for k in KS
            }
            tops = {k: brute_force_topk(network, compiled, k) for k in KS}
            for name, options in OPTION_SETS.items():
                for k in KS:
                    result = engine.query(
                        start, cats, destination=dest, options=options.but(k=k)
                    )
                    assert route_rows(rank_routes(result.skyband)) == (
                        route_rows(bands[k])
                    ), (name, k, where)
                    assert route_rows(result.topk()) == route_rows(
                        tops[k]
                    ), (name, k, where)
                    produced.extend(result.skyband)
                served, archive = _paged(
                    engine, start, cats, dest, options, max(KS)
                )
                assert route_rows(served) == route_rows(tops[max(KS)]), (
                    name,
                    where,
                )
                produced.extend(served)
                produced.extend(archive)
            for route in produced:
                assert route.length == lengths[route.pois], (route, where)
    assert cells == 2 * len(SEEDS)  # every seed gave a query


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("kind", ["grid", "chain"])
def test_unordered_returns_the_oracle_routes(kind, directed):
    cells = 0
    for seed in SEEDS:
        for network, forest, start, cats, dest in _cells(kind, seed, directed):
            cells += 1
            where = (kind, directed, seed, dest)
            engine = SkySREngine(network, forest)
            compiled = engine.compile(start, cats, destination=dest)
            for k in KS:
                band = rank_routes(
                    brute_force_unordered(network, compiled, k)
                )
                for name, options in OPTION_SETS.items():
                    result = engine.query(
                        start,
                        cats,
                        destination=dest,
                        ordered=False,
                        options=options.but(k=k),
                    )
                    assert route_rows(rank_routes(result.skyband)) == (
                        route_rows(band)
                    ), (name, k, where)
                    assert route_rows(result.topk()) == route_rows(
                        band[:k]
                    ), (name, k, where)
    assert cells == 2 * len(SEEDS)

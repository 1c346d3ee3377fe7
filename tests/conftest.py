"""Shared fixtures and instance builders for the test suite.

Randomized correctness tests use *integer* edge weights, and every
weight sits on the 2**-20 grain of ``RoadNetwork.add_edge``, so length
scores are exact floats and algorithm outputs can be compared with
strict equality.  Semantic scores are products of similarities, which
sit on no grain, so score sets keep comparing them at 9 decimals.

Ties are exact too, and the search keeps them, so every path returns
the same representative of an equal-score class (the lexicographically
smallest PoI tuple): the oracle tests (``tests/test_differential.py``,
``tests/test_contraction.py``) compare ``(pois, length, semantic)``
route for route.  :func:`score_set` compares scores only.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets.paper_example import figure1_dataset
from repro.graph.road_network import RoadNetwork
from repro.semantics.category import CategoryForest
from repro.semantics.foursquare import build_foursquare_forest


def score_set(routes) -> set[tuple[float, float]]:
    """Comparable score-pair set of a route list."""
    return {(r.length, round(r.semantic, 9)) for r in routes}


def route_rows(routes) -> list[tuple]:
    """``(pois, length, semantic)`` per route, in order: compared with
    ``==``, so the representative of each equal-score class counts."""
    return [(r.pois, r.length, round(r.semantic, 9)) for r in routes]


def small_forest() -> CategoryForest:
    """A compact 3-tree forest exercising depths 1-3."""
    forest = CategoryForest()
    forest.add_path("Food", "Asian", "Ramen")
    forest.add_path("Food", "Asian", "Sushi")
    forest.add_path("Food", "Italian")
    forest.add_path("Food", "Bakery")
    forest.add_path("Shop", "Gift")
    forest.add_path("Shop", "Hobby", "Games")
    forest.add_path("Shop", "Clothes")
    forest.add_path("Fun", "Museum", "Art Museum")
    forest.add_path("Fun", "Music", "Jazz")
    return forest


def attach_integer_pois(
    network: RoadNetwork,
    count: int,
    categories: list[int],
    rng: random.Random,
    *,
    max_spur: int = 2,
) -> list[int]:
    """Attach PoIs as spur vertices with small integer edge weights."""
    road = [v for v in network.vertices() if not network.is_poi(v)]
    pois = []
    for _ in range(count):
        anchor = road[rng.randrange(len(road))]
        category = categories[rng.randrange(len(categories))]
        pid = network.add_poi(category)
        network.add_edge(anchor, pid, float(rng.randint(1, max_spur)))
        if network.directed:
            network.add_edge(pid, anchor, float(rng.randint(1, max_spur)))
        pois.append(pid)
    return pois


def integer_grid(
    rows: int,
    cols: int,
    rng: random.Random,
    *,
    directed: bool = False,
    extra_edges: int = 3,
) -> RoadNetwork:
    """Grid with unit weights plus a few random integer chords."""
    network = RoadNetwork(directed=directed)
    ids = [
        [network.add_vertex(float(c), float(r)) for c in range(cols)]
        for r in range(rows)
    ]
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                network.add_edge(ids[r][c], ids[r][c + 1], 1.0)
                if directed:
                    network.add_edge(ids[r][c + 1], ids[r][c], 1.0)
            if r + 1 < rows:
                network.add_edge(ids[r][c], ids[r + 1][c], 1.0)
                if directed:
                    network.add_edge(ids[r + 1][c], ids[r][c], 1.0)
    n = rows * cols
    for _ in range(extra_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            network.add_edge(u, v, float(rng.randint(1, 4)))
    return network


def random_instance(
    seed: int,
    *,
    rows: int = 4,
    cols: int = 4,
    num_pois: int = 10,
    directed: bool = False,
    forest: CategoryForest | None = None,
):
    """A reproducible small (network, forest, rng) test instance."""
    rng = random.Random(seed)
    forest = forest or small_forest()
    network = integer_grid(rows, cols, rng, directed=directed)
    leaf_ids = forest.leaves()
    attach_integer_pois(network, num_pois, leaf_ids, rng)
    return network, forest, rng


def pick_query(network, forest, rng, size, *, distinct_trees=True):
    """A query whose positions have at least one candidate each.

    Returns (start, category ids) or None when the instance cannot
    support a query of this size.
    """
    by_tree: dict[int, list[int]] = {}
    for _vid, cats in network.poi_items():
        for cid in cats:
            by_tree.setdefault(forest.tree_id(cid), []).append(cid)
    if distinct_trees:
        if len(by_tree) < size:
            return None
        trees = rng.sample(list(by_tree), size)
        cats = [by_tree[t][rng.randrange(len(by_tree[t]))] for t in trees]
    else:
        pool = [cid for cids in by_tree.values() for cid in cids]
        if not pool:
            return None
        cats = [pool[rng.randrange(len(pool))] for _ in range(size)]
    start = rng.randrange(network.num_vertices)
    return start, cats


@pytest.fixture(scope="session")
def figure1():
    return figure1_dataset()


@pytest.fixture(scope="session")
def foursquare():
    return build_foursquare_forest()


@pytest.fixture()
def rng():
    return random.Random(12345)

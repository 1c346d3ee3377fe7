"""The contraction hierarchy is pinned: same shortcuts, same upward arcs.

A faster build must contract the same vertices in the same order and
add the same shortcuts, so every query keeps running on the same
hierarchy.  Each case pins ``shortcuts_added`` and a sha256 of
``repr((ch._up_out, ch._up_in))``, recorded before witness searches
learned to stop once every shortcut they were run for is decided.  The
all-equal-weight grid makes every witness a tie with its shortcut, and
the directed grid has one-way arcs, so ``in_adj`` and ``out_adj``
differ.  Never regenerate these values from the code under test.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.datasets import mini_city, nyc_like, tokyo_like
from repro.graph.contraction import ContractionHierarchy
from repro.graph.road_network import RoadNetwork


def _grid(side: int, directed: bool, seed: int | None = None) -> RoadNetwork:
    """A ``side`` × ``side`` street grid.  Without a seed every street is
    two-way at weight 1; with one, each direction gets its own integer
    weight in 1..9 and a fifth of the streets are one-way."""
    rng = random.Random(seed)
    network = RoadNetwork(directed=directed)
    ids = [[network.add_vertex(c, r) for c in range(side)] for r in range(side)]
    for r in range(side):
        for c in range(side):
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr == side or cc == side:
                    continue
                u, v = ids[r][c], ids[rr][cc]
                if seed is None:
                    network.add_edge(u, v, 1.0)
                    continue
                weight = rng.randint(1, 9)
                one_way = rng.random() < 0.2
                if one_way and rng.random() < 0.5:
                    u, v = v, u
                network.add_edge(u, v, weight)
                if not one_way:
                    network.add_edge(v, u, rng.randint(1, 9))
    return network


CASES = {
    "mini_city": lambda: mini_city().network,
    "tokyo_like_0.12": lambda: tokyo_like(0.12).network,
    "nyc_like_0.12": lambda: nyc_like(0.12).network,
    "equal_weight_grid": lambda: _grid(14, directed=False),
    "one_way_grid": lambda: _grid(14, directed=True, seed=5),
}

#: (vertices, shortcuts_added, sha256 of the upward arcs) per case
PINNED = {
    "mini_city": (
        43, 34,
        "d6a531d40f201999f2bd3f81a84c9512ca95469461c0784da24ed4ae39b963bf",
    ),
    "tokyo_like_0.12": (
        516, 1881,
        "221a433c38f9eddb28dbb8c45024d17a865a9fca1516a7f0393fb33e89492d6e",
    ),
    "nyc_like_0.12": (
        672, 2324,
        "14a6685bc8cede5939c4d9550aa591ba0158eada109b4ee6cf9ff65813fa6647",
    ),
    "equal_weight_grid": (
        196, 456,
        "5df7246cf646f75dde89c1fdb2d952dddad49c483b62ea4b99778c04847cd4f1",
    ),
    "one_way_grid": (
        196, 705,
        "71a256fcbb3cd8bd803e51c5df43c2ea872b2619f1dc11b3dcebfe5d406ccac1",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_hierarchy_is_pinned(name):
    network = CASES[name]()
    ch = ContractionHierarchy(network)
    arcs = repr((ch._up_out, ch._up_in)).encode()
    found = (
        network.num_vertices,
        ch.stats.shortcuts_added,
        hashlib.sha256(arcs).hexdigest(),
    )
    assert found == PINNED[name]

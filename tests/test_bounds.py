"""Lower bounds (Algorithm 4 / Definition 5.7 / Lemma 5.8 inputs)."""

import math

import pytest

from repro.core.bounds import LowerBounds, compute_lower_bounds
from repro.core.dominance import SkylineSet
from repro.core.routes import SkylineRoute
from repro.core.spec import compile_query
from repro.core.stats import SearchStats
from repro.graph.contraction import contraction_for
from repro.graph.landmarks import landmarks_for
from repro.graph.poi import PoIIndex
from repro.graph.road_network import RoadNetwork
from repro.semantics.similarity import HierarchyWuPalmer

from .conftest import small_forest


def _chain_instance():
    """start -1- ramen -2- museum -3- gift, plus a hobby 1 past museum."""
    forest = small_forest()
    net = RoadNetwork()
    start = net.add_vertex()
    ramen = net.add_poi(forest.resolve("Ramen"))
    museum = net.add_poi(forest.resolve("Museum"))
    hobby = net.add_poi(forest.resolve("Hobby"))
    gift = net.add_poi(forest.resolve("Gift"))
    net.add_edge(start, ramen, 1.0)
    net.add_edge(ramen, museum, 2.0)
    net.add_edge(museum, hobby, 1.0)
    net.add_edge(hobby, gift, 2.0)
    index = PoIIndex(net, forest)
    query = compile_query(
        start, ["Ramen", "Museum", "Gift"], index, HierarchyWuPalmer()
    )
    return net, query, dict(
        start=start, ramen=ramen, museum=museum, hobby=hobby, gift=gift
    )


def test_disabled_bounds_are_zero():
    net, query, _ = _chain_instance()
    bounds = LowerBounds.disabled(query.size)
    assert bounds.suffix_ls == [0.0] * 4
    assert bounds.suffix_lp == [0.0] * 4
    assert bounds.dest_min == 0.0


def test_legs_and_suffixes():
    net, query, ids = _chain_instance()
    skyline = SkylineSet()  # empty → unrestricted sets
    stats = SearchStats()
    bounds = compute_lower_bounds(net, query, skyline, stats=stats)
    # leg 0: Food-tree PoIs → Fun-tree PoIs: ramen→museum = 2
    assert bounds.legs_ls[0] == 2.0
    # leg 1: Fun-tree PoIs → Shop-tree PoIs: museum→hobby = 1
    assert bounds.legs_ls[1] == 1.0
    # perfect variant of leg 1 targets Gift only: museum→gift = 3
    assert bounds.legs_lp[1] == 3.0
    assert bounds.suffix_ls[3] == 0.0
    assert bounds.suffix_ls[2] == 1.0
    assert bounds.suffix_ls[1] == 3.0
    assert bounds.suffix_ls[0] == bounds.suffix_ls[1]
    assert bounds.suffix_lp[1] == 5.0  # 2 + 3
    assert stats.sum_ls == 3.0 and stats.sum_lp == 5.0
    assert stats.bounds_time >= 0.0


def test_ball_restriction_prunes_far_candidates():
    """A short perfect route does not restrict the candidate sets of
    the default path: the leg stays the full-set minimum."""
    net, query, ids = _chain_instance()
    skyline = SkylineSet()
    # pretend the perfect route is very short: radius 2 excludes museum+
    skyline.update(
        SkylineRoute(pois=(99, 98, 97), length=2.0, semantic=0.0)
    )
    bounds = compute_lower_bounds(net, query, skyline)
    # with an empty restricted target set the leg collapses to a valid
    # lower bound: the truncation radius or inf
    assert bounds.legs_ls[0] >= 2.0


def test_remaining_best_np_suffix_max():
    net, query, _ = _chain_instance()
    bounds = compute_lower_bounds(net, query, SkylineSet())
    # best_nonperfect is taken over actual candidate PoIs: the Ramen and
    # Museum positions only have perfect candidates (None); the Gift
    # position has the Hobby PoI at sim 2/3.
    assert bounds.remaining_best_np[3] is None
    assert bounds.remaining_best_np[2] == pytest.approx(2 / 3)
    assert bounds.remaining_best_np[1] == pytest.approx(2 / 3)
    assert bounds.remaining_best_np[0] == pytest.approx(2 / 3)


def test_ch_legs_are_the_shaved_dijkstra_legs():
    """One leg function, two accelerators: with no ball (empty skyline)
    the Dijkstra legs are exact, and CH gives the same values, bit for
    bit, with no shave (the name is kept from when CH legs were
    shaved by a relative epsilon)."""
    net, query, _ = _chain_instance()
    plain = compute_lower_bounds(net, query, SkylineSet())
    ch = compute_lower_bounds(
        net, query, SkylineSet(), ch=contraction_for(net)
    )
    assert ch.legs_ls == plain.legs_ls
    assert ch.legs_lp == plain.legs_lp


def test_landmarks_and_ch_are_exclusive():
    net, query, _ = _chain_instance()
    with pytest.raises(ValueError):
        compute_lower_bounds(
            net, query, SkylineSet(),
            landmarks=landmarks_for(net), ch=contraction_for(net),
        )


def test_perfect_disabled_keeps_lp_at_ls():
    net, query, _ = _chain_instance()
    bounds = compute_lower_bounds(
        net, query, SkylineSet(), perfect_enabled=False
    )
    assert bounds.suffix_lp == bounds.suffix_ls


def test_dest_min_lower_bound():
    net, query, ids = _chain_instance()
    dest = ids["start"]  # round trip
    from repro.graph.dijkstra import dijkstra

    dest_dist = dijkstra(net, dest, reverse=True)
    bounds = compute_lower_bounds(
        net, query, SkylineSet(), dest_dist=dest_dist
    )
    # closest Shop-tree PoI to the start is hobby at distance 4
    assert bounds.dest_min == 4.0


def test_unreachable_leg_is_inf():
    forest = small_forest()
    net = RoadNetwork()
    start = net.add_vertex()
    ramen = net.add_poi(forest.resolve("Ramen"))
    net.add_edge(start, ramen, 1.0)
    island = net.add_poi(forest.resolve("Gift"))
    lonely = net.add_vertex()
    net.add_edge(lonely, island, 1.0)
    index = PoIIndex(net, forest)
    query = compile_query(start, ["Ramen", "Gift"], index, HierarchyWuPalmer())
    bounds = compute_lower_bounds(net, query, SkylineSet())
    assert bounds.legs_ls[0] == math.inf
    assert bounds.suffix_ls[1] == math.inf

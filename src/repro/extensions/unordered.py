"""Skyline trip planning without category order (Section 6).

"For searching routes without category order, the proposed algorithm
searches PoI vertices that semantically match a category in a given set
of categories.  Then, if the algorithm finds PoI vertices, it deletes
the categories that are already included in the routes to find next PoI
vertices."

An unordered route visits one PoI per category in some order, so it is
a sequenced route of one permutation of the query's categories.  The
search is BSSR itself, run once per category order
(:func:`category_orders`): each order is the compiled query with its
position specs permuted, and two orders whose positions carry the same
share keys in the same sequence are the same query, run once (a
position without a share key, such as a predicate, matches only
itself).

Every order's search starts from the skyband the earlier orders left,
and the last one's skyband is the answer; NNinit seeds it only while it
is still empty.  The distances to a destination are built by the first
order and handed to the later ones.  This is exact: BSSR prunes a
route only when ``k`` routes already in the skyband are no longer and
no worse, and every member is a real unordered route, whichever order
found it; :meth:`~repro.core.dominance.SkybandSet.update` keeps the same
members whatever order routes arrive in.  The engine's
:class:`~repro.core.options.BSSROptions` (``k``, contraction
hierarchies, the ablations) and its
:class:`~repro.core.distcache.DistanceCache` apply to every order, and
``max_routes_expanded`` caps the expansions of all orders together.

The semantic score of an unordered route aggregates the similarity of
each PoI under the position it covers; the product (Eq. 7), min, and
mean aggregators are all order-independent, so scores are well-defined.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from time import perf_counter
from typing import Iterator

from repro.baselines.brute_force import enumerate_sequenced_routes
from repro.core.bssr import BSSRSearch
from repro.core.distcache import DistanceCache
from repro.core.dominance import SkybandSet, skyband_filter
from repro.core.options import BSSROptions
from repro.core.routes import SkylineRoute
from repro.core.spec import CompiledQuery
from repro.core.stats import SearchStats
from repro.graph.road_network import RoadNetwork
from repro.semantics.scoring import SemanticAggregator


def category_orders(query: CompiledQuery) -> Iterator[CompiledQuery]:
    """Each distinct ordered query of the unordered ``query``, once."""
    specs = query.specs
    keys = [
        spec.share_key if spec.share_key is not None else position
        for position, spec in enumerate(specs)
    ]
    seen: set[tuple] = set()
    for order in itertools.permutations(range(query.size)):
        sequence = tuple(keys[i] for i in order)
        if sequence in seen:
            continue
        seen.add(sequence)
        yield replace(
            query,
            specs=[replace(specs[i], index=j) for j, i in enumerate(order)],
        )


def run_unordered_skysr(
    network: RoadNetwork,
    query: CompiledQuery,
    *,
    aggregator: SemanticAggregator | None = None,
    options: BSSROptions | None = None,
    distance_cache: DistanceCache | None = None,
) -> tuple[list[SkylineRoute], SearchStats]:
    """Skyline trip-planning query (unordered categories): the
    k-skyband over every category order, length ascending."""
    options = options or BSSROptions()
    limit = options.max_routes_expanded
    stats = SearchStats(algorithm="unordered-bssr")
    started = perf_counter()
    skyband = SkybandSet(options.k)
    dest_dist = None
    for ordered in category_orders(query):
        if limit is not None:
            options = options.but(
                max_routes_expanded=limit - stats.routes_expanded
            )
        if len(skyband):
            # NNinit seeds an empty skyband; past the first order the
            # routes earlier orders found bound the search instead
            options = options.but(initial_search=False)
        search = BSSRSearch(
            network, ordered, aggregator, options, shared_cache=distance_cache
        )
        search.state.skyband = skyband
        # one field to the destination serves every order
        search.state.dest_dist = dest_dist
        _, order_stats = search.run()
        dest_dist = search.state.dest_dist
        stats.merge(order_stats)
    stats.elapsed = perf_counter() - started
    stats.result_size = len(skyband)
    stats.skyline_updates = skyband.updates
    stats.skyline_rejects = skyband.rejects
    if options.k > 1:
        stats.extra["k"] = options.k
    return skyband.routes(), stats


def brute_force_unordered(
    network: RoadNetwork,
    query: CompiledQuery,
    k: int = 1,
    *,
    aggregator: SemanticAggregator | None = None,
) -> list[SkylineRoute]:
    """Permutation brute force — the unordered oracle for tests: the
    k-skyband of every sequenced route of every category order.  It
    permutes the specs itself, so it shares no code with the search."""
    routes: list[SkylineRoute] = []
    for order in itertools.permutations(query.specs):
        ordered = replace(query, specs=list(order))
        routes.extend(
            enumerate_sequenced_routes(network, ordered, aggregator=aggregator)
        )
    return skyband_filter(routes, k)

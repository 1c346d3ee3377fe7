"""NNinit — the initial search of Section 5.3.1 (Algorithm 3).

Branch-and-bound needs an upper bound before it can prune anything.
NNinit seeds the skyline set cheaply by chaining nearest-neighbor
searches: for each position it runs a Dijkstra from the previous PoI to
the nearest *perfect* match; on the final leg, every *semantic* match
settled before (and including) the perfect one yields a complete
sequenced route.  One of the seeds therefore has semantic score 0
(giving the ``l̄(ϕ)`` threshold of Algorithm 4) and the others trade
semantic score for length, tightening thresholds at higher semantic
levels — without any extra graph traversal.

Each leg runs a plain Dijkstra over the road graph or, under
``BSSROptions.use_contraction``, scans the hierarchy's memoized exact
rows in the same settle order; ALT landmarks play no part.

Degenerate cases are handled conservatively: when a leg has no
reachable perfect match the chain stops early (the skyline simply
receives fewer or no seeds and BSSR proceeds unbounded, still exact);
PoIs already used by the chain are skipped (route distinctness,
Definition 3.4 iii).
"""

from __future__ import annotations

import heapq
import math

from repro.core.dominance import SkybandSet
from repro.core.routes import SkylineRoute
from repro.core.spec import CompiledQuery
from repro.core.stats import SearchStats
from repro.graph.contraction import ContractionHierarchy
from repro.graph.csr import flat_adjacency
from repro.graph.dijkstra import ExpansionCounters
from repro.graph.road_network import RoadNetwork
from repro.semantics.scoring import SemanticAggregator


def nninit(
    network: RoadNetwork,
    query: CompiledQuery,
    aggregator: SemanticAggregator,
    skyline: SkybandSet,
    stats: SearchStats | None = None,
    dest_dist: dict[int, float] | None = None,
    ch: ContractionHierarchy | None = None,
) -> list[SkylineRoute]:
    """Seed ``skyline`` with greedily found sequenced routes.

    Returns the routes *offered* to the skyline set (before dominance
    filtering) so callers can compute Table 7's length ratio.  When the
    query has a destination, ``dest_dist`` (distances *to* the
    destination) must be supplied so seeded lengths are total lengths.

    Each leg runs one of two loops.  The Dijkstra loop settles the road
    graph from the chain's current PoI in distance order.  With ``ch``
    (``BSSROptions.use_contraction``), legs with a ``share_key`` and
    perfect matches run the CH loop instead: one forward upward
    sweep against the position's cached target bucket yields exact
    distances to every candidate.  Non-last legs pick the ``(d, vid)``-
    smallest unused perfect match — the vertex Dijkstra would settle
    first; the last leg replays the settle order by iterating the
    position's memoized candidate stream (sorted by ``(d, vid)``, the
    same one BSSR's expansions read), emitting the same seeds and
    stopping at the same perfect match.  The stream is grown lazily: when
    the iteration reaches its end, only as far as the nearest unused
    perfect match, taken from the memoized perfect row, instead of
    reading a full row.  Legs without a ``share_key``
    (or without perfect matches) fall back per-leg to the Dijkstra
    loop.
    """
    n = query.size
    specs = query.specs
    found_routes: list[SkylineRoute] = []
    prefix_pois: list[int] = []
    prefix_sims: list[float] = []
    length = 0.0
    state = aggregator.initial(n)
    source = query.start
    rows = flat_adjacency(network)
    num_v = len(rows)

    for position, spec in enumerate(specs):
        is_last = position == n - 1
        used = set(prefix_pois)
        sim_of = spec.sim_map.get
        perfect = spec.perfect
        found: tuple[float, int] | None = None
        settled_n = relaxed_n = 0
        if ch is not None and spec.share_key is not None and perfect:
            counters = ExpansionCounters()
            if is_last:
                stream = ch.memo_stream(
                    spec.share_key, source, spec.sim_map, spec.levels,
                    counters,
                )
                dists = stream.dists
                vids = stream.vids
                i = 0
                while found is None:
                    if i == len(vids):
                        if stream.exhausted:
                            break
                        # grow only to the nearest unused perfect match
                        # (all of the row when there is none)
                        row = ch.memo_row(
                            "perfect", spec.share_key, source, perfect,
                            counters,
                        )
                        stream.grow(
                            min(
                                (d for u, d in row.items() if u not in used),
                                default=math.inf,
                            )
                        )
                        continue
                    d = dists[i]
                    u = vids[i]
                    i += 1
                    if u in used:
                        continue
                    sim = sim_of(u)
                    total = length + d
                    if dest_dist is not None:
                        leg = dest_dist.get(u, math.inf)
                        total = length + d + leg
                    if total < math.inf:
                        end_state = aggregator.extend(state, sim)
                        route = SkylineRoute(
                            pois=tuple(prefix_pois) + (u,),
                            length=total,
                            semantic=aggregator.score(end_state),
                            sims=tuple(prefix_sims) + (sim,),
                        )
                        found_routes.append(route)
                        skyline.update(route)
                    if u in perfect:
                        found = (d, u)
            else:
                row = ch.memo_row(
                    "perfect", spec.share_key, source, perfect, counters
                )
                found = min(
                    ((d, u) for u, d in row.items() if u not in used),
                    default=None,
                )
            settled_n = counters.settled
            relaxed_n = counters.relaxed
        else:
            heap: list[tuple[float, int]] = [(0.0, source)]
            push = heapq.heappush
            pop = heapq.heappop
            dist_row = [math.inf] * num_v
            dist_row[source] = 0.0
            settled_row = bytearray(num_v)
            while heap:
                d, u = pop(heap)
                if settled_row[u]:
                    continue
                settled_row[u] = 1
                settled_n += 1
                usable = u not in used
                if is_last and usable:
                    sim = sim_of(u)
                    if sim is not None:
                        total = length + d
                        if dest_dist is not None:
                            leg = dest_dist.get(u, math.inf)
                            total = length + d + leg
                        if total < math.inf:
                            end_state = aggregator.extend(state, sim)
                            route = SkylineRoute(
                                pois=tuple(prefix_pois) + (u,),
                                length=total,
                                semantic=aggregator.score(end_state),
                                sims=tuple(prefix_sims) + (sim,),
                            )
                            found_routes.append(route)
                            skyline.update(route)
                        if u in perfect:
                            found = (d, u)
                            break
                elif usable and u in perfect:
                    found = (d, u)
                    break
                row = rows[u]
                relaxed_n += len(row)
                for v, w in row:
                    nd = d + w
                    if nd < dist_row[v]:
                        dist_row[v] = nd
                        push(heap, (nd, v))
        if stats is not None:
            stats.settled += settled_n
            stats.relaxed += relaxed_n
        if found is None:
            break  # no reachable perfect match: stop seeding, stay exact
        d, u = found
        length += d
        prefix_pois.append(u)
        prefix_sims.append(1.0)
        state = aggregator.extend(state, 1.0)
        source = u

    if stats is not None:
        stats.init_routes = len(found_routes)
        stats.init_length_ratio = _length_ratio(found_routes)
    return found_routes


def _length_ratio(routes: list[SkylineRoute]) -> float | None:
    """Table 7's "Ratio": length of the max-semantic seed over the
    length of the semantic-0 seed."""
    perfect = [r for r in routes if r.semantic <= 0.0]
    if not perfect or not routes:
        return None
    base = min(r.length for r in perfect)
    if base <= 0.0:
        return None
    worst = max(routes, key=lambda r: r.semantic)
    return worst.length / base

"""The bulk SkySR algorithm — BSSR (Section 5, Algorithm 1).

BSSR finds all skyline sequenced routes in a single bulk search: a
priority queue ``Q_b`` of partial routes is repeatedly popped, and the
popped route is extended by every next-position candidate discovered by
the modified Dijkstra (Algorithm 2), under branch-and-bound pruning:

* **upper bounds** come from the evolving skyline set ``S`` (Lemma 5.1)
  — Definition 5.4's threshold ``l̄``;
* **lower bounds** come from Lemma 5.2 (monotone scores) plus the
  optional per-leg minimum distances of Section 5.3.3;
* Lemma 5.3 justifies discarding any route whose bounds cross.

All four optimizations of Section 5.3 are integrated and individually
toggleable via :class:`~repro.core.options.BSSROptions`:
NNinit seeding, the proposed queue priority, ``l_s``/``l_p`` lower
bounds with Lemma 5.8's perfect-match rule, and on-the-fly caching of
modified-Dijkstra expansions.

The implementation is exact for directed and undirected networks,
multi-category PoIs, arbitrary position requirements (predicates), any
similarity measure / aggregator pair satisfying the documented
monotonicity contracts, and optional destinations.

With :attr:`BSSROptions.k` > 1 the same search answers the **top-k**
sequenced route query (after Liu et al., *Finding Top-k Optimal
Sequenced Routes*, 2018): the evolving set ``S`` becomes the k-skyband
and every pruning threshold the k-th-smallest qualifying length, which
relaxes the bounds exactly enough to retain k ranked alternatives per
skyline level while preserving all Section 5.3 optimizations.

Checkpoint / resume
-------------------

There is one search loop, and every search can be checkpointed.  Its
state is explicit: :class:`SearchState` owns everything a paused search
needs to continue — the route queue, the evolving skyband, an *archive*
of every completed route the search offered to it, the *deferred* list
(work the current ``k``'s thresholds rejected), and the
modified-Dijkstra cache.  Instead of silently discarding that work,
:class:`BSSRSearch` parks it by parent: one :class:`_Deferred` entry per
route prefix holds where the budgets cut its candidate stream, one
offset per similarity level, if they did, and each child or completion
its prune test cut as a ``(PoI, length)`` pair — nothing is built for
them.  Each level is read only up to the Lemma 5.3 budget at its own
semantic score, so a candidate the threshold would reject for its
similarity alone stays unread behind its level's offset instead of
being cut one at a time.  Below the final position a route's children
are handed out one at a time by a *cursor* queued behind each child
(partial expansion, after Felner et al.'s PEA*), so each sibling is
read and tested at the thresholds of its own turn, and the cursor
parks its parent once the stream is done.  Every cursor runs out inside
the drain that queued it, so a drained search — a checkpoint — holds
no cursor, only parked parents with their offsets and cut pairs.
:meth:`BSSRSearch.resume` widens the skyband to a larger ``k'``,
recomputes the (now looser) lower bounds, queues every parked parent
again as an ordinary route carrying its offsets and cut pairs, and
drains the queue.  A parent still prunable on pop is parked again as it
stands; one that is expanded hands out its cut pairs first, each
re-tested at the thresholds of its own turn, through the same cursor
(or, at the final position, the same completion loop) that then reads
its stream on from the stored offsets, so children are built and
completions offered in one place each.  Resume is exact: the prune
tests are monotone and thresholds only fall within a drain, so a pair
that fails its re-test would fail at pop too, and a completion above
the threshold has ``k'`` strictly shorter members with a semantic score
no worse.  Every route of the fresh ``k'`` search is thus already
archived, still parked, or reachable from a parked prefix — so
pagination (ranks ``k+1 .. k'``) never recomputes the routes the first
pass settled.  This is what :class:`~repro.core.session.PlanningSession`
builds on.  A one-shot query is the same search, run once and never
resumed: what it parks is its cut prefixes' offsets and the few pairs
its prune tests cut inside their level's budget.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

from repro.core.bounds import LowerBounds, compute_lower_bounds
from repro.core.distcache import DistanceCache
from repro.core.dominance import SkybandSet
from repro.core.nninit import nninit
from repro.core.options import BSSROptions
from repro.core.priority import policy_for
from repro.core.routes import PartialRoute, SkylineRoute
from repro.core.search import (
    CHCandidateStream,
    PoICandidateSearch,
    candidate_field,
)
from repro.core.spec import CompiledQuery
from repro.core.stats import SearchStats
from repro.errors import AlgorithmError, QueryError
from repro.graph.contraction import (
    CHBucket,
    CHDistanceOracle,
    contraction_for,
    shared_bucket,
)
from repro.graph.dijkstra import dijkstra
from repro.graph.landmarks import landmarks_for
from repro.graph.road_network import RoadNetwork
from repro.semantics.scoring import DEFAULT_AGGREGATOR, SemanticAggregator


def run_bssr(
    network: RoadNetwork,
    query: CompiledQuery,
    *,
    aggregator: SemanticAggregator | None = None,
    options: BSSROptions | None = None,
    distance_cache: DistanceCache | None = None,
) -> tuple[list[SkylineRoute], SearchStats]:
    """Execute a SkySR query with BSSR; returns (skyline routes, stats).

    The leg lower bounds are Algorithm 4's, computed per query (see
    :mod:`repro.core.bounds`).

    ``distance_cache`` shares modified-Dijkstra expansions *across*
    queries (see :mod:`repro.core.distcache`).  The search is the one a
    session pages with; a one-shot caller simply never resumes it.
    """
    return BSSRSearch(
        network, query, aggregator, options, shared_cache=distance_cache
    ).run()


#: a parent's cut children (or completions), each as ``(PoI, length)``
Cut = list[tuple[int, float]]


@dataclass(slots=True)
class _Deferred:
    """One parked parent.

    ``consumed`` holds, per similarity level of the parent's next
    position, how far into that level's view of its candidate stream
    the previous pass got before the level's budget (or a prune on pop)
    stopped it; ``None`` when every level was consumed to the end of the
    stream (a resume queues such a parent at ``()`` offsets, and it opens
    no stream).  ``cut`` holds each child (or, at the final position, each
    completion) the prune test rejected, as ``(PoI, length)``: the rest
    of it follows from the parent.
    """

    route: PartialRoute
    consumed: tuple[int, ...] | None
    cut: Cut


@dataclass
class SearchState:
    """Explicit state of one BSSR search.

    A drained search (queue empty) checkpoints to exactly this object;
    :meth:`BSSRSearch.resume` continues from it with a larger ``k``.

    Attributes:
        k: the skyband parameter the state is currently settled for.
        skyband: the evolving k-skyband ``S_k``, a plain
            :class:`SkybandSet` (an unordered query hands every order's
            search one shared band).
        archive: every completed route the search itself offered to the
            skyband, keyed by PoI tuple (which fixes a route's scores).
            The search records a route here where it offers one, which
            is in :meth:`BSSRSearch._complete` only: a fresh completion
            and a parked one a resume re-admits go through the same
            loop.  NNinit's offers are not recorded, and need not be: a route
            left in the final k-skyband has fewer than ``k`` members
            dominating it, so its length never exceeds a threshold at
            its semantic score, no prune test or budget cuts one of its
            prefixes, and the main search offers it again.  A route
            evicted from the band was either offered by the main search
            (so archived) or lies under a parked prefix.  A completion
            above the threshold at its semantic score is not offered
            (``k`` members dominate it) but parked under its parent, as
            a cut pair or behind its level's stream offset, so archive
            and deferred list together hold a superset of any future
            skyband up to the routes searched so far.
        deferred: work the current thresholds rejected, one
            :class:`_Deferred` per parent — prefixes pruned on pop or
            whose stream a level's budget cut, and the children and
            completions their prune tests cut — kept instead of
            discarded so a wider ``k`` can take it up again.
        queue: the route priority queue ``Q_b``, of two entry shapes.
            A *route* entry ``(priority, serial, route, consumed,
            stored)`` holds the route's per-level stream offsets (all 0
            for a fresh child; ``()`` for a parked parent whose stream
            was read to its end, which opens no stream) and ``stored``,
            the cut pairs of a parked parent a resume queued again
            (``None`` for a fresh child).  A *cursor* entry ``(priority,
            serial, parent, None, cursor)`` sits right behind the child
            it last handed out (same priority, next serial) and holds
            the generator over the parent's candidates that hands out
            the next one (:meth:`BSSRSearch._advance`).  Every drain
            empties the queue, cursors included, so a checkpoint never
            holds one.
        dest_dist: reverse distances to the destination, if any.
        cache: the on-the-fly modified-Dijkstra cache (Section 5.3.4) —
            shared across resumes, which is a large part of why resuming
            beats recomputing.  Never serialized: a restored state starts
            empty and rebuilds searches on demand.
        serial: the queue tie-break counter, drawn by route and cursor
            entries alike.  Never serialized: it orders only entries
            queued together, and a restored search starts it again at 0
            with an empty queue.
        resumes: how many times this state has been widened.
    """

    k: int
    skyband: SkybandSet
    archive: dict[tuple[int, ...], SkylineRoute] = field(default_factory=dict)
    deferred: list[_Deferred] = field(default_factory=list)
    queue: list[
        tuple[
            tuple,
            int,
            PartialRoute,
            tuple[int, ...] | None,
            Cut | Iterator[PartialRoute] | None,
        ]
    ] = field(default_factory=list)
    dest_dist: dict[int, float] | None = None
    cache: dict[tuple[int, int], PoICandidateSearch] = field(
        default_factory=dict
    )
    serial: int = 0
    resumes: int = 0

    @property
    def exhausted(self) -> bool:
        """No route outside the skyband exists anywhere in the search
        space: a k-skyband smaller than ``k`` proves every sequenced
        route (up to score-equivalence) is already a member, so no
        resume can surface anything new."""
        return len(self.skyband) < self.k

    def next_serial(self) -> int:
        value = self.serial
        self.serial += 1
        return value


class BSSRSearch:
    """One BSSR search (Algorithm 1 plus Section 5.3 optimizations),
    resumable to larger ``k`` via its explicit :class:`SearchState`.

    Every search parks the work its thresholds reject and archives the
    routes it offers, so any search can be checkpointed
    (:meth:`to_dict`) and resumed (:meth:`resume`); a one-shot query
    runs it once.
    """

    def __init__(
        self,
        network: RoadNetwork,
        query: CompiledQuery,
        aggregator: SemanticAggregator | None = None,
        options: BSSROptions | None = None,
        *,
        shared_cache: DistanceCache | None = None,
    ) -> None:
        self.network = network
        self.query = query
        self.aggregator = aggregator or DEFAULT_AGGREGATOR
        self.options = options or BSSROptions()
        self.shared_cache = shared_cache
        self.stats = SearchStats(algorithm="bssr")
        # Top-k generalization: with k > 1 the evolving set is the
        # k-skyband and every threshold below becomes the k-th-smallest
        # length, so the search keeps expanding until k routes per
        # score level are complete.  k = 1 is exactly the paper's BSSR.
        self.state = SearchState(
            k=self.options.k, skyband=SkybandSet(self.options.k)
        )
        if self.options.k > 1:
            self.stats.extra["k"] = self.options.k
        self.n = query.size
        self.bounds = LowerBounds.disabled(self.n)
        self._priority = policy_for(self.options.priority_queue)
        self._first_radius_recorded = False
        self._started = False
        # ALT index, bound lazily by _compute_bounds without
        # use_contraction only (memoized per network, so repeated
        # searches pay the table build once)
        self._landmarks = None
        # CH leg oracle under ``use_contraction``, bound lazily the same way
        self._ch = None
        # CH candidate streams (every position under use_contraction),
        # keyed (source, position); transient — deterministic, rebuilt
        # lazily after a restore
        self._ch_streams: dict[tuple[int, int], CHCandidateStream] = {}
        # target buckets of positions without a share_key, per position
        self._ch_buckets: dict[int, CHBucket] = {}
        # the prune test per route size, bound by _bind_prune_tests
        self._prune_tests: list[Callable[[float, float, object, int], bool]] = []
        # the A* potential of each position's modified Dijkstra (None:
        # all-zero), bound by _bind_prune_tests
        self._fields: list[Sequence[float] | None] = [None] * self.n
        # what names each position's potential in the cross-query cache
        # (see _potential_keys), bound by _bind_prune_tests
        self._potentials: list[tuple | None] = [None] * self.n
        # per position, the floor on what a child still has to travel
        # once it takes a candidate there (its expansion budget's
        # reserve), bound by _bind_prune_tests
        self._reserve: list[float] = [0.0] * self.n
        # per position, the stream offsets of a route that has read
        # nothing yet: one 0 per similarity level
        self._fresh = [(0,) * len(spec.levels) for spec in query.specs]
        # per position, each level's aggregator state and semantic score
        # by the aggregator state of the route extended there
        self._level_scores: list[dict] = [{} for _ in query.specs]

    # Durable checkpoints ----------------------------------------------

    def to_dict(self) -> dict:
        """Serialize the checkpointed state (see
        :mod:`repro.core.serialize`)."""
        from repro.core.serialize import search_to_dict

        return search_to_dict(self)

    @classmethod
    def from_dict(
        cls,
        network: RoadNetwork,
        query: CompiledQuery,
        aggregator: SemanticAggregator | None,
        payload: dict,
    ) -> "BSSRSearch":
        """Restore a checkpointed search against the same dataset."""
        from repro.core.serialize import search_from_dict

        return search_from_dict(
            network, query, aggregator or DEFAULT_AGGREGATOR, payload
        )

    # Convenience views over the state ---------------------------------

    @property
    def skyline(self) -> SkybandSet:
        return self.state.skyband

    @property
    def dest_dist(self) -> dict[int, float] | None:
        return self.state.dest_dist

    # ------------------------------------------------------------------

    def run(self) -> tuple[list[SkylineRoute], SearchStats]:
        """Execute the search for ``options.k``; checkpoint at the end."""
        if self._started:
            raise AlgorithmError("BSSRSearch.run() may only be called once")
        self._started = True
        started = perf_counter()
        if any(spec.num_candidates == 0 for spec in self.query.specs):
            # Some position admits no PoI at all: no sequenced route exists.
            self._finish(started)
            return [], self.stats

        if self.query.destination is not None and self.dest_dist is None:
            # a caller may hand in the field of an earlier search to the
            # same destination (the orders of an unordered query)
            self.state.dest_dist = self._make_dest_dist()  # type: ignore[assignment]

        if self.options.initial_search:
            init_start = perf_counter()
            nninit(
                self.network,
                self.query,
                self.aggregator,
                self.skyline,
                self.stats,
                dest_dist=self.dest_dist,
                ch=self._ch_index() if self.options.use_contraction else None,
            )
            self.stats.init_time = perf_counter() - init_start
            self.stats.extra["init_perfect_length"] = (
                self.skyline.perfect_route_length()
            )

        self._compute_bounds()
        self._bind_prune_tests()

        empty = PartialRoute(
            pois=(),
            length=0.0,
            semantic=0.0,
            sem_state=self.aggregator.initial(self.n),
            sims=(),
        )
        self._expand(empty, self._fresh[0])
        self._drain()
        self._finish(started)
        return self.skyline.routes(), self.stats

    def resume(self, k: int) -> tuple[list[SkylineRoute], SearchStats]:
        """Widen the checkpointed search to ``k`` and continue.

        Rebuilds the skyband from the archive at the larger ``k``,
        recomputes the lower bounds (the ``l̄(ϕ)`` radius grows with the
        k-th perfect length; the to-go rows are reused), queues every
        parked parent again as an ordinary route entry carrying its
        offsets and cut pairs (``()`` offsets for one whose stream was
        read to its end), and drains the queue under the relaxed
        thresholds: :meth:`_drain` prune-tests each parent on pop and
        :meth:`_expand` hands out its cut pairs ahead of the rest of its
        stream.  Returns the full
        widened skyband plus the stats of *this leg only*, so callers
        can compare resume cost against a from-scratch run.
        """
        if not self._started:
            raise AlgorithmError("resume() requires a completed run() first")
        if k < self.state.k:
            raise QueryError(
                f"cannot narrow a checkpointed search from k="
                f"{self.state.k} to k={k}"
            )
        started = perf_counter()
        state = self.state
        state.resumes += 1
        self.stats = SearchStats(algorithm="bssr")
        self.stats.extra["k"] = k
        self.stats.extra["resumed_from_k"] = state.k
        self.stats.extra["resumes"] = state.resumes
        if k == state.k or state.exhausted:
            # Nothing can change: same thresholds, or the archive
            # already holds every route in existence.
            state.k = k
            state.skyband = self._rebuild_skyband(k)
            self._finish(started)
            return self.skyline.routes(), self.stats
        state.k = k
        state.skyband = self._rebuild_skyband(k)
        # The radius l̄(ϕ) grew with k: pass-1 bounds may overprune
        # routes that only the wider skyband admits, so recompute.
        self._compute_bounds()
        self._bind_prune_tests()
        deferred, state.deferred = state.deferred, []
        for item in deferred:
            self._push(item.route, item.consumed or (), item.cut)
        self.stats.extra["deferred_replayed"] = len(deferred)
        self._drain()
        self._finish(started)
        return self.skyline.routes(), self.stats

    # ------------------------------------------------------------------

    def _ch_index(self):
        """The network's (memoized) contraction hierarchy, bound lazily."""
        if self._ch is None:
            self._ch = contraction_for(self.network)
        return self._ch

    def _bucket_cache(self) -> DistanceCache | None:
        """The cache that counts CH target-bucket traffic.

        Buckets themselves live on the hierarchy; they are exact
        query-independent distances; the ``caching`` flag gates the
        counting."""
        if not self.options.use_contraction or not self.options.caching:
            return None
        return self.shared_cache

    def _make_dest_dist(self):
        """Distances *to* the destination for the final-leg scoring.

        The lazy :class:`CHDistanceOracle` under ``use_contraction``
        (its bucket is memoized on the hierarchy, keyed by destination),
        the eager full reverse Dijkstra otherwise.  Checkpoint restore
        goes through this same seam so restored sessions carry the same
        oracle type as live ones.
        """
        destination = self.query.destination
        assert destination is not None
        if self.options.use_contraction:
            ch = self._ch_index()
            bucket = shared_bucket(
                ch,
                self._bucket_cache(),
                "dest",
                (destination,),
                (destination,),
            )
            return CHDistanceOracle(ch, destination, bucket)
        return dijkstra(self.network, destination, reverse=True)

    def _compute_bounds(self) -> None:
        # The one ALT decision point: CH legs and floors are exact, so
        # under use_contraction no landmark code runs at all.
        if (
            self.options.use_landmarks
            and self.options.lower_bounds
            and not self.options.use_contraction
        ):
            self._landmarks = landmarks_for(self.network)
        self.bounds = compute_lower_bounds(
            self.network,
            self.query,
            self.skyline,
            enabled=self.options.lower_bounds,
            perfect_enabled=self.options.effective_perfect_bound(),
            dest_dist=self.dest_dist,
            stats=self.stats,
            landmarks=self._landmarks,
            ch=self._ch_index() if self.options.use_contraction else None,
            shared_cache=self._bucket_cache(),
            previous=self.bounds,
        )

    def _rebuild_skyband(self, k: int) -> SkybandSet:
        """The k-skyband of everything completed so far.

        Order-independent thanks to the deterministic equivalence
        collapse, so iterating the archive in any order is exact.
        """
        band = SkybandSet(k)
        for route in sorted(
            list(self.state.archive.values()),
            key=lambda r: (r.length, r.semantic, r.pois),
        ):
            band.update(route)
        return band

    def _drain(self) -> None:
        """The main loop: pop, prune-or-expand, until the queue empties.

        A popped cursor hands out its parent's next child
        (:meth:`_advance`) without a second prune test of the parent or
        the setup of :meth:`_expand`.  A route pruned on pop is parked
        as it stands, with its offsets and the cut pairs it carries.  A
        route popped at its fresh offsets opens its stream
        (``routes_expanded``); one popped at stored offsets, a parent a
        resume queued again, hands out its cut pairs and reads on where
        its earlier pop left off, and counts with the cursors as
        ``routes_continued``.

        Under the proposed order a child is popped right after its
        cursor queues it, at the thresholds it was tested at, so the pop
        test prunes only parked parents a resume queued again.  Under
        ``priority_queue=False`` a queued child can wait behind routes
        whose completions tighten the thresholds, and fresh children are
        pruned on pop too: on 100 seed-1 ``v1_paging`` sessions (pages
        of 3) about 6.8 per first page and 6.9 per later page, beside
        10.7 parents.
        """
        queue = self.state.queue
        deferred = self.state.deferred
        limit = self.options.max_routes_expanded
        tests = self._prune_tests
        fresh = self._fresh
        start = self.query.start
        stats = self.stats
        while queue:
            entry = heapq.heappop(queue)
            _, _, route, consumed, cut = entry
            if consumed is None:
                # a cursor: ``cut`` is the generator over the parent's
                # stream
                stats.routes_continued += 1
                self._advance(route, cut)
                continue
            pois = route.pois
            if tests[len(pois)](
                route.length,
                route.semantic,
                route.sem_state,
                pois[-1] if pois else start,
            ):
                stats.routes_pruned_on_pop += 1
                # ``()`` offsets mark a parent read to its end
                deferred.append(_Deferred(route, consumed or None, cut or []))
                continue
            if consumed != fresh[len(pois)]:
                stats.routes_continued += 1
            else:
                stats.routes_expanded += 1
                if limit is not None and stats.routes_expanded > limit:
                    # left queued: an undrained search is no checkpoint
                    heapq.heappush(queue, entry)
                    raise AlgorithmError(
                        f"BSSR exceeded max_routes_expanded={limit}"
                    )
            self._expand(route, consumed, cut)
        # run() starts the list empty and resume() takes it over before
        # queuing its parents, so it holds exactly what this leg parked
        stats.routes_deferred = len(deferred)

    def _finish(self, started: float) -> None:
        self.stats.elapsed = perf_counter() - started
        self.stats.result_size = len(self.skyline)
        self.stats.skyline_updates = self.skyline.updates
        self.stats.skyline_rejects = self.skyline.rejects
        if self._ch is not None:
            self.stats.extra["ch"] = self._ch.stats.as_dict()

    # ------------------------------------------------------------------

    def _bind_prune_tests(self) -> None:
        """Bind :meth:`_prunable` for every route size, and each
        position's stream potential and expansion reserve, against the
        current skyband and bounds (both fixed until the next resume).

        When the bounds carry to-go rows (``lower_bounds`` without
        ``use_contraction``) they bind the A* potential of each
        position's modified Dijkstra (see :mod:`repro.core.search`):
        position 0 takes its memoized candidate distance field
        (:func:`~repro.core.search.candidate_field`), and every later
        position ``j`` takes ``to_go[j]``, whose key on a candidate is
        its distance plus the exact remainder ahead of it.

        The reserve of position ``j`` is what a child still has to
        travel after its position-``j`` candidate beyond what the
        stream's keys already carry.  It is 0 where the potential is a
        to-go row.  At position 0 it is the least to-go value over the
        position's candidates: a ``to_go[0]`` row would save few settles
        for one more full sweep.  Without to-go rows it is the suffix of
        per-leg minima, and at the final position the destination leg
        floor.  Every floor is an exact sum on the weight grain and is
        bound as computed: the prune tests cut only above a threshold,
        so a floor that ties one needs no slack to keep its route alive.
        """
        bounds = self.bounds
        n = self.n
        if bounds.to_go is not None:
            first = candidate_field(self.network, self.query.specs[0])
            self._fields = [first, *bounds.to_go[1:]]
            self._potentials = self._potential_keys()
            reserve = [bounds.to_go_min] + [0.0] * (n - 1)  # type: ignore[list-item]
        else:
            reserve = [
                bounds.suffix_ls[j + 1] + bounds.dest_min for j in range(n)
            ]
            reserve[-1] = bounds.dest_min
        self._reserve = reserve
        self._prune_tests = [self._prunable(size) for size in range(self.n)]

    def _potential_keys(self) -> list[tuple | None]:
        """What names each position's potential in the cross-query
        cache (:class:`~repro.core.distcache.DistanceCache`).

        ``None`` where the potential is 0 on every candidate — position
        0, and the last position of a destination-free query — since the
        stream is then the ``(distance, vertex)`` order whatever the
        field.  Elsewhere the potential is ``to_go[j]``, a function of
        the candidate sets of positions ``j … n−1`` and the destination,
        so it is named by ``(share keys of j … n−1, destination)``; a
        suffix holding a position without a share key (a predicate)
        leaves ``None`` among them, which the cache refuses to share.
        """
        specs = self.query.specs
        destination = self.query.destination
        keys: list[tuple | None] = [None] * self.n
        for j in range(1, self.n):
            if j < self.n - 1 or destination is not None:
                suffix = tuple(spec.share_key for spec in specs[j:])
                keys[j] = (suffix, destination)
        return keys

    def _prunable(
        self, size: int
    ) -> Callable[[float, float, object, int], bool]:
        """Lemma 5.3 (with Section 5.3.3 floors) + Lemma 5.8 for
        routes of ``size`` PoIs: ``prunable(length, semantic, sem_state,
        last)``.

        This is the one prune test.  It runs on raw values, so the
        queue pops it and a cursor (:meth:`_cursor`) tests a child with
        it before the child is built.  Everything that depends on
        ``size`` alone is bound once; what is left per route is the
        arithmetic.

        Every comparison is strict.  A route whose floor *equals* the
        threshold at its semantic score may complete with exactly a
        member's scores and a lexicographically smaller PoI tuple, which
        :meth:`SkybandSet.update` keeps as the representative; pruning
        it would make the answer depend on discovery order.  The same
        holds for both Lemma 5.8 conditions.  An infinite floor prunes
        whatever the threshold: no completion exists.

        ``last`` is the route's current endpoint (the start vertex for
        an empty route), and the length floor is anchored on it:

        * with to-go rows (``lower_bounds`` without ``use_contraction``)
          a route of size ``1 … n−1`` is floored at ``length`` plus its
          to-go value — the exact remaining route, destination
          included, relaxed to ignore distinctness and similarity.  A
          child of a route of size 1 or more comes from a stream keyed
          by that same floor, which its level's budget has already held
          to the threshold at the child's own semantic score, so on
          insert only Lemma 5.8 cuts.
          The empty route, popped only after a resume, is floored
          without a sweep: its first-leg field value plus position 0's
          reserve;
        * under ``use_contraction``, at ``length`` plus the per-leg
          suffix and destination floor, where the exact next-leg
          distance from ``last`` to the next position's full candidate
          set (memoized on the hierarchy) replaces the generic next leg
          when sharper, and covers the start leg;
        * with ``lower_bounds`` off, at ``length`` alone.
        """
        skyline = self.skyline
        threshold = skyline.threshold
        bounds = self.bounds
        suffix = bounds.suffix_ls[size]
        dest_min = bounds.dest_min
        # legs_ls is empty when lower bounds are disabled (or n==1); the
        # generic per-leg minimum is 0 then, and the anchored floor
        # simply adds on top.
        generic = bounds.legs_ls[size - 1] if size and bounds.legs_ls else 0.0
        # ``rest(last)``: everything the floor adds to ``length``
        rest: Callable[[int], float] | None = None
        # ``anchor(last)``: the CH next-leg floor, on top of the suffix
        anchor: Callable[[int], float] | None = None
        if bounds.to_go is not None:
            if size:
                row = bounds.to_go[size]

                rest = row.__getitem__  # type: ignore[union-attr]

            else:
                first = self._fields[0]
                empty_floor = (
                    first[self.query.start] if first is not None else 0.0
                ) + self._reserve[0]

                def rest(last: int) -> float:
                    return empty_floor

        elif (
            size < self.n
            and self.options.use_contraction
            and self.options.lower_bounds
        ):
            # Exact next-leg distance from the concrete endpoint to the
            # next position's full candidate set — memoized per (vertex,
            # category) on the hierarchy, so after the first probe the
            # floor is a dict lookup.
            spec = self.query.specs[size]
            if spec.share_key is not None:
                vertex_min = self._ch_index().vertex_min
                share_key = spec.share_key
                sim_map = spec.sim_map

                def anchor(last: int) -> float:
                    return vertex_min("cands", share_key, last, sim_map)

        perfect = self.options.effective_perfect_bound() and size < self.n
        if perfect:
            min_increment = self.aggregator.min_increment
            remaining = bounds.remaining_best_np[size]
            suffix_lp = bounds.suffix_lp[size]

        # the anchored floor is a function of the endpoint alone
        floors: dict[int, float] = {}

        def prunable(
            length: float, semantic: float, sem_state, last: int
        ) -> bool:
            if rest is not None:
                extra = floors.get(last)
                if extra is None:
                    extra = floors[last] = rest(last)
                floor = length + extra
            else:
                floor = length + suffix + dest_min
                if anchor is not None:
                    anchored = floors.get(last)
                    if anchored is None:
                        anchored = floors[last] = anchor(last)
                    if anchored > generic:
                        floor += anchored - generic
            if floor > threshold(semantic) or floor == math.inf:
                return True
            if perfect and len(skyline):
                delta = min_increment(sem_state, remaining)
                if (
                    delta > 0.0
                    and threshold(semantic + delta) < length
                    and threshold(semantic)
                    < length + suffix_lp + dest_min
                ):
                    return True
            return False

        return prunable

    def _push(
        self,
        route: PartialRoute,
        consumed: tuple[int, ...],
        cut: Cut | None = None,
    ) -> tuple:
        """Queue ``route`` at its per-level stream offsets (all 0 for a
        fresh child), carrying ``cut``; returns its priority."""
        queue = self.state.queue
        priority = self._priority(route)
        heapq.heappush(
            queue, (priority, self.state.next_serial(), route, consumed, cut)
        )
        self.stats.routes_enqueued += 1
        if len(queue) > self.stats.max_queue_size:
            self.stats.max_queue_size = len(queue)
        return priority

    def _advance(
        self, route: PartialRoute, cursor: Iterator[PartialRoute]
    ) -> None:
        """Hand out ``cursor``'s next child of ``route``: queue the child
        and the cursor right behind it (same priority, next serial), so
        the cursor pops again once the child's subtree is done.  A
        cursor with no child left has parked ``route`` and is dropped."""
        child = next(cursor, None)
        if child is None:
            return
        priority = self._push(child, self._fresh[child.size])
        queue = self.state.queue
        heapq.heappush(
            queue, (priority, self.state.next_serial(), route, None, cursor)
        )
        # ``max_queue_size`` counts every entry, cursors included
        if len(queue) > self.stats.max_queue_size:
            self.stats.max_queue_size = len(queue)

    def _candidate_search(
        self, route: PartialRoute, position: int
    ) -> PoICandidateSearch:
        source = route.pois[-1] if route.pois else self.query.start
        spec = self.query.specs[position]
        field = self._fields[position]
        if not self.options.caching:
            # the Figure 5 ablation: a fresh expansion every time
            self.stats.mdijkstra_runs += 1
            return PoICandidateSearch(
                self.network, spec, source, stats=self.stats, field=field
            )
        key = (source, position)
        search = self.state.cache.get(key)
        if search is not None:
            self.stats.cache_hits += 1
            self.stats.mdijkstra_resumes += 1
            return search
        shared = self.shared_cache
        potential = self._potentials[position]
        if shared is not None:
            # Candidate streams are route-independent and append-only,
            # so adopting a warm one from another query is exact (its
            # expansion cost is simply already paid) as long as it was
            # built under the same potential, which fixes its order.
            cached = shared.lookup(
                self.network, source, spec, potential, stats=self.stats
            )
            if cached is not None:
                self.state.cache[key] = cached
                self.stats.mdijkstra_resumes += 1
                self.stats.extra["shared_cache_hits"] = (
                    self.stats.extra.get("shared_cache_hits", 0) + 1
                )
                return cached
        search = PoICandidateSearch(
            self.network, spec, source, stats=self.stats, field=field
        )
        self.state.cache[key] = search
        self.stats.mdijkstra_runs += 1
        if shared is not None:
            shared.admit(self.network, source, spec, search, potential)
        return search

    def _ch_stream(
        self, route: PartialRoute, position: int
    ) -> CHCandidateStream:
        """The CH label-row stream of ``position`` from the route's
        endpoint (see :class:`~repro.core.search.CHCandidateStream`):
        exact distances to the full candidate set, sorted and grown
        lazily, no road-graph settles.  Like modified-Dijkstra streams they are
        route-independent, so one per ``(source, position)`` serves
        every route; distinctness is enforced by the caller's
        ``vid in route.pois`` filter.  Share-keyed rows come from the
        hierarchy's memo; others (and their buckets) are built for this
        search only, in the same typed form."""
        source = route.pois[-1] if route.pois else self.query.start
        key = (source, position)
        stream = self._ch_streams.get(key)
        if stream is None:
            spec = self.query.specs[position]
            ch = self._ch_index()
            if spec.share_key is not None:
                row = ch.memo_stream(
                    spec.share_key, source, spec.sim_map, spec.levels
                )
            else:
                bucket = self._ch_buckets.get(position)
                if bucket is None:
                    bucket = ch.bucket(spec.sim_map)
                    self._ch_buckets[position] = bucket
                row = ch.label_stream(
                    source, bucket, spec.sim_map, spec.levels
                )
            stream = CHCandidateStream(row, spec.sim_map)
            self._ch_streams[key] = stream
        return stream

    def _expand(
        self,
        route: PartialRoute,
        consumed: tuple[int, ...],
        stored: Cut | None = None,
    ) -> None:
        """Algorithm 1 lines 7–9: extend ``route`` at its next position.

        The stream is read one similarity level at a time, highest
        first, through its level views (see :mod:`repro.core.search`).
        Every candidate of a level gives its child the same semantic
        score, so each level has its own Lemma 5.3 budget: the threshold
        at that score, less the route's length and the position's
        reserve.  A candidate past it cannot reach the threshold
        whatever follows, so it is never read.  Each one read pays only
        for the tests the paper defines: a child goes through the same
        prune test as a queue pop (:meth:`_prunable`) before anything is
        built, so a :class:`PartialRoute` exists only for a child that
        is queued.  At the final position a completion longer than the
        threshold at its semantic score counts as a skyline reject
        without being built — :meth:`SkybandSet.update` would provably
        reject it.

        Below the final position the children are handed out one at a
        time by a cursor (:meth:`_cursor`, partial expansion after
        Felner et al.'s PEA*): the first one is queued here with the
        cursor right behind it, and each later one is read, tested and
        built only when the cursor pops again, at the thresholds of its
        own turn.  The final position offers every completion in this
        one call (:meth:`_complete`).  Either way the budgets are
        re-read as the skyband tightens them.

        ``consumed`` holds one offset per level: the candidates a
        previous pass already processed (deterministic stream order
        makes each offset exact); ``()`` for a parent whose stream was
        read to its end, which opens no stream at all.  ``stored`` holds
        the pairs a parked parent's earlier pass cut: both loops take
        them up, each re-tested in turn, before the stream
        (:meth:`_candidates`).  The route is parked once, when its
        candidates are done (:meth:`_park`): if a budget cut a level
        short (with the new offsets, so a resumed search picks up the
        rest) or if any child or completion was cut (as ``(PoI,
        length)`` pairs, re-tested on resume).
        """
        position = route.size
        reserve = self._reserve[position]
        if reserve == math.inf:
            return  # no candidate of this position reaches a completion
        threshold = self.skyline.threshold
        length = route.length
        # each level's aggregator state and semantic score, which only
        # the route's own state decides
        known = self._level_scores[position]
        found = known.get(route.sem_state)
        if found is None:
            extend = self.aggregator.extend
            extended = [
                extend(route.sem_state, sim)
                for sim in self.query.specs[position].levels
            ]
            found = known[route.sem_state] = (
                extended,
                [self.aggregator.score(state) for state in extended],
            )
        extended, semantics = found
        if not consumed:
            search = None
        elif self.options.use_contraction:
            search = self._ch_stream(route, position)
        else:
            search = self._candidate_search(route, position)
        # Lemma 5.3 break, per level: read only while a candidate at
        # this key could still reach the threshold at the level's
        # semantic score; the stream keeps a candidate exactly at the
        # budget.  A key is the distance plus the potential's value
        # there.  Past position 0 under to-go rows that value is the
        # child's exact remainder, so the child's floor is ``length +
        # key`` and the reserve is 0; elsewhere the reserve floors the
        # remainder.  Every offer may tighten the thresholds, so the
        # budgets are re-read.
        budgets = [
            lambda semantic=semantic: threshold(semantic) - length - reserve
            for semantic in semantics
        ]
        if position + 1 == self.n:
            self._complete(
                route, search, consumed, semantics, budgets, stored
            )
        else:
            cursor = self._cursor(
                route, search, consumed, extended, semantics, budgets, stored
            )
            self._advance(route, cursor)

    def _park(
        self,
        route: PartialRoute,
        search: CHCandidateStream | PoICandidateSearch | None,
        offsets: list[int],
        cut: Cut,
    ) -> None:
        """Park ``route`` once its candidates are done, if a budget cut
        a level short or anything was cut.

        Did a budget cut the stream?  The decision is a function of the
        stream and the final offsets alone (is a candidate left beyond
        them?), so a cached search that another consumer drained past
        the budgets defers exactly like a fresh one rebuilt after a
        restore, whatever field drove either; a parent that opened no
        stream (``search is None``) was read to its end before.  The
        empty route's stream is the first search: its radius once the
        run is done with it is the Table 7 weight sum.
        """
        stopped = search is not None and (
            any(
                offset < len(view)
                for offset, (_, view) in zip(offsets, search.levels)
            )
            or not search.exhausted
        )
        if stopped or cut:
            # park the prefix so a wider search can resume it exactly
            # where this pass stopped
            self.state.deferred.append(
                _Deferred(route, tuple(offsets) if stopped else None, cut)
            )
        if (
            search is not None
            and not route.pois
            and not self._first_radius_recorded
        ):
            self.stats.first_search_radius = search.radius
            self._first_radius_recorded = True

    def _candidates(
        self,
        route: PartialRoute,
        search: CHCandidateStream | PoICandidateSearch | None,
        consumed: tuple[int, ...],
        budgets: list[Callable[[], float]],
        stored: Cut | None,
        cut: Cut,
        leg: Callable[[int, float], float] | None = None,
    ) -> Iterator[tuple[int, int, float]]:
        """Yield each candidate of ``route``'s next position still to be
        tested, as ``(level, PoI, length)``, and park the route
        (:meth:`_park`) with the consumer's ``cut`` once they run out.

        First come the ``stored`` pairs, a parked parent's earlier cuts,
        with their lengths as kept (a completion's includes its
        destination leg).  Then the stream, unless ``search`` is
        ``None``: from the ``consumed`` offsets on, level by level, each
        within its level's budget; ``leg`` adds the destination leg at
        the final position and skips a candidate that cannot reach it.
        The skyband moves between two candidates (a completion is
        offered, or a child's subtree runs), so a segment is re-checked
        against its level's budget once the skyband's version moves.
        """
        spec = self.query.specs[route.size]
        if stored:
            level_of = {sim: level for level, sim in enumerate(spec.levels)}
            sim_of = spec.sim_map
            for vid, length in stored:
                yield level_of[sim_of[vid]], vid, length
        offsets = list(consumed)  # advanced as levels are read
        if search is not None:
            skyline = self.skyline
            dists = search.dists
            keys = search.keys
            vids = search.candidates
            views = search.levels
            pois = route.pois
            length = route.length
            for level, lo, hi in search.scored_until(budgets, start=consumed):
                positions = views[level][1]
                budget = budgets[level]
                offsets[level] = hi
                version = skyline.version
                limit = math.inf
                for j in range(lo, hi):
                    if skyline.version != version:
                        version = skyline.version
                        limit = budget()
                    i = positions[j]
                    if keys[i] > limit:
                        offsets[level] = j
                        break
                    vid = vids[i]
                    if vid in pois:
                        continue  # distinctness (Definition 3.4 iii)
                    total = length + dists[i]
                    if leg is not None:
                        extra = leg(vid, math.inf)
                        if extra == math.inf:
                            continue
                        total = total + extra
                    yield level, vid, total
        self._park(route, search, offsets, cut)

    def _cursor(
        self,
        route: PartialRoute,
        search: CHCandidateStream | PoICandidateSearch | None,
        consumed: tuple[int, ...],
        extended: list,
        semantics: list[float],
        budgets: list[Callable[[], float]],
        stored: Cut | None,
    ) -> Iterator[PartialRoute]:
        """Yield the children of ``route`` that pass the prune test, one
        at a time, each tested at the thresholds of its own turn: the
        ``stored`` pairs first, then the stream from the ``consumed``
        offsets on (:meth:`_candidates`, which parks the route at the
        end).  Each child the test rejects is cut as ``(PoI, length)``.
        """
        prunable = self._prune_tests[route.size + 1]
        stats = self.stats
        levels = self.query.specs[route.size].levels
        pois = route.pois
        sims = route.sims
        cut: Cut = []
        for level, vid, length in self._candidates(
            route, search, consumed, budgets, stored, cut
        ):
            semantic = semantics[level]
            state = extended[level]
            if prunable(length, semantic, state, vid):
                cut.append((vid, length))
                stats.routes_pruned_on_insert += 1
                continue
            yield PartialRoute(
                pois + (vid,), length, semantic, state, sims + (levels[level],)
            )

    def _complete(
        self,
        route: PartialRoute,
        search: CHCandidateStream | PoICandidateSearch | None,
        consumed: tuple[int, ...],
        semantics: list[float],
        budgets: list[Callable[[], float]],
        stored: Cut | None,
    ) -> None:
        """Offer ``route``'s completions to the skyband: the ``stored``
        pairs first, each re-tested, then the stream from the
        ``consumed`` offsets on (:meth:`_candidates`, which parks the
        route at the end).  Each completion above the threshold at its
        semantic score is cut as ``(PoI, length)``; each route
        offered is archived first.
        """
        skyline = self.skyline
        threshold = skyline.threshold
        update = skyline.update
        archive = self.state.archive
        leg = self.dest_dist.get if self.dest_dist is not None else None
        levels = self.query.specs[route.size].levels
        pois = route.pois
        sims = route.sims
        cut: Cut = []
        for level, vid, total in self._candidates(
            route, search, consumed, budgets, stored, cut, leg
        ):
            semantic = semantics[level]
            if total > threshold(semantic):
                # k members are strictly shorter at a semantic score no
                # worse: update() would reject it as dominated
                skyline.rejects += 1
                cut.append((vid, total))
                continue
            done = SkylineRoute(
                pois + (vid,), total, semantic, sims + (levels[level],)
            )
            archive[done.pois] = done
            update(done)

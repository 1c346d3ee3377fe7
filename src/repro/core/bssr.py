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

The search state is explicit: :class:`SearchState` owns everything a
paused search needs to continue — the route queue, the evolving
skyband, an *archive* of every completed route ever scored, the
*deferred* list (routes pruned or budget-truncated under the current
``k``), and the modified-Dijkstra cache.  Instead of
silently discarding work the current thresholds reject,
:class:`BSSRSearch` parks it in ``deferred``; :meth:`BSSRSearch.resume`
widens the skyband to a larger ``k'``, recomputes the (now looser)
lower bounds, re-enqueues the deferred work, and drains the queue
again.  Resume is exact: every route of the fresh ``k'`` search is
either already archived, still deferred, or reachable by re-expanding a
deferred prefix — so pagination (ranks ``k+1 .. k'``) never recomputes
the routes the first pass already settled.  This is what
:class:`~repro.core.session.PlanningSession` builds on.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

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
    sorted_row,
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
    queries (see :mod:`repro.core.distcache`).
    """
    # One-shot callers never resume, so skip the checkpoint machinery:
    # no route archive, no deferred-work retention.
    return BSSRSearch(
        network,
        query,
        aggregator,
        options,
        checkpointable=False,
        shared_cache=distance_cache,
    ).run()


class _ArchivingSkyband(SkybandSet):
    """A k-skyband that remembers every route ever offered to it.

    The archive (keyed by the PoI tuple, which fully determines a
    route's scores) is what makes resume exact: rejected and evicted
    routes may re-qualify under a larger ``k``, so the skyband of any
    future ``k'`` can be rebuilt from the archive without re-searching.
    """

    def __init__(self, k: int, archive: dict[tuple[int, ...], SkylineRoute]):
        super().__init__(k)
        self.archive = archive

    def update(self, route: SkylineRoute) -> bool:
        self.archive[route.pois] = route
        return super().update(route)


@dataclass
class _Deferred:
    """One unit of parked work: a route prefix plus how far into its
    candidate stream the previous pass got before pruning/truncation."""

    route: PartialRoute
    consumed: int = 0


@dataclass
class SearchState:
    """Explicit, checkpointable state of one BSSR search.

    A drained search (queue empty) checkpoints to exactly this object;
    :meth:`BSSRSearch.resume` continues from it with a larger ``k``.
    Fields:

    Attributes:
        k: the skyband parameter the state is currently settled for.
        skyband: the evolving k-skyband ``S_k`` (the archiving variant
            for checkpointable searches, a plain set otherwise).
        archive: every completed route ever scored, keyed by PoI tuple —
            a superset of any future skyband up to the routes searched
            so far.
        deferred: work the current thresholds rejected — pruned partial
            routes and budget-truncated expansions — kept instead of
            discarded so a wider ``k`` can take it up again.
        queue: the route priority queue ``Q_b`` (empty at a checkpoint).
        dest_dist: reverse distances to the destination, if any.
        cache: the on-the-fly modified-Dijkstra cache (Section 5.3.4) —
            shared across resumes, which is a large part of why resuming
            beats recomputing.  Never serialized: a restored state starts
            empty and rebuilds searches on demand.
        serial: the queue tie-break counter.
        resumes: how many times this state has been widened.
    """

    k: int
    skyband: SkybandSet
    archive: dict[tuple[int, ...], SkylineRoute]
    deferred: list[_Deferred] = field(default_factory=list)
    queue: list[tuple[tuple, int, PartialRoute, int]] = field(
        default_factory=list
    )
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

    ``checkpointable=False`` (the :func:`run_bssr` one-shot path) skips
    the resume machinery — no completed-route archive, no deferred-work
    retention — restoring the seed's O(queue + skyband) footprint;
    :meth:`resume` then refuses to run.
    """

    def __init__(
        self,
        network: RoadNetwork,
        query: CompiledQuery,
        aggregator: SemanticAggregator | None = None,
        options: BSSROptions | None = None,
        *,
        checkpointable: bool = True,
        shared_cache: DistanceCache | None = None,
    ) -> None:
        self.network = network
        self.query = query
        self.aggregator = aggregator or DEFAULT_AGGREGATOR
        self.options = options or BSSROptions()
        self.checkpointable = checkpointable
        self.shared_cache = shared_cache
        self.stats = SearchStats(algorithm="bssr")
        # Top-k generalization: with k > 1 the evolving set is the
        # k-skyband and every threshold below becomes the k-th-smallest
        # length, so the search keeps expanding until k routes per
        # score level are complete.  k = 1 is exactly the paper's BSSR.
        archive: dict[tuple[int, ...], SkylineRoute] = {}
        self.state = SearchState(
            k=self.options.k,
            skyband=(
                _ArchivingSkyband(self.options.k, archive)
                if checkpointable
                else SkybandSet(self.options.k)
            ),
            archive=archive,
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

    # Durable checkpoints ----------------------------------------------

    def to_dict(self) -> dict:
        """Serialize the checkpointed state (see
        :mod:`repro.core.serialize`).  One-shot searches
        (``checkpointable=False``) refuse with a typed
        :class:`~repro.errors.SessionEncodeError`."""
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

        if self.query.destination is not None:
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
        self._expand(empty, 0)
        self._drain()
        self._finish(started)
        return self.skyline.routes(), self.stats

    def resume(self, k: int) -> tuple[list[SkylineRoute], SearchStats]:
        """Widen the checkpointed search to ``k`` and continue.

        Rebuilds the skyband from the archive at the larger ``k``,
        recomputes the lower bounds (the ``l̄(ϕ)`` radius grows with the
        k-th perfect length; the to-go rows are reused), re-enqueues
        every deferred route, and
        drains the queue under the relaxed thresholds.  Returns the full
        widened skyband plus the stats of *this leg only*, so callers
        can compare resume cost against a from-scratch run.
        """
        if not self.checkpointable:
            raise AlgorithmError(
                "this search was run without checkpointing "
                "(checkpointable=False); it cannot resume"
            )
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
            self._push(item.route, item.consumed)
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

    def _rebuild_skyband(self, k: int) -> _ArchivingSkyband:
        """The k-skyband of everything completed so far.

        Order-independent thanks to the deterministic equivalence
        collapse, so iterating the archive in any order is exact.
        """
        band = _ArchivingSkyband(k, self.state.archive)
        for route in sorted(
            list(self.state.archive.values()),
            key=lambda r: (r.length, r.semantic, r.pois),
        ):
            band.update(route)
        return band

    def _drain(self) -> None:
        """The main loop: pop, prune-or-expand, until the queue empties."""
        queue = self.state.queue
        limit = self.options.max_routes_expanded
        tests = self._prune_tests
        start = self.query.start
        while queue:
            _, _, route, consumed = heapq.heappop(queue)
            pois = route.pois
            if tests[len(pois)](
                route.length,
                route.semantic,
                route.sem_state,
                pois[-1] if pois else start,
            ):
                self.stats.routes_pruned_on_pop += 1
                self._defer(route, consumed)
                continue
            self.stats.routes_expanded += 1
            if limit is not None and self.stats.routes_expanded > limit:
                raise AlgorithmError(
                    f"BSSR exceeded max_routes_expanded={limit}"
                )
            self._expand(route, consumed)

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
        queue pops it and :meth:`_expand` tests a child with it before
        the child is built.  Everything that depends on ``size`` alone
        is bound once; what is left per route is the arithmetic.

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
          by that same floor, which the budget has already held to the
          parent's threshold, so on insert the floor only cuts children
          whose own semantic score lowers the threshold (Lemma 5.8 cuts
          as before).
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

    def _defer(self, route: PartialRoute, consumed: int = 0) -> None:
        """Park rejected work for a potential future resume (dropped
        outright when the search is not checkpointable)."""
        if not self.checkpointable:
            return
        self.state.deferred.append(_Deferred(route, consumed))
        self.stats.routes_deferred += 1

    def _push(self, route: PartialRoute, consumed: int = 0) -> None:
        heapq.heappush(
            self.state.queue,
            (self._priority(route), self.state.next_serial(), route, consumed),
        )
        self.stats.routes_enqueued += 1
        if len(self.state.queue) > self.stats.max_queue_size:
            self.stats.max_queue_size = len(self.state.queue)

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
        exact distances to the full candidate set, sorted, no road-graph
        settles.  Like modified-Dijkstra streams they are
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
                dists, vids = ch.memo_stream(
                    spec.share_key, source, spec.sim_map
                )
            else:
                bucket = self._ch_buckets.get(position)
                if bucket is None:
                    bucket = ch.bucket(spec.sim_map)
                    self._ch_buckets[position] = bucket
                dists, vids = sorted_row(ch.distances_from(source, bucket))
            stream = CHCandidateStream(dists, vids, spec.sim_map)
            self._ch_streams[key] = stream
        return stream

    def _expand(self, route: PartialRoute, consumed: int = 0) -> None:
        """Algorithm 1 lines 7–9: extend ``route`` at its next position.

        The stream hands out index segments (see
        :mod:`repro.core.search`); each candidate is read from them in
        place and pays only for the tests the paper defines.  A child
        goes through the same prune test as a queue pop
        (:meth:`_prunable`) before anything is built: a
        :class:`PartialRoute` and its serial exist only for a child that
        is pushed or, when checkpointable, deferred.  At the final
        position a one-shot search counts a completion longer than the
        threshold at its semantic score as a skyline reject without
        building it — :meth:`SkybandSet.update` would provably reject it.

        ``consumed`` skips candidates a previous pass already processed
        (deterministic stream order makes the offset exact).  If the
        budget cuts the stream short, the route is deferred with its
        new offset so a resumed search picks up the remainder.
        """
        position = route.size
        reserve = self._reserve[position]
        if reserve == math.inf:
            return  # no candidate of this position reaches a completion
        new_size = position + 1
        skyline = self.skyline
        length = route.length
        semantic = route.semantic

        def budget() -> float:
            # Lemma 5.3 break: settle only while a candidate at this
            # key could still reach the threshold at the route's
            # (minimum possible) semantic score; the stream keeps a
            # candidate exactly at the budget.  A key is the distance
            # plus the potential's value there.  Past position 0 under
            # to-go rows that value is the child's exact remainder, so
            # the child's floor is ``length + key`` and the reserve is
            # 0; elsewhere the reserve floors the remainder.
            return skyline.threshold(semantic) - length - reserve

        if self.options.use_contraction:
            search = self._ch_stream(route, position)
        else:
            search = self._candidate_search(route, position)
        if new_size == self.n:
            index = self._complete(route, search, consumed, budget)
        else:
            # no skyline update happens below the final position, so the
            # budget is a constant the stream may settle to in one burst
            index = self._extend(route, search, consumed, budget())
        if self.checkpointable and (
            index < len(search.candidates) or not search.exhausted
        ):
            # The budget cut the stream: park the prefix so a wider
            # search can resume it exactly where this pass stopped.
            # The decision is a function of the stream and the final
            # budget alone (is a candidate left beyond it?), so a
            # cached search that another consumer drained past the
            # budget defers exactly like a fresh one rebuilt after a
            # restore, whatever field drove either.
            self._defer(route, index)
        if not self._first_radius_recorded:
            self.stats.first_search_radius = search.radius
            self._first_radius_recorded = True

    def _extend(
        self,
        route: PartialRoute,
        search: CHCandidateStream | PoICandidateSearch,
        consumed: int,
        limit: float,
    ) -> int:
        """Queue (or park) the children of ``route`` closer than
        ``limit``; returns the stream offset reached."""
        prunable = self._prune_tests[route.size + 1]
        extend = self.aggregator.extend
        score = self.aggregator.score
        next_serial = self.state.next_serial
        checkpointable = self.checkpointable
        dists = search.dists
        vids = search.candidates
        sim_of = search.sim_map.__getitem__
        pois = route.pois
        sims = route.sims
        sem_state = route.sem_state
        length = route.length
        pruned = 0
        index = consumed
        for lo, hi in search.scored_until(limit, start=consumed):
            for i in range(lo, hi):
                vid = vids[i]
                if vid in pois:
                    continue  # distinctness (Definition 3.4 iii)
                sim = sim_of(vid)
                state = extend(sem_state, sim)
                semantic = score(state)
                child_length = length + dists[i]
                cut = prunable(child_length, semantic, state, vid)
                if cut:
                    pruned += 1
                    if not checkpointable:
                        continue
                child = PartialRoute(
                    pois=pois + (vid,),
                    length=child_length,
                    semantic=semantic,
                    sem_state=state,
                    sims=sims + (sim,),
                    serial=next_serial(),
                )
                if cut:
                    self._defer(child)
                else:
                    self._push(child)
            index = hi
        self.stats.routes_pruned_on_insert += pruned
        return index

    def _complete(
        self,
        route: PartialRoute,
        search: CHCandidateStream | PoICandidateSearch,
        consumed: int,
        budget: Callable[[], float],
    ) -> int:
        """Offer ``route``'s completions to the skyband while the budget
        allows; returns the stream offset reached.

        Every offer may tighten the budget, so a segment is re-checked
        against it once the skyband's version moves.
        """
        skyline = self.skyline
        threshold = skyline.threshold
        update = skyline.update
        shortcut = not self.checkpointable  # no archive to feed
        extend = self.aggregator.extend
        score = self.aggregator.score
        leg = self.dest_dist.get if self.dest_dist is not None else None
        dists = search.dists
        keys = search.keys
        vids = search.candidates
        sim_of = search.sim_map.__getitem__
        pois = route.pois
        sims = route.sims
        sem_state = route.sem_state
        length = route.length
        index = consumed
        for lo, hi in search.scored_until(budget, start=consumed):
            version = skyline.version
            limit = math.inf
            for i in range(lo, hi):
                if skyline.version != version:
                    version = skyline.version
                    limit = budget()
                if keys[i] > limit:
                    return i
                vid = vids[i]
                if vid in pois:
                    continue  # distinctness (Definition 3.4 iii)
                sim = sim_of(vid)
                semantic = score(extend(sem_state, sim))
                total = length + dists[i]
                if leg is not None:
                    extra = leg(vid, math.inf)
                    if extra == math.inf:
                        continue
                    total = total + extra
                if shortcut and total > threshold(semantic):
                    # k members are strictly shorter at a semantic score
                    # no worse: update() would reject it as dominated
                    skyline.rejects += 1
                    continue
                update(
                    SkylineRoute(
                        pois=pois + (vid,),
                        length=total,
                        semantic=semantic,
                        sims=sims + (sim,),
                    )
                )
            index = hi
        return index

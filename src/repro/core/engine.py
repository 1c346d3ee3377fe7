"""The public query engine.

:class:`SkySREngine` binds a road network to a category forest, a
similarity measure, and a score aggregator, and answers SkySR queries
with a selectable algorithm:

======================  ====================================================
``"bssr"``              the paper's bulk SkySR algorithm, all optimizations
``"bssr-noopt"``        BSSR without the Section 5.3 optimizations
``"dij"``               naive: one Dijkstra-based OSR per super-sequence
``"pne"``               naive: one PNE OSR per super-sequence
``"brute-force"``       exhaustive oracle (tiny instances only)
======================  ====================================================

Example:

>>> from repro import SkySREngine, datasets
>>> data = datasets.mini_city()
>>> engine = SkySREngine(data.network, data.forest)
>>> result = engine.query(
...     start=data.landmarks["station"],
...     categories=["Asian Restaurant", "Museum", "Gift Shop"],
... )
>>> for route in result.routes:
...     print(result.describe_route(route))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.core.bssr import run_bssr
from repro.core.diversity import diversify
from repro.core.dominance import rank_routes
from repro.core.options import BSSROptions
from repro.core.routes import SkylineRoute
from repro.core.spec import CategoryRequirement, CompiledQuery, compile_query
from repro.core.stats import SearchStats
from repro.errors import QueryError
from repro.graph.poi import PoIIndex
from repro.graph.road_network import RoadNetwork
from repro.semantics.category import CategoryForest
from repro.semantics.scoring import DEFAULT_AGGREGATOR, SemanticAggregator
from repro.semantics.similarity import DEFAULT_SIMILARITY, SimilarityMeasure

#: algorithm registry names
ALGORITHMS = ("bssr", "bssr-noopt", "dij", "pne", "brute-force")


@dataclass
class SkySRResult:
    """Outcome of one SkySR query.

    For a plain skyline query (``k = 1``, the default) ``routes`` is
    the minimal skyline set sorted by length ascending (semantic score
    descending).  For a top-k query (``BSSROptions.k > 1``) ``routes``
    is the *ranked* list of up to ``k`` alternatives (dominance depth,
    then length — rank 1 is always the skyline's shortest route) and
    ``skyband`` retains every route the search proved to be in the
    k-skyband.  ``stats`` carries the full counter set of the executing
    algorithm.
    """

    routes: list[SkylineRoute]
    stats: SearchStats
    start: int
    labels: list[str]
    algorithm: str
    destination: int | None = None
    k: int = 1
    skyband: list[SkylineRoute] = field(default_factory=list)
    _network: RoadNetwork | None = field(default=None, repr=False)
    _forest: CategoryForest | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.skyband:
            self.skyband = list(self.routes)

    def __len__(self) -> int:
        return len(self.routes)

    def __iter__(self):
        return iter(self.routes)

    @property
    def shortest(self) -> SkylineRoute | None:
        """The shortest route (largest semantic deviation)."""
        return self.routes[0] if self.routes else None

    @property
    def perfect(self) -> SkylineRoute | None:
        """The best semantic-score-0 route, if any was found.

        Scans the full skyband: a top-k query may rank the perfect
        route below the ``k`` cut, but it is never dropped from the
        skyband (depth 0 at semantic 0 is undominatable on that axis).
        """
        for route in self.skyband:  # length-ascending: first hit is best
            if route.is_perfect():
                return route
        return None

    def topk(self, k: int | None = None) -> list[SkylineRoute]:
        """Up to ``k`` ranked alternatives from the skyband.

        Ranked by dominance depth, then length, then semantic score
        (ties broken deterministically by lexicographic PoI ids), so
        the first entry is always the skyline's shortest route — for
        ``k = 1`` this is exactly ``[self.shortest]``.  ``k`` defaults
        to the ``k`` the query was answered with; ask for less, or (up
        to the skyband size) more.
        """
        return rank_routes(self.skyband, self.k if k is None else k)

    def diversified(
        self, k: int | None = None, *, diversity_lambda: float = 0.5
    ) -> list[SkylineRoute]:
        """Up to ``k`` alternatives, MMR-re-ranked for diversity.

        Greedy selection over the *entire* retained skyband (not just
        the top-k truncation — a lower-ranked but disjoint alternative
        can displace a near-duplicate of rank 1), penalizing PoI
        overlap and shared geometry with already-picked routes (see
        :mod:`repro.core.diversity`).  ``diversity_lambda = 0`` returns
        :meth:`topk` unchanged.
        """
        return diversify(
            rank_routes(self.skyband),
            k if k is not None else self.k,
            diversity_lambda=diversity_lambda,
            start=self.start,
        )

    def poi_category_names(self, route: SkylineRoute) -> list[str]:
        """Own-category names of the route's PoIs (first category each)."""
        if self._network is None or self._forest is None:
            raise QueryError("result was built without network context")
        names = []
        for vid in route.pois:
            cats = self._network.poi_categories(vid)
            names.append(self._forest.name_of(cats[0]) if cats else "?")
        return names

    def describe_route(self, route: SkylineRoute) -> str:
        """Paper-Table-1 style line: distance + category chain."""
        chain = " -> ".join(self.poi_category_names(route))
        return f"{route.length:10.4f}  [s={route.semantic:.4f}]  {chain}"

    def to_table(self) -> str:
        """All routes in Table-1 form (shortest first)."""
        header = f"{'distance':>10}  {'semantic':>10}  route"
        lines = [header]
        for route in self.routes:
            chain = " -> ".join(self.poi_category_names(route))
            lines.append(
                f"{route.length:>10.4f}  {route.semantic:>10.4f}  {chain}"
            )
        return "\n".join(lines)

    def to_ranked_table(self, k: int | None = None) -> str:
        """Ranked-alternatives rendering of :meth:`topk`."""
        return self._ranked_lines(self.topk(k), first_rank=1)

    def to_page_table(self, first_rank: int = 1) -> str:
        """Render ``routes`` as-is with global ranks (session pages)."""
        return self._ranked_lines(self.routes, first_rank=first_rank)

    def _ranked_lines(
        self, routes: list[SkylineRoute], *, first_rank: int
    ) -> str:
        header = f"{'rank':>4}  {'distance':>10}  {'semantic':>10}  route"
        lines = [header]
        for rank, route in enumerate(routes, start=first_rank):
            chain = " -> ".join(self.poi_category_names(route))
            lines.append(
                f"{rank:>4}  {route.length:>10.4f}  "
                f"{route.semantic:>10.4f}  {chain}"
            )
        return "\n".join(lines)


class SkySREngine:
    """Reusable query engine for one (network, forest) pair."""

    def __init__(
        self,
        network: RoadNetwork,
        forest: CategoryForest,
        *,
        similarity: SimilarityMeasure | None = None,
        aggregator: SemanticAggregator | None = None,
        options: BSSROptions | None = None,
        distance_cache=None,
    ) -> None:
        self.network = network
        self.forest = forest
        self.similarity = similarity or DEFAULT_SIMILARITY
        self.aggregator = aggregator or DEFAULT_AGGREGATOR
        self.options = options or BSSROptions()
        #: optional cross-query :class:`~repro.core.distcache.DistanceCache`
        #: shared by every BSSR query this engine answers; ``None``
        #: (default) keeps queries fully independent, which is what the
        #: stats-sensitive experiments expect
        self.distance_cache = distance_cache
        self._index: PoIIndex | None = None

    @property
    def index(self) -> PoIIndex:
        """Lazily built PoI index; call :meth:`refresh_index` after
        mutating the network's PoIs."""
        if self._index is None:
            self._index = PoIIndex(self.network, self.forest)
        return self._index

    def refresh_index(self) -> None:
        self._index = None

    # ------------------------------------------------------------------

    def compile(
        self,
        start: int,
        categories: list,
        *,
        destination: int | None = None,
    ) -> CompiledQuery:
        """Compile a query for repeated execution or inspection."""
        return compile_query(
            start,
            categories,
            self.index,
            self.similarity,
            destination=destination,
        )

    def query(
        self,
        start: int,
        categories: list,
        *,
        destination: int | None = None,
        algorithm: str = "bssr",
        ordered: bool = True,
        options: BSSROptions | None = None,
        deadline: float | None = None,
    ) -> SkySRResult:
        """Answer a SkySR query.

        Args:
            start: start vertex id (the paper's ``v_q``).
            categories: the category sequence ``S_q`` — names, ids, or
                requirement objects (predicates).
            destination: optional final vertex (Section 6).
            algorithm: one of :data:`ALGORITHMS`.
            ordered: ``False`` runs the unordered skyline trip-planning
                variant (Section 6): one BSSR search per category order
                over a shared skyband, under these same options, with or
                without a destination and for any ``k``; ``bssr`` and
                ``bssr-noopt`` only.
            options: per-query BSSR option override.
            deadline: wall-clock budget for the naive baselines.
        """
        # Late imports: baselines and extensions import core machinery,
        # so binding them at module import time would be circular.
        from repro.baselines.brute_force import brute_force_skysr
        from repro.baselines.naive import naive_skysr
        from repro.baselines.topk import brute_force_skyband
        from repro.extensions.unordered import run_unordered_skysr

        compiled = self.compile(start, categories, destination=destination)
        opts = options or self.options
        k = opts.k
        if algorithm == "bssr-noopt":
            # The caller's options with every Section 5.3 technique off
            opts = opts.but(
                initial_search=False,
                priority_queue=False,
                lower_bounds=False,
                perfect_match_bound=False,
                caching=False,
            )
        if not ordered:
            if algorithm not in ("bssr", "bssr-noopt"):
                raise QueryError(
                    "unordered queries are answered by the BSSR variant only"
                )
            routes, stats = run_unordered_skysr(
                self.network,
                compiled,
                aggregator=self.aggregator,
                options=opts,
                distance_cache=self.distance_cache,
            )
            algorithm = "unordered-bssr"
        elif algorithm == "bssr" or algorithm == "bssr-noopt":
            routes, stats = run_bssr(
                self.network,
                compiled,
                aggregator=self.aggregator,
                options=opts,
                distance_cache=self.distance_cache,
            )
        elif algorithm in ("dij", "pne"):
            if k > 1:
                raise QueryError(
                    "top-k (k > 1) is answered by the bssr/bssr-noopt/"
                    "brute-force algorithms only"
                )
            cids = self._plain_category_ids(categories)
            routes, stats = naive_skysr(
                self.network,
                self.index,
                start,
                cids,
                method="dijkstra" if algorithm == "dij" else "pne",
                destination=destination,
                similarity=self.similarity,
                aggregator=self.aggregator,
                deadline=deadline,
            )
        elif algorithm == "brute-force":
            started = perf_counter()
            if k > 1:
                routes = brute_force_skyband(
                    self.network, compiled, k, aggregator=self.aggregator
                )
            else:
                routes = brute_force_skysr(
                    self.network, compiled, aggregator=self.aggregator
                )
            stats = SearchStats(
                algorithm="brute-force", elapsed=perf_counter() - started
            )
            stats.result_size = len(routes)
        else:
            raise QueryError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        return self._result(
            routes,
            stats,
            compiled,
            algorithm,
            k=k,
            diversity_lambda=opts.diversity_lambda,
        )

    def session(
        self,
        start: int,
        categories: list,
        *,
        destination: int | None = None,
        page_size: int | None = None,
        diversity_lambda: float | None = None,
        options: BSSROptions | None = None,
    ):
        """Open a resumable :class:`~repro.core.session.PlanningSession`.

        The session pages through ranked alternatives by checkpointing
        and resuming the k-skyband search (see
        :mod:`repro.core.session`) instead of recomputing per page.
        """
        from repro.core.session import PlanningSession

        return PlanningSession(
            self,
            start,
            categories,
            destination=destination,
            page_size=page_size,
            diversity_lambda=diversity_lambda,
            options=options,
        )

    # ------------------------------------------------------------------

    def perf_stats(self) -> dict:
        """Engine-level performance counters (service/CLI ``stats``).

        Reports the cross-query :class:`~repro.core.distcache.DistanceCache`
        (search hits/misses, plus the hierarchy bucket memo hits/misses
        seen through this engine — the buckets themselves live on the
        hierarchy) and, when a contraction hierarchy has been built for
        this network, its preprocessing stats.  Purely observational — never builds an
        index, so calling it on a cold engine is free.
        """
        out: dict = {}
        cache = self.distance_cache
        if cache is not None:
            out["distance_cache"] = {
                "entries": len(cache),
                "bytes": cache.total_bytes,
                **cache.stats.as_dict(),
            }
        ch = getattr(self.network, "_ch_index", None)
        if ch is not None:
            out["contraction"] = ch.stats.as_dict()
        return out

    def _plain_category_ids(self, categories: list) -> list[int]:
        """The naive baselines need a plain category sequence."""
        cids: list[int] = []
        for item in categories:
            if isinstance(item, (int, str)):
                cids.append(self.forest.resolve(item))
            elif isinstance(item, CategoryRequirement):
                cids.append(item.category)
            else:
                raise QueryError(
                    "the naive baselines support plain category sequences "
                    f"only, got {item!r}"
                )
        return cids

    def _result(
        self,
        routes: list[SkylineRoute],
        stats: SearchStats,
        compiled: CompiledQuery,
        algorithm: str,
        *,
        k: int = 1,
        diversity_lambda: float = 0.0,
    ) -> SkySRResult:
        # ``routes`` arrives length-sorted from the algorithms.  A plain
        # skyline query returns it as-is; a top-k query presents the
        # ranked truncation (MMR-diversified when requested) and keeps
        # the full skyband alongside.
        skyband = list(routes)
        if k > 1:
            if diversity_lambda > 0.0:
                # MMR selects from the whole retained skyband so a
                # lower-ranked but disjoint route can make the cut.
                routes = diversify(
                    rank_routes(skyband),
                    k,
                    diversity_lambda=diversity_lambda,
                    start=compiled.start,
                )
            else:
                routes = rank_routes(skyband, k)
        return SkySRResult(
            routes=routes,
            stats=stats,
            start=compiled.start,
            labels=compiled.labels(),
            algorithm=algorithm,
            destination=compiled.destination,
            k=k,
            skyband=skyband,
            _network=self.network,
            _forest=self.forest,
        )

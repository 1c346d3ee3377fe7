"""Resumable route-planning sessions (pagination over the top-k search).

A production route service does not know up front how many
alternatives a user will want: most accept the first answer, some keep
paging.  Recomputing the whole top-2k search because someone clicked
"show more" wastes exactly the work the first query already did —
*Finding Top-k Optimal Sequenced Routes* (Liu et al.) makes the case
for incremental enumeration instead.

:class:`PlanningSession` is that incremental form.  It wraps one
:class:`~repro.core.bssr.BSSRSearch` and serves ranked alternatives
page by page:

* the first :meth:`next_page` runs the k-skyband search for the page
  size and serves ranks ``1..n``;
* each further call *resumes* the checkpointed
  :class:`~repro.core.bssr.SearchState` — skyband archive, deferred
  routes, Dijkstra caches — widening the skyband to
  ``served + n`` instead of recomputing from scratch, and serves ranks
  ``served+1 .. served+n``;
* with a non-zero ``diversity_lambda`` each page is re-ranked by the
  greedy MMR selection of :mod:`repro.core.diversity`, penalizing
  overlap with everything the session has already shown.

Pagination is **exact**: with ``diversity_lambda = 0`` the
concatenation of pages ``1..p`` equals the one-shot
``top-(p·page_size)`` ranking (score-for-score — score-equivalent
routes are interchangeable representatives by Definition 4.1), which
the property tests cross-check against the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.bssr import BSSRSearch
from repro.core.diversity import diversify, validate_lambda
from repro.core.dominance import rank_routes
from repro.core.options import BSSROptions
from repro.core.routes import SkylineRoute
from repro.core.stats import SearchStats
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import SkySREngine, SkySRResult


@dataclass
class Page:
    """One served page of ranked (optionally diversified) alternatives."""

    number: int
    routes: list[SkylineRoute]
    first_rank: int
    stats: SearchStats = field(repr=False)
    resumed: bool
    exhausted: bool

    @property
    def ranks(self) -> range:
        """Global presentation ranks of this page's routes."""
        return range(self.first_rank, self.first_rank + len(self.routes))

    def __len__(self) -> int:
        return len(self.routes)

    def __iter__(self):
        return iter(self.routes)


class PlanningSession:
    """A resumable top-k query: page through ranked alternatives.

    Create via :meth:`repro.core.engine.SkySREngine.session` (or
    directly).  Each :meth:`next_page` call returns the next ``n``
    ranked alternatives, continuing the checkpointed search rather than
    recomputing — the per-page :class:`~repro.core.stats.SearchStats`
    expose how much cheaper each resume is.

    Sessions answer the BSSR algorithm only (the naive baselines have
    no resumable search state) and always use per-query lower bounds.
    """

    def __init__(
        self,
        engine: "SkySREngine",
        start: int,
        categories: list,
        *,
        destination: int | None = None,
        page_size: int | None = None,
        diversity_lambda: float | None = None,
        options: BSSROptions | None = None,
    ) -> None:
        opts = options or engine.options or BSSROptions()
        if page_size is None:
            page_size = opts.page_size or max(opts.k, 1)
        if page_size < 1:
            raise QueryError(f"page_size must be >= 1, got {page_size}")
        if diversity_lambda is None:
            diversity_lambda = opts.diversity_lambda
        self.engine = engine
        self.page_size = page_size
        self.diversity_lambda = validate_lambda(diversity_lambda)
        #: the raw request sequence, kept for durable serialization
        #: (labels are not reliably resolvable back to requirements)
        self.categories = list(categories)
        self.compiled = engine.compile(
            start, categories, destination=destination
        )
        self._search = BSSRSearch(
            engine.network,
            self.compiled,
            engine.aggregator,
            opts.but(k=page_size),
            shared_cache=engine.distance_cache,
        )
        self.pages: list[Page] = []
        self._served: list[SkylineRoute] = []
        self._served_scores: set[tuple[float, float]] = set()
        self._horizon = 0  # skyband ranks consumed so far

    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self.pages)

    @property
    def served(self) -> list[SkylineRoute]:
        """Every route shown so far, in presentation order."""
        return list(self._served)

    @property
    def exhausted(self) -> bool:
        """True when no further page can contain anything new."""
        if not self.started:
            return False
        state = self._search.state
        return state.exhausted and len(self._served) >= len(state.skyband)

    @property
    def k(self) -> int:
        """The skyband parameter the session is currently settled for."""
        return self._search.state.k

    def total_stats(self) -> SearchStats:
        """Summed counters over every page served so far."""
        total = SearchStats(algorithm="bssr-session")
        for page in self.pages:
            total.merge(page.stats)
        return total

    # ------------------------------------------------------------------

    def next_page(self, n: int | None = None) -> Page:
        """Serve the next ``n`` (default: the session page size) ranked
        alternatives, resuming the checkpointed search as needed."""
        if n is None:
            n = self.page_size
        if n < 1:
            raise QueryError(f"page request must ask for >= 1 routes, got {n}")
        resumed = self.started
        if not self.started:
            _, stats = self._search.run()
            self._horizon = n
            if n > self._search.state.k:
                _, stats = self._widen(n, stats)
        elif self.exhausted:
            # The archive provably holds every route in existence and
            # all of them have been served: no search work to do.
            self._horizon += n
            stats = SearchStats(algorithm="bssr")
            stats.extra["exhausted"] = True
        else:
            self._horizon += n
            if self._horizon > self._search.state.k:
                _, stats = self._search.resume(self._horizon)
            else:
                # The checkpointed skyband already covers these ranks.
                stats = SearchStats(algorithm="bssr")
                stats.extra["served_from_checkpoint"] = True
        page_routes = self._select(n)
        page = Page(
            number=len(self.pages) + 1,
            routes=page_routes,
            first_rank=len(self._served) + 1,
            stats=stats,
            resumed=resumed,
            exhausted=False,
        )
        self._served.extend(page_routes)
        self._served_scores.update(r.scores() for r in page_routes)
        self.pages.append(page)
        page.exhausted = self.exhausted
        return page

    def _widen(self, k: int, first_stats: SearchStats):
        routes, stats = self._search.resume(k)
        first_stats.merge(stats)
        return routes, first_stats

    def _select(self, n: int) -> list[SkylineRoute]:
        """The next ``n`` routes: the unserved prefix of the current
        ranking, MMR-diversified when the session asks for it."""
        ranked = rank_routes(
            self._search.state.skyband.routes(), self._horizon
        )
        remaining = [
            r for r in ranked if r.scores() not in self._served_scores
        ]
        if self.diversity_lambda == 0.0:
            return remaining[:n]
        return diversify(
            remaining,
            n,
            diversity_lambda=self.diversity_lambda,
            selected=self._served,
            start=self.compiled.start,
        )

    # ------------------------------------------------------------------

    def to_result(self, page: Page) -> "SkySRResult":
        """Present one page as a :class:`~repro.core.engine.SkySRResult`
        (for cards, tables, GeoJSON export)."""
        from repro.core.engine import SkySRResult

        state = self._search.state
        return SkySRResult(
            routes=list(page.routes),
            stats=page.stats,
            start=self.compiled.start,
            labels=self.compiled.labels(),
            algorithm="bssr-session",
            destination=self.compiled.destination,
            k=state.k,
            skyband=state.skyband.routes(),
            _network=self.engine.network,
            _forest=self.engine.forest,
        )

    # ------------------------------------------------------------------
    # durable sessions (see repro.core.serialize / repro.store)

    def to_dict(self) -> dict:
        """Versioned JSON-compatible snapshot of the whole session —
        compiled query, served pages, and the full search checkpoint.
        Restore with :meth:`from_dict` (same dataset + aggregator)."""
        from repro.core.serialize import session_to_dict

        return session_to_dict(self)

    def dumps(self, *, indent: int | None = None) -> str:
        """:meth:`to_dict` as JSON text (the at-rest store format)."""
        from repro.core.serialize import dumps_session

        return dumps_session(self, indent=indent)

    @classmethod
    def from_dict(
        cls, engine: "SkySREngine", payload: dict
    ) -> "PlanningSession":
        """Restore a serialized session against ``engine``.

        The engine must serve the same dataset and aggregator the
        session was created over; malformed or version-incompatible
        payloads raise :class:`~repro.errors.SessionDecodeError`.
        """
        from repro.core.serialize import session_from_dict

        return session_from_dict(engine, payload)

    @classmethod
    def loads(cls, engine: "SkySREngine", text: str) -> "PlanningSession":
        """Inverse of :meth:`dumps` (typed errors on corrupted JSON)."""
        from repro.core.serialize import loads_session

        return loads_session(engine, text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanningSession(pages={len(self.pages)}, "
            f"served={len(self._served)}, k={self.k}, "
            f"lambda={self.diversity_lambda})"
        )

"""The prototype SkySR service (Section 8).

The paper's prototype (deployed for the Santander municipality on
OpenStreetMap + open PoI data) wraps the SkySR query behind a simple
request/response interface: the user supplies a start location and a
category wish-list; the service answers with the skyline routes, each
presented as a card with distance, a semantic-fit percentage, and the
PoI chain.  :class:`SkySRService` is that facade — examples and the
simulated user study drive it, and :mod:`repro.service.geojson` turns
its answers into map-ready payloads.

Production route services return *ranked alternatives*, not a single
answer set: :meth:`SkySRService.plan` accepts a per-request ``k``
(top-k alternatives from the k-skyband), and
:meth:`SkySRService.plan_batch` / :meth:`SkySRService.batch_geojson`
answer many one-shot requests in one call, the latter as map-ready
GeoJSON — the shape of the prototype's HTTP batch endpoint.  Paging
through further alternatives is served only by
:class:`~repro.service.api.SessionApi`, which keeps every session in a
budgeted :class:`~repro.store.SessionStore`.

Under load a service must also say *no*: ``max_k`` is per-request
admission control — requests above the cap are rejected with
:class:`~repro.errors.AdmissionError` before any search work is done.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.distcache import DistanceCache
from repro.core.engine import SkySREngine, SkySRResult
from repro.core.options import BSSROptions
from repro.core.routes import SkylineRoute
from repro.datasets.paper_example import Dataset
from repro.errors import AdmissionError, QueryError
from repro.graph.spatial import nearest_vertex


@dataclass
class RouteCard:
    """One route as presented to an end user."""

    rank: int
    distance: float
    semantic_fit: float  # 1.0 = perfect category match
    stops: list[dict]
    pois: tuple[int, ...] = ()

    def headline(self) -> str:
        fit = f"{self.semantic_fit * 100.0:.0f}% match"
        stops = " -> ".join(stop["category"] for stop in self.stops)
        return f"#{self.rank}: {self.distance:.3f} ({fit})  {stops}"


@dataclass
class ServiceResponse:
    """A full service answer: cards plus the raw engine result."""

    query: list[str]
    start: int
    cards: list[RouteCard]
    result: SkySRResult = field(repr=False)

    def best(self) -> RouteCard | None:
        return self.cards[0] if self.cards else None

    def render_text(self) -> str:
        lines = [f"Routes for: {' -> '.join(self.query)}"]
        if not self.cards:
            lines.append("  (no feasible route)")
        lines.extend("  " + card.headline() for card in self.cards)
        return "\n".join(lines)


class SkySRService:
    """User-facing facade over one dataset (Section 8 prototype).

    Args:
        dataset: the served city.
        options: engine-wide BSSR options.
        max_routes: presentation cap on cards per response.
        max_k: admission cap — any request asking for more than this
            many alternatives at once (``k`` here, or a session
            ``page_size`` / ``n`` through
            :class:`~repro.service.api.SessionApi`) is rejected with
            :class:`~repro.errors.AdmissionError`.
        distance_cache: cross-query Dijkstra cache shared by every
            request this service answers (see
            :mod:`repro.core.distcache`).  The default is a modestly
            budgeted cache — a long-lived service answering repeated
            queries over one city is exactly the workload it targets.
            Pass your own instance to tune budgets, or construct a
            bare :class:`~repro.core.engine.SkySREngine` for
            cache-free (stats-reproducible) experiments.
    """

    #: default cross-query cache budgets for a service instance
    DEFAULT_CACHE_ENTRIES = 512
    DEFAULT_CACHE_BYTES = 64 * 2**20

    def __init__(
        self,
        dataset: Dataset,
        *,
        options: BSSROptions | None = None,
        max_routes: int | None = None,
        max_k: int | None = None,
        distance_cache: DistanceCache | None = None,
    ) -> None:
        self.dataset = dataset
        if distance_cache is None:
            distance_cache = DistanceCache(
                max_entries=self.DEFAULT_CACHE_ENTRIES,
                max_bytes=self.DEFAULT_CACHE_BYTES,
            )
        self.engine = SkySREngine(
            dataset.network,
            dataset.forest,
            options=options,
            distance_cache=distance_cache,
        )
        self.max_routes = max_routes
        self.max_k = max_k

    # ------------------------------------------------------------------
    # admission control

    def _admit_k(self, k: int | None, *, what: str = "k") -> None:
        if k is not None and k < 1:
            raise QueryError(f"{what} must be >= 1, got {k}")
        if self.max_k is not None and k is not None and k > self.max_k:
            raise AdmissionError(
                f"requested {what}={k} exceeds this service's cap of "
                f"{self.max_k} alternatives per request"
            )

    # ------------------------------------------------------------------
    # one-shot planning

    def plan(
        self,
        categories: list[str],
        *,
        start: int | None = None,
        near: tuple[float, float] | None = None,
        destination: int | None = None,
        ordered: bool = True,
        k: int | None = None,
        diversity_lambda: float | None = None,
    ) -> ServiceResponse:
        """Answer one trip request.

        ``start`` may be a vertex id or a map coordinate (``near``),
        which is snapped to the closest network vertex, as the paper's
        web prototype does with a map click.  ``k`` asks for up to
        ``k`` ranked alternatives (the top-k sequenced route query)
        instead of the plain skyline; ``diversity_lambda`` re-ranks
        them for diversity (see :mod:`repro.core.diversity`).
        """
        self._admit_k(k)
        start = self._resolve_start(start, near)
        options = None
        overrides = {}
        if k is not None:
            overrides["k"] = k
        if diversity_lambda is not None:
            overrides["diversity_lambda"] = diversity_lambda
        if overrides:
            options = (self.engine.options or BSSROptions()).but(**overrides)
        result = self.engine.query(
            start,
            list(categories),
            destination=destination,
            ordered=ordered,
            options=options,
        )
        return ServiceResponse(
            query=[str(c) for c in categories],
            start=start,
            cards=self._capped(self._cards(result)),
            result=result,
        )

    # ------------------------------------------------------------------
    # batch endpoints

    def plan_batch(
        self,
        requests: list[dict],
        *,
        k: int | None = None,
    ) -> list[ServiceResponse]:
        """Answer many trip requests in one call (the batch endpoint).

        Each request is a dict of :meth:`plan` keyword arguments plus
        the mandatory ``categories``; a per-request ``k`` overrides the
        batch-wide one.  Every entry is checked before any search runs,
        and a malformed one raises :class:`~repro.errors.QueryError`.
        """
        entries = [_batch_entry(request) for request in requests]
        responses = []
        for kwargs in entries:
            kwargs.setdefault("k", k)
            responses.append(self.plan(kwargs.pop("categories"), **kwargs))
        return responses

    def batch_geojson(
        self,
        requests: list[dict],
        *,
        k: int | None = None,
        full_geometry: bool = False,
    ) -> dict:
        """Batch answers as map-ready GeoJSON FeatureCollections.

        Returns one entry per request, each carrying the request echo
        and a FeatureCollection of the ranked alternatives (feature
        ``properties.rank`` is the presentation rank).
        """
        from repro.service.geojson import routes_to_geojson

        batch = [
            {
                "query": response.query,
                "start": response.start,
                "k": response.result.k,
                # For k > 1 ``routes`` is already the ranked truncation.
                "routes": routes_to_geojson(
                    self.dataset.network,
                    response.start,
                    response.result.routes,
                    full_geometry=full_geometry,
                ),
            }
            for response in self.plan_batch(requests, k=k)
        ]
        return {"type": "SkySRBatch", "responses": batch}

    # ------------------------------------------------------------------

    def _resolve_start(
        self, start: int | None, near: tuple[float, float] | None
    ) -> int:
        if start is None:
            if near is None:
                raise QueryError("plan() needs a start vertex or a location")
            start = nearest_vertex(self.dataset.network, near)
        return start

    def _capped(self, cards: list[RouteCard]) -> list[RouteCard]:
        if self.max_routes is not None:
            return cards[: self.max_routes]
        return cards

    def _cards(
        self, result: SkySRResult, *, first_rank: int = 1
    ) -> list[RouteCard]:
        cards = []
        for rank, route in enumerate(result.routes, start=first_rank):
            cards.append(
                RouteCard(
                    rank=rank,
                    distance=route.length,
                    semantic_fit=1.0 - route.semantic,
                    stops=self._stops(result, route),
                    pois=route.pois,
                )
            )
        return cards

    def _stops(self, result: SkySRResult, route: SkylineRoute) -> list[dict]:
        network = self.dataset.network
        names = result.poi_category_names(route)
        stops = []
        for vid, name, sim in zip(route.pois, names, route.sims):
            stop = {"poi": vid, "category": name, "similarity": sim}
            coords = network.coords(vid)
            if coords is not None:
                stop["x"], stop["y"] = coords
            stops.append(stop)
        return stops


#: the keys one :meth:`SkySRService.plan_batch` entry may carry
_BATCH_KEYS = frozenset(
    {
        "categories",
        "start",
        "near",
        "destination",
        "ordered",
        "k",
        "diversity_lambda",
    }
)
#: paging keys, which only :class:`~repro.service.api.SessionApi` serves
_SESSION_KEYS = frozenset({"session", "page_size", "n"})


def _batch_entry(request: dict) -> dict:
    """Check one batch entry; returns a copy of its :meth:`plan` kwargs."""
    allowed = f"allowed keys: {sorted(_BATCH_KEYS)}"
    if not isinstance(request, dict):
        raise QueryError(
            f"batch entries must be objects, got {type(request).__name__}; "
            f"{allowed}"
        )
    unknown = set(request) - _BATCH_KEYS
    paging = sorted(unknown & _SESSION_KEYS)
    if paging:
        raise QueryError(
            f"batch entries do not page (got {paging}); open a session "
            f"with POST /v1/sessions instead; {allowed}"
        )
    if unknown:
        raise QueryError(
            f"unknown batch entry key(s) {sorted(unknown)}; {allowed}"
        )
    if "categories" not in request:
        raise QueryError(f"batch entry needs 'categories'; {allowed}")
    return dict(request)

"""Versioned, stateless REST-style session API.

:class:`SessionApi` is the service's one paging surface
(:class:`~repro.service.prototype.SkySRService` answers one-shot
requests only).  Every session lives *only* in a pluggable
:class:`~repro.store.SessionStore` as a versioned JSON payload
(:mod:`repro.core.serialize`), so the store's TTL, LRU and byte budgets
bound what open sessions cost, and **every call restores the session
from the store, operates, and writes it back**.  No request depends on
which worker answered the previous one: two ``SessionApi`` instances
sharing a store (or one per process over a
:class:`~repro.store.DiskSessionStore`) serve the same sessions
interchangeably — true HTTP statelessness, proven by the round-trip
test layer.

The surface is version-prefixed (``/v1/...``); payload and API
versions are negotiated independently, and both reject unknown
versions instead of guessing.  Endpoints (see :meth:`SessionApi.dispatch`
for the router form with HTTP-ish status codes):

======  ==============================  ===========================
POST    ``/v1/sessions``                :meth:`SessionApi.create_session`
GET     ``/v1/sessions``                :meth:`SessionApi.list_sessions`
GET     ``/v1/sessions/{id}``           :meth:`SessionApi.get_session`
POST    ``/v1/sessions/{id}/pages``     :meth:`SessionApi.next_page`
DELETE  ``/v1/sessions/{id}``           :meth:`SessionApi.close_session`
GET     ``/v1/stats``                   :meth:`SessionApi.stats`
======  ==============================  ===========================

Typed failures map onto the obvious statuses: malformed requests —
including any body field of the wrong type — are 400
(:class:`~repro.errors.QueryError`), unknown/closed sessions 404
(:class:`~repro.errors.SessionNotFoundError`), TTL-lapsed ones 410
(:class:`~repro.errors.SessionExpiredError`), store/admission
backpressure 429 (:class:`~repro.errors.AdmissionError`), and a
corrupted or version-incompatible stored payload is a server-side 500
(:class:`~repro.errors.SessionDecodeError`).
"""

from __future__ import annotations

import uuid
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.core.session import PlanningSession
from repro.errors import (
    AdmissionError,
    QueryError,
    ReproError,
    SessionDecodeError,
    SessionExpiredError,
    SessionNotFoundError,
)
from repro.service.prototype import SkySRService
from repro.store import SessionStore, validate_session_id

#: the one API version this module speaks
API_VERSION = "v1"


# ----------------------------------------------------------------------
# typed resources


@dataclass
class SessionResource:
    """The client-visible state of one stored session."""

    session_id: str
    categories: list[str]
    start: int
    destination: int | None
    page_size: int
    diversity_lambda: float
    pages_served: int
    routes_served: int
    exhausted: bool

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class PageResource:
    """One served page: ranked route cards plus paging metadata.

    ``routes`` holds one dict per :class:`~repro.service.RouteCard`,
    built once per page; :meth:`as_dict` passes them through instead of
    copying them again.
    """

    session_id: str
    page: int
    first_rank: int
    routes: list[dict]
    resumed: bool
    exhausted: bool

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class ApiResponse:
    """What :meth:`SessionApi.dispatch` answers: a status + JSON body."""

    status: int
    body: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


#: typed error -> HTTP-ish status, most specific first
_ERROR_STATUS: tuple[tuple[type, int], ...] = (
    (AdmissionError, 429),
    (SessionExpiredError, 410),
    (SessionNotFoundError, 404),
    (SessionDecodeError, 500),
    (QueryError, 400),
    (ReproError, 500),
)


def _status_for(exc: ReproError) -> int:
    for kind, status in _ERROR_STATUS:
        if isinstance(exc, kind):
            return status
    return 500  # pragma: no cover - _ERROR_STATUS ends with ReproError


# ----------------------------------------------------------------------
# request bodies


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_pair(value) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(map(_is_number, value))
    )


def _is_categories(value) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(ref, str) or _is_int(ref) for ref in value)
    )


#: body field -> (type check, what the field must be); ``None`` = unset
_CREATE_FIELDS = {
    "categories": (_is_categories, "a non-empty list of category refs"),
    "start": (_is_int, "an integer vertex id"),
    "near": (_is_pair, "a pair of numbers"),
    "destination": (_is_int, "an integer vertex id"),
    "page_size": (_is_int, "an integer"),
    "diversity_lambda": (_is_number, "a number"),
    "session_id": (lambda value: isinstance(value, str), "a string"),
}
_PAGE_FIELDS = {"n": (_is_int, "an integer")}


def _checked_body(request, fields: dict, what: str) -> dict:
    """Reject a body that is not an object, or has an unknown or
    mistyped field, with :class:`~repro.errors.QueryError`."""
    if not isinstance(request, dict):
        raise QueryError(
            f"{what} body must be an object, got {type(request).__name__}"
        )
    unknown = set(request) - set(fields)
    if unknown:
        raise QueryError(
            f"unknown {what} field(s): {sorted(unknown)}; "
            f"allowed: {sorted(fields)}"
        )
    for name, value in request.items():
        valid, kind = fields[name]
        if value is not None and not valid(value):
            raise QueryError(
                f"{what} field {name!r} must be {kind}, got {value!r}"
            )
    return request


# ----------------------------------------------------------------------


class SessionApi:
    """Stateless session endpoints over a service facade and a store.

    Args:
        service: the engine/dataset facade (its ``max_k`` admission cap
            applies to ``page_size`` and ``n`` here).
        store: where sessions durably live between calls.  Pass the
            same store to several ``SessionApi`` instances (or a
            :class:`~repro.store.DiskSessionStore` directory to several
            processes) and they serve the same sessions.
        id_factory: session-id generator, injectable for deterministic
            tests (default: random hex).
        max_session_routes: admission cap on the *cumulative* routes a
            single session may enumerate across all its pages.
    """

    def __init__(
        self,
        service: SkySRService,
        store: SessionStore,
        *,
        id_factory: Callable[[], str] | None = None,
        max_session_routes: int | None = None,
    ) -> None:
        self.service = service
        self.store = store
        self._new_id = id_factory or (lambda: f"sess-{uuid.uuid4().hex[:12]}")
        self.max_session_routes = max_session_routes

    def _admit_session_budget(
        self, session: PlanningSession, n: int
    ) -> None:
        cap = self.max_session_routes
        if cap is not None and len(session.served) + n > cap:
            raise AdmissionError(
                f"session budget exhausted: serving {n} more routes "
                f"would exceed the cap of {cap} per session"
            )

    # ------------------------------------------------------------------
    # endpoints

    def create_session(self, request: dict) -> SessionResource:
        """Open a session from a request body and persist it.

        The body carries ``categories`` (required: a non-empty list of
        category names or ids), ``start`` or ``near``, ``destination``,
        ``page_size`` and ``diversity_lambda``, plus an optional
        client-chosen ``session_id``.  Any other field, or a field of
        the wrong type, is a :class:`~repro.errors.QueryError`.  No
        search runs yet; the serialized newborn session is written
        straight to the store.
        """
        body = _checked_body(request, _CREATE_FIELDS, "create-session")
        categories = body.get("categories")
        if not categories:
            raise QueryError(
                "create-session body needs a non-empty 'categories' list"
            )
        forest = self.service.engine.forest
        unknown = [ref for ref in categories if ref not in forest]
        if unknown:
            raise QueryError(f"unknown categories: {unknown}")
        session_id = body.get("session_id")
        if session_id is None:
            session_id = self._new_id()
        validate_session_id(session_id)
        if session_id in self.store:
            raise QueryError(f"session {session_id!r} already exists")
        near = body.get("near")
        if near is not None:
            near = tuple(near)
        page_size = body.get("page_size")
        self.service._admit_k(page_size, what="page_size")
        start = self.service._resolve_start(body.get("start"), near)
        session = self.service.engine.session(
            start,
            list(categories),
            destination=body.get("destination"),
            page_size=page_size,
            diversity_lambda=body.get("diversity_lambda"),
        )
        self.store.put(session_id, session.to_dict())
        return self._resource(session_id, session)

    def get_session(self, session_id: str) -> SessionResource:
        """Describe a stored session (restores it; refreshes TTL/LRU)."""
        return self._resource(session_id, self._restore(session_id))

    def list_sessions(self) -> list[str]:
        """Live session ids, least recently used first."""
        return self.store.ids()

    def next_page(
        self, session_id: str, request: dict | None = None
    ) -> PageResource:
        """Serve the next page: restore from the store, advance the
        checkpointed search, write the widened session back.

        The optional body carries ``n``, the page-size override for
        this one call.  ``n`` is admission-checked against the
        service's ``max_k``, and the page against
        ``max_session_routes``.
        """
        body = _checked_body(
            {} if request is None else request, _PAGE_FIELDS, "next-page"
        )
        n = body.get("n")
        session = self._restore(session_id)
        self.service._admit_k(n, what="page size n")
        self._admit_session_budget(session, n or session.page_size)
        page = session.next_page(n)
        self.store.put(session_id, session.to_dict())
        result = session.to_result(page)
        cards = self.service._capped(
            self.service._cards(result, first_rank=page.first_rank)
        )
        return PageResource(
            session_id=session_id,
            page=page.number,
            first_rank=page.first_rank,
            # each card is fresh, so its fields can be handed out as is
            routes=[dict(vars(card)) for card in cards],
            resumed=page.resumed,
            exhausted=page.exhausted,
        )

    def stats(self) -> dict:
        """Performance counters of the serving engine (``GET /v1/stats``).

        Exposes the cross-query distance-cache traffic (search and CH
        bucket hits/misses), contraction-hierarchy preprocessing stats
        when one has been built, and the store's session count — the
        numbers an operator watches to size caches and decide whether
        CH preprocessing pays off for the served workload.
        """
        stats = self.service.engine.perf_stats()
        stats["sessions_stored"] = len(self.store.ids())
        return stats

    def close_session(self, session_id: str) -> None:
        """Drop the stored session; later calls get a typed 404.

        Closing an unknown session raises
        :class:`~repro.errors.SessionNotFoundError` (deletes are not
        silently idempotent — a client holding a dead id should know).
        """
        validate_session_id(session_id)
        if not self.store.delete(session_id):
            raise SessionNotFoundError(
                f"unknown session {session_id!r} (never stored, closed, "
                "or evicted)"
            )

    # ------------------------------------------------------------------
    # router

    def dispatch(
        self, method: str, path: str, body: dict | None = None
    ) -> ApiResponse:
        """Route one request; typed errors become status codes.

        ``path`` must be version-prefixed (``/v1/...``); any other
        version is rejected up front with 400 so clients never talk to
        a server that would misread their payloads.
        """
        try:
            return self._route(method.upper(), path, body)
        except ReproError as exc:
            return ApiResponse(
                status=_status_for(exc),
                body={"error": type(exc).__name__, "message": str(exc)},
            )

    def _route(self, method: str, path: str, body: dict | None) -> ApiResponse:
        parts = [part for part in path.split("/") if part]
        if not parts or not (
            parts[0].startswith("v") and parts[0][1:].isdigit()
        ):
            raise QueryError(
                f"path {path!r} must start with an API version prefix "
                f"(supported: /{API_VERSION}/...)"
            )
        if parts[0] != API_VERSION:
            raise QueryError(
                f"unsupported API version {parts[0]!r}; this server "
                f"speaks {API_VERSION!r}"
            )
        parts = parts[1:]
        if parts == ["stats"] and method == "GET":
            return ApiResponse(status=200, body=self.stats())
        if parts == ["sessions"]:
            if method == "POST":
                resource = self.create_session(body or {})
                return ApiResponse(status=201, body=resource.as_dict())
            if method == "GET":
                return ApiResponse(
                    status=200, body={"sessions": self.list_sessions()}
                )
        elif len(parts) == 2 and parts[0] == "sessions":
            session_id = parts[1]
            if method == "GET":
                return ApiResponse(
                    status=200, body=self.get_session(session_id).as_dict()
                )
            if method == "DELETE":
                self.close_session(session_id)
                return ApiResponse(status=204)
        elif (
            len(parts) == 3
            and parts[0] == "sessions"
            and parts[2] == "pages"
            and method == "POST"
        ):
            return ApiResponse(
                status=200, body=self.next_page(parts[1], body).as_dict()
            )
        raise QueryError(f"no endpoint for {method} {path!r}")

    # ------------------------------------------------------------------

    def _restore(self, session_id: str) -> PlanningSession:
        """Store payload -> live session (the stateless core move)."""
        validate_session_id(session_id)
        payload = self.store.get(session_id)
        return PlanningSession.from_dict(self.service.engine, payload)

    def _resource(
        self, session_id: str, session: PlanningSession
    ) -> SessionResource:
        return SessionResource(
            session_id=session_id,
            categories=session.compiled.labels(),
            start=session.compiled.start,
            destination=session.compiled.destination,
            page_size=session.page_size,
            diversity_lambda=session.diversity_lambda,
            pages_served=len(session.pages),
            routes_served=len(session.served),
            exhausted=session.exhausted,
        )

"""Versioned (de)serialization of checkpointed searches and sessions.

PR 2 made the BSSR search loop an explicit, checkpointable
:class:`~repro.core.bssr.SearchState`; this module makes that state
*durable*.  A :class:`~repro.core.session.PlanningSession` — compiled
query, served pages, and the search checkpoint (skyband archive,
deferred work, priority queue, lower bounds) — round-trips through
plain JSON-compatible dicts, so a session can be
persisted by a :mod:`repro.store` backend, restored in a *different
process*, and resumed as if nothing happened.

Exactness is the contract, and the test layer
(``tests/test_session_store.py``) holds it to byte-identical output:

* floats survive unchanged (:func:`json.dumps` emits Python's
  shortest-round-trip ``repr``);
* a partial route's incremental aggregator state is *rebuilt* by
  replaying its similarity vector through the aggregator — the same
  ``extend`` sequence BSSR originally executed, hence bit-identical;
* queue priorities are recomputed from the configured policy and the
  unique serial tiebreak, so the restored heap pops in the original
  order;
* the skyband is restored member-for-member (not re-derived), so even
  equal-score representatives are preserved.

Schema versioning is strict: every payload carries ``format`` and
``version`` fields, and :func:`session_from_dict` rejects unknown
versions and malformed fields with a typed
:class:`~repro.errors.SessionDecodeError` naming the offending field —
never a bare ``KeyError``/``TypeError``.  Forward compatibility is
rejection, not guessing: a payload written by a newer schema is refused
instead of half-read.

What is deliberately *not* serialized:

* the road network / category forest — a payload is restored *against*
  an engine serving the same dataset (the caller owns dataset
  provenance; the CLI wrapper records preset/scale/seed);
* reverse distances to a destination (``dest_dist``) — recomputed on
  restore by the same deterministic Dijkstra, keeping payloads lean;
* the modified-Dijkstra candidate searches of the on-the-fly cache
  (Section 5.3.4) — a restored search starts with an empty cache and
  rebuilds each one on demand (or adopts a warm copy from the engine's
  :class:`~repro.core.distcache.DistanceCache`).  Candidate streams are
  deterministic, so every stored ``consumed`` offset replays exactly;
  this keeps a payload O(routes) instead of O(settled vertices).  Under
  ``use_contraction`` every offset addresses a CH label-row stream
  instead, rebuilt the same way from the hierarchy's memo.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable

from repro.core.bounds import LowerBounds
from repro.core.options import BSSROptions
from repro.core.routes import PartialRoute, SkylineRoute
from repro.core.stats import SearchStats
from repro.errors import (
    QueryError,
    SessionDecodeError,
    SessionEncodeError,
)
from repro.semantics.scoring import SemanticAggregator

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.bssr import BSSRSearch
    from repro.core.engine import SkySREngine
    from repro.core.session import PlanningSession
    from repro.core.spec import CompiledQuery
    from repro.graph.road_network import RoadNetwork

#: payload self-identification (the ``format`` field)
SESSION_FORMAT = "repro-skysr-session"

#: current schema version; bump on any incompatible payload change
#: (version 2 dropped the serialized candidate-search cache; version 3
#: moved ``use_contraction`` offsets at every position onto CH streams;
#: version 4 moved default-options offsets onto the unfiltered modified
#: Dijkstra stream, which no longer applies Lemma 5.5's filters; version
#: 5 stores lengths and offsets over weights snapped to the grain, with
#: ties in every modified-Dijkstra stream in vertex-id order; version 6
#: offsets stop after, not before, candidates that tie a budget, and
#: deferred work and skybands keep routes that tie a threshold; version
#: 7 offsets index modified-Dijkstra streams past position 0 in the
#: ``(key, vertex)`` order of their to-go potential, not in distance
#: order)
SCHEMA_VERSION = 7

_MISSING = object()


# ---------------------------------------------------------------------------
# strict field access


def _require(payload: dict, field: str, kinds, *, where: str = "payload"):
    """Fetch ``payload[field]`` with presence and type validation.

    ``kinds`` is a type or tuple of types; ``bool`` is only accepted
    when explicitly listed (it is an ``int`` subclass, and a ``true``
    where a count belongs is corruption, not a number).
    """
    if not isinstance(payload, dict):
        raise SessionDecodeError(
            f"{where} must be a JSON object, got {type(payload).__name__}",
            field=where,
        )
    value = payload.get(field, _MISSING)
    if value is _MISSING:
        raise SessionDecodeError(
            f"{where} is missing required field {field!r}", field=field
        )
    if kinds is not None:
        if not isinstance(value, kinds):
            raise SessionDecodeError(
                f"field {field!r} must be "
                f"{getattr(kinds, '__name__', kinds)}, got "
                f"{type(value).__name__}",
                field=field,
            )
        kind_tuple = kinds if isinstance(kinds, tuple) else (kinds,)
        if isinstance(value, bool) and bool not in kind_tuple:
            raise SessionDecodeError(
                f"field {field!r} must not be a boolean", field=field
            )
    return value


def _decoding(field: str, rebuild: Callable):
    """Run ``rebuild()``, converting stray errors into a typed
    :class:`SessionDecodeError` naming the enclosing field."""
    try:
        return rebuild()
    except SessionDecodeError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, QueryError) as exc:
        raise SessionDecodeError(
            f"field {field!r} is malformed: {exc}", field=field
        ) from exc


# ---------------------------------------------------------------------------
# routes


def route_to_dict(route: SkylineRoute) -> dict:
    """JSON-compatible form of a finished route."""
    return {
        "pois": list(route.pois),
        "length": route.length,
        "semantic": route.semantic,
        "sims": list(route.sims),
    }


def route_from_dict(payload: dict, *, where: str = "route") -> SkylineRoute:
    """Inverse of :func:`route_to_dict` (strict)."""
    return _decoding(
        where,
        lambda: SkylineRoute(
            pois=tuple(int(p) for p in payload["pois"]),
            length=float(payload["length"]),
            semantic=float(payload["semantic"]),
            sims=tuple(float(s) for s in payload["sims"]),
        ),
    )


def _partial_to_dict(route: PartialRoute) -> dict:
    # ``sem_state`` is omitted: it is a pure function of the similarity
    # vector and the aggregator, and is replayed bit-exactly on restore.
    return {
        "pois": list(route.pois),
        "length": route.length,
        "semantic": route.semantic,
        "sims": list(route.sims),
        "serial": route.serial,
    }


def _replay_sem_state(
    aggregator: SemanticAggregator, n: int, sims: tuple[float, ...]
):
    state = aggregator.initial(n)
    for sim in sims:
        state = aggregator.extend(state, sim)
    return state


def _partial_from_dict(
    payload: dict,
    aggregator: SemanticAggregator,
    n: int,
    *,
    where: str = "partial",
) -> PartialRoute:
    def rebuild() -> PartialRoute:
        sims = tuple(float(s) for s in payload["sims"])
        return PartialRoute(
            pois=tuple(int(p) for p in payload["pois"]),
            length=float(payload["length"]),
            semantic=float(payload["semantic"]),
            sem_state=_replay_sem_state(aggregator, n, sims),
            sims=sims,
            serial=int(payload["serial"]),
        )

    return _decoding(where, rebuild)


# ---------------------------------------------------------------------------
# lower bounds


def bounds_to_dict(bounds: LowerBounds | None) -> dict | None:
    """JSON form of the Section 5.3.3 bounds (``None`` passes through).

    Infinite leg distances (no qualifying target) survive via Python's
    JSON ``Infinity`` extension — payloads are read back by this module,
    which accepts it.
    """
    if bounds is None:
        return None
    return {
        "suffix_ls": list(bounds.suffix_ls),
        "suffix_lp": list(bounds.suffix_lp),
        "remaining_best_np": list(bounds.remaining_best_np),
        "dest_min": bounds.dest_min,
        "legs_ls": list(bounds.legs_ls),
        "legs_lp": list(bounds.legs_lp),
    }


def bounds_from_dict(payload: dict | None) -> LowerBounds | None:
    """Inverse of :func:`bounds_to_dict`."""
    if payload is None:
        return None

    def rebuild() -> LowerBounds:
        return LowerBounds(
            suffix_ls=[float(x) for x in payload["suffix_ls"]],
            suffix_lp=[float(x) for x in payload["suffix_lp"]],
            remaining_best_np=[
                None if x is None else float(x)
                for x in payload["remaining_best_np"]
            ],
            dest_min=float(payload["dest_min"]),
            legs_ls=[float(x) for x in payload["legs_ls"]],
            legs_lp=[float(x) for x in payload["legs_lp"]],
        )

    return _decoding("search.state.bounds", rebuild)


# ---------------------------------------------------------------------------
# the checkpointed search


def search_to_dict(search: "BSSRSearch") -> dict:
    """Serialize a checkpointable :class:`~repro.core.bssr.BSSRSearch`."""
    if not search.checkpointable:
        raise SessionEncodeError(
            "one-shot searches (checkpointable=False) carry no resumable "
            "state and cannot be serialized"
        )
    state = search.state
    return {
        "options": search.options.to_dict(),
        "started": search._started,
        "first_radius_recorded": search._first_radius_recorded,
        "state": {
            "k": state.k,
            "serial": state.serial,
            "resumes": state.resumes,
            "archive": [route_to_dict(r) for r in state.archive.values()],
            "skyband": [route_to_dict(r) for r in state.skyband.routes()],
            "deferred": [
                {"route": _partial_to_dict(d.route), "consumed": d.consumed}
                for d in state.deferred
            ],
            "queue": [
                {
                    "serial": serial,
                    "route": _partial_to_dict(route),
                    "consumed": consumed,
                }
                for (_priority, serial, route, consumed) in state.queue
            ],
            "bounds": bounds_to_dict(state.bounds),
        },
    }


def search_from_dict(
    network: "RoadNetwork",
    query: "CompiledQuery",
    aggregator: SemanticAggregator,
    payload: dict,
) -> "BSSRSearch":
    """Rebuild a resumable search against ``(network, query)``.

    The restored object is behaviourally identical to the original at
    its last checkpoint: same skyband members, same deferred work and
    queue pop order, same bounds.  Its candidate-search cache starts
    empty and refills on demand; stream offsets replay exactly.
    """
    import heapq

    from repro.core.bssr import BSSRSearch, _ArchivingSkyband, _Deferred

    options = _decoding(
        "search.options",
        lambda: BSSROptions.from_dict(
            _require(payload, "options", dict, where="search")
        ),
    )
    search = BSSRSearch(
        network, query, aggregator, options, checkpointable=True
    )
    state_payload = _require(payload, "state", dict, where="search")
    state = search.state
    n = query.size

    state.k = _require(state_payload, "k", int, where="search.state")
    state.serial = _require(state_payload, "serial", int, where="search.state")
    state.resumes = _require(
        state_payload, "resumes", int, where="search.state"
    )

    archive_routes = [
        route_from_dict(entry, where="search.state.archive")
        for entry in _require(
            state_payload, "archive", list, where="search.state"
        )
    ]
    state.archive = {route.pois: route for route in archive_routes}

    # Restore the skyband member-for-member (in its stored length-sorted
    # order) instead of re-deriving it from the archive: replaying the
    # final member list through update() reproduces the exact internal
    # entry list, including equal-score representatives.
    band = _ArchivingSkyband(state.k, state.archive)
    for entry in _require(state_payload, "skyband", list, where="search.state"):
        band.update(route_from_dict(entry, where="search.state.skyband"))
    band.updates = 0
    band.rejects = 0
    state.skyband = band

    state.deferred = [
        _Deferred(
            route=_partial_from_dict(
                _require(entry, "route", dict, where="search.state.deferred"),
                aggregator,
                n,
                where="search.state.deferred",
            ),
            consumed=_require(
                entry, "consumed", int, where="search.state.deferred"
            ),
        )
        for entry in _require(
            state_payload, "deferred", list, where="search.state"
        )
    ]

    # Queue priorities are a pure function of the route under the
    # configured policy; the serial tiebreak makes the heap order total,
    # so recomputing them restores the exact pop sequence.
    queue = []
    for entry in _require(state_payload, "queue", list, where="search.state"):
        route = _partial_from_dict(
            _require(entry, "route", dict, where="search.state.queue"),
            aggregator,
            n,
            where="search.state.queue",
        )
        queue.append(
            (
                search._priority(route),
                _require(entry, "serial", int, where="search.state.queue"),
                route,
                _require(entry, "consumed", int, where="search.state.queue"),
            )
        )
    heapq.heapify(queue)
    state.queue = queue

    bounds_payload = state_payload.get("bounds", _MISSING)
    if bounds_payload is _MISSING:
        raise SessionDecodeError(
            "search.state is missing required field 'bounds'", field="bounds"
        )
    state.bounds = bounds_from_dict(bounds_payload)
    if state.bounds is not None:
        search.bounds = state.bounds

    search._started = _require(payload, "started", bool, where="search")
    search._first_radius_recorded = _require(
        payload, "first_radius_recorded", bool, where="search"
    )
    # Reverse distances to the destination are deterministic, so they
    # are recomputed instead of shipped (run() computes them itself for
    # a not-yet-started search).  _make_dest_dist keeps the oracle type
    # (eager dict vs lazy CH oracle) matching a live search's.
    if search._started and query.destination is not None:
        state.dest_dist = search._make_dest_dist()
    return search


# ---------------------------------------------------------------------------
# planning sessions


def _serializable_categories(categories: list) -> list:
    out = []
    for item in categories:
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            raise SessionEncodeError(
                "only sessions over plain category sequences (names or "
                f"ids) are serializable; got {item!r} — predicate "
                "requirements have no JSON form"
            )
        out.append(item)
    return out


def _page_to_dict(page) -> dict:
    return {
        "number": page.number,
        "first_rank": page.first_rank,
        "resumed": page.resumed,
        "exhausted": page.exhausted,
        "routes": [route_to_dict(r) for r in page.routes],
        "stats": page.stats.to_dict(),
    }


def _page_from_dict(payload: dict):
    from repro.core.session import Page

    return Page(
        number=_require(payload, "number", int, where="pages"),
        routes=[
            route_from_dict(entry, where="pages.routes")
            for entry in _require(payload, "routes", list, where="pages")
        ],
        first_rank=_require(payload, "first_rank", int, where="pages"),
        stats=_decoding(
            "pages.stats",
            lambda: SearchStats.from_dict(
                _require(payload, "stats", dict, where="pages")
            ),
        ),
        resumed=_require(payload, "resumed", bool, where="pages"),
        exhausted=_require(payload, "exhausted", bool, where="pages"),
    )


def session_to_dict(session: "PlanningSession") -> dict:
    """Serialize a session to a versioned JSON-compatible dict."""
    destination = session.compiled.destination
    return {
        "format": SESSION_FORMAT,
        "version": SCHEMA_VERSION,
        "aggregator": session.engine.aggregator.name,
        "query": {
            "start": session.compiled.start,
            "categories": _serializable_categories(session.categories),
            "destination": destination,
        },
        "page_size": session.page_size,
        "diversity_lambda": session.diversity_lambda,
        "horizon": session._horizon,
        "served": [route_to_dict(r) for r in session._served],
        "pages": [_page_to_dict(page) for page in session.pages],
        "search": search_to_dict(session._search),
    }


def session_from_dict(
    engine: "SkySREngine", payload: dict
) -> "PlanningSession":
    """Restore a session against ``engine`` (strict, versioned).

    ``engine`` must serve the same dataset (network + forest) and
    aggregator the session was created over; dataset provenance is the
    caller's contract (the CLI records preset/scale/seed alongside the
    payload).  Raises :class:`~repro.errors.SessionDecodeError` naming
    the offending field for any malformed or version-incompatible
    payload.
    """
    from repro.core.diversity import validate_lambda
    from repro.core.session import PlanningSession

    fmt = _require(payload, "format", str)
    if fmt != SESSION_FORMAT:
        raise SessionDecodeError(
            f"payload format {fmt!r} is not {SESSION_FORMAT!r}",
            field="format",
        )
    version = _require(payload, "version", int)
    if version != SCHEMA_VERSION:
        raise SessionDecodeError(
            f"unsupported session schema version {version}; this library "
            f"reads version {SCHEMA_VERSION} only (forward-compatible "
            "payloads are rejected, not guessed at)",
            field="version",
        )
    aggregator_name = _require(payload, "aggregator", str)
    if aggregator_name != engine.aggregator.name:
        raise SessionDecodeError(
            f"session was recorded under aggregator {aggregator_name!r} "
            f"but the engine uses {engine.aggregator.name!r}",
            field="aggregator",
        )

    query = _require(payload, "query", dict)
    start = _require(query, "start", int, where="query")
    categories_payload = _require(query, "categories", list, where="query")
    categories: list = []
    for item in categories_payload:
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            raise SessionDecodeError(
                f"query.categories entries must be names or ids, got "
                f"{item!r}",
                field="categories",
            )
        categories.append(item)
    destination = _require(query, "destination", (int, type(None)), where="query")

    page_size = _require(payload, "page_size", int)
    if page_size < 1:
        raise SessionDecodeError(
            f"page_size must be >= 1, got {page_size}", field="page_size"
        )
    diversity_lambda = _require(payload, "diversity_lambda", (int, float))
    _decoding(
        "diversity_lambda", lambda: validate_lambda(float(diversity_lambda))
    )

    session = object.__new__(PlanningSession)
    session.engine = engine
    session.page_size = page_size
    session.diversity_lambda = float(diversity_lambda)
    session.categories = categories
    session.compiled = engine.compile(
        start, categories, destination=destination
    )
    session._search = search_from_dict(
        engine.network,
        session.compiled,
        engine.aggregator,
        _require(payload, "search", dict),
    )
    # Rejoin the engine's cross-query cache (never serialized — cache
    # membership is a property of the serving engine, not the session).
    session._search.shared_cache = engine.distance_cache
    session.pages = [
        _page_from_dict(entry)
        for entry in _require(payload, "pages", list)
    ]
    session._served = [
        route_from_dict(entry, where="served")
        for entry in _require(payload, "served", list)
    ]
    session._served_scores = {r.scores() for r in session._served}
    session._horizon = _require(payload, "horizon", int)
    return session


# ---------------------------------------------------------------------------
# JSON text round-trip


def dumps_session(session: "PlanningSession", *, indent: int | None = None) -> str:
    """Session → JSON text (the at-rest form of :mod:`repro.store`)."""
    return json.dumps(session_to_dict(session), indent=indent)


def loads_session(engine: "SkySREngine", text: str) -> "PlanningSession":
    """JSON text → session, with corrupted/truncated input reported as
    a typed :class:`~repro.errors.SessionDecodeError` (field
    ``"<json>"``), never a bare ``json.JSONDecodeError``."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SessionDecodeError(
            f"corrupted session payload: not valid JSON ({exc})",
            field="<json>",
        ) from exc
    if not isinstance(payload, dict):
        raise SessionDecodeError(
            "session payload must be a JSON object, got "
            f"{type(payload).__name__}",
            field="<json>",
        )
    return session_from_dict(engine, payload)

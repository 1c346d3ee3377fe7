"""Versioned (de)serialization of checkpointed searches and sessions.

The BSSR search loop keeps its state in an explicit
:class:`~repro.core.bssr.SearchState`; this module makes that state
*durable*.  A :class:`~repro.core.session.PlanningSession` — compiled
query, served pages, and the search checkpoint (skyband archive and
deferred work) — round-trips through
plain JSON-compatible dicts, so a session can be
persisted by a :mod:`repro.store` backend, restored in a *different
process*, and resumed as if nothing happened.

A payload stores only what a restore cannot derive.  Each route is a
positional row, and the rest of it comes from the compiled query and
the aggregator:

* stored: an archived route (one that passed its threshold) as
  ``[pois, length]``; a deferred parent as ``[pois, length, consumed |
  null, [[PoI, length], …]]``, ``consumed`` being one offset per
  similarity level of the parent's next position (an index into that
  level's view of the stream, highest similarity first), ``null``
  offsets past the end of a drained stream, and the pairs the children
  (or, at the final position, the completions) its prune test cut;
* stored as whole numbers of weight grains (``length / WEIGHT_GRAIN``):
  every length, which is a sum of grain-snapped weights below
  ``MAX_TOTAL_WEIGHT`` and so an exact integer number of grains; a
  length off the grain is refused on encode;
* stored by reference: the skyband members, the served routes and each
  page's routes are PoI tuples, each naming an archive member (a route
  is one PoI tuple with one length, and every route a session shows
  is archived);
* stored sparsely: a page's stats leave out every counter at its
  default;
* derived: ``sims[i]`` is ``specs[i].sim_map[pois[i]]``, and the
  aggregator state and the semantic score replay those similarities
  through the aggregator — the same ``extend`` sequence BSSR ran, so
  they are bit-identical;
* derived: the lower bounds, which every search leg recomputes.

A checkpoint is a drained search.  Every page drains the route queue
before it returns, and a page that fails (``max_routes_expanded``) is
never stored, so a payload holds no queue and no queue tie-break
counter; a restored search starts its next drain at serial 0, which
orders the new queue as the live one would.  Encoding a search whose
queue is not empty is refused with
:class:`~repro.errors.SessionEncodeError`.

Exactness is the contract, and the test layer
(``tests/test_session_store.py``) holds it to byte-identical output:
a grain count times ``WEIGHT_GRAIN`` is the stored length bit for bit,
the remaining floats survive unchanged (:func:`json.dumps` emits
Python's shortest-round-trip ``repr``), and the skyband is restored
member-for-member (not re-derived), so even equal-score
representatives are preserved.

Schema versioning is strict: every payload carries ``format`` and
``version`` fields, and :func:`session_from_dict` rejects unknown
versions and malformed fields with a typed
:class:`~repro.errors.SessionDecodeError` naming the offending field —
never a bare ``KeyError``/``TypeError``.  A malformed row, a reference
that names no archived route and a PoI that is not a candidate at its
position (or a cut PoI that is not a candidate at the parent's next
position) are refused the same way.  Forward compatibility is
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

from repro.core.dominance import SkybandSet
from repro.core.options import BSSROptions
from repro.core.routes import PartialRoute, SkylineRoute
from repro.core.stats import SearchStats
from repro.errors import (
    QueryError,
    SessionDecodeError,
    SessionEncodeError,
)
from repro.graph.road_network import MAX_TOTAL_WEIGHT, WEIGHT_GRAIN
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
#: order; version 8 stores each route as a row of its PoI tuple and
#: length, names skyband, served and page routes by PoI tuple, and
#: drops the bounds block; version 9 parks each cut child and each
#: over-threshold completion under its parent as a ``[PoI, length]``
#: pair instead of a deferred row or an archive row, drops the route
#: serial column, writes lengths in weight grains and leaves page stats
#: at their defaults out; version 10 drops the queue rows and the queue
#: serial, since only a drained search is encoded; version 11 stores a
#: deferred parent's offset as one offset per similarity level of its
#: next position, since every level is read up to its own budget)
SCHEMA_VERSION = 11

_MISSING = object()

#: weight grains per unit length (the inverse of ``WEIGHT_GRAIN``)
_GRAINS_PER_UNIT = 1.0 / WEIGHT_GRAIN

#: no route is as long as the network's total weight bound
_MAX_GRAINS = int(MAX_TOTAL_WEIGHT * _GRAINS_PER_UNIT)


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


def _row_error(where: str, row, why: str) -> SessionDecodeError:
    text = repr(row)
    if len(text) > 80:
        text = text[:77] + "..."
    return SessionDecodeError(f"{where} entry {text} {why}", field=where)


def _grains(lengths: list[float]) -> list[int]:
    """Each length as a whole number of weight grains, exactly.

    Every length is a sum of grain-snapped weights below
    ``MAX_TOTAL_WEIGHT``, so the scaled value is an integer that a float
    holds exactly; one that is not is refused."""
    scaled = [length * _GRAINS_PER_UNIT for length in lengths]
    try:
        grains = list(map(int, scaled))
    except (OverflowError, ValueError):  # inf or nan
        grains = None
    if grains != scaled:
        raise SessionEncodeError(
            "a route length is not a whole number of weight grains"
        )
    return grains


def _row_reader(query: "CompiledQuery", aggregator: SemanticAggregator):
    """``read(row, width, where)`` → ``(pois, length, sims, sem_state,
    rest)`` of one stored route row ``[pois, length, *rest]``.

    ``length`` is stored in weight grains.  ``sims[i]`` is position
    ``i``'s similarity of ``pois[i]``, and ``sem_state`` replays them
    through the aggregator: the same ``extend`` sequence BSSR ran, so
    both are bit-identical to the live route's.  A PoI that is not a
    candidate at its position is refused.
    """
    sim_maps = [spec.sim_map for spec in query.specs]
    n = len(sim_maps)
    initial = aggregator.initial(n)
    extend = aggregator.extend

    def read(row, width: int, where: str):
        if type(row) is not list or len(row) != width:
            raise _row_error(where, row, f"is not a row of {width} fields")
        pois, length, *rest = row
        if type(pois) is not list or len(pois) > n:
            raise _row_error(where, row, f"holds no list of at most {n} PoIs")
        if type(length) is not int or not 0 <= length < _MAX_GRAINS:
            raise _row_error(where, row, "holds no length in grains")
        sims = []
        state = initial
        for position, (sim_map, poi) in enumerate(zip(sim_maps, pois)):
            sim = sim_map.get(poi) if type(poi) is int else None
            if sim is None:
                raise SessionDecodeError(
                    f"{where}: PoI {poi!r} is not a candidate at position "
                    f"{position}",
                    field=where,
                )
            sims.append(sim)
            state = extend(state, sim)
        return tuple(pois), length * WEIGHT_GRAIN, tuple(sims), state, rest

    return read


def _cut_reader(query: "CompiledQuery"):
    """``read(pois, pairs, where)`` → the ``(PoI, length)`` list of a
    deferred row's cut children or completions, each a candidate at
    the parent's next position that the parent does not visit."""
    sim_maps = [spec.sim_map for spec in query.specs]
    n = len(sim_maps)

    def read(pois: tuple[int, ...], pairs, where: str):
        if len(pois) >= n:
            raise _row_error(where, list(pois), "is not a partial route")
        if type(pairs) is not list:
            raise _row_error(where, pairs, "holds no list of cut pairs")
        sim_map = sim_maps[len(pois)]
        cut = []
        for pair in pairs:
            if (
                type(pair) is not list
                or len(pair) != 2
                or type(pair[0]) is not int
                or type(pair[1]) is not int
                or not 0 <= pair[1] < _MAX_GRAINS
            ):
                raise _row_error(where, pair, "is not a [PoI, length] pair")
            vid, grains = pair
            if vid not in sim_map or vid in pois:
                raise SessionDecodeError(
                    f"{where}: cut PoI {vid!r} is not a candidate at "
                    f"position {len(pois)}",
                    field=where,
                )
            cut.append((vid, grains * WEIGHT_GRAIN))
        return cut

    return read


def _archived(
    archive: dict[tuple[int, ...], SkylineRoute], ref, where: str
) -> SkylineRoute:
    """The archive member a stored PoI tuple names."""
    try:
        route = archive.get(tuple(ref)) if type(ref) is list else None
    except TypeError:  # an unhashable entry
        route = None
    if route is None:
        raise _row_error(where, ref, "names no archived route")
    return route


# ---------------------------------------------------------------------------
# the checkpointed search


def search_to_dict(search: "BSSRSearch") -> dict:
    """Serialize a drained :class:`~repro.core.bssr.BSSRSearch`."""
    state = search.state
    if state.queue:
        raise SessionEncodeError(
            f"the search stopped with {len(state.queue)} queued route(s); "
            "only a drained search is a checkpoint"
        )
    archive = list(state.archive.values())
    deferred = state.deferred
    # lengths in grains, each list in the order its rows are written
    archive_lengths = _grains([r.length for r in archive])
    deferred_lengths = _grains([d.route.length for d in deferred])
    cut_lengths = iter(
        _grains([length for d in deferred for _, length in d.cut])
    )
    return {
        "options": search.options.to_dict(),
        "started": search._started,
        "first_radius_recorded": search._first_radius_recorded,
        "state": {
            "k": state.k,
            "resumes": state.resumes,
            "archive": [
                [list(r.pois), length]
                for r, length in zip(archive, archive_lengths)
            ],
            "skyband": [list(r.pois) for r in state.skyband.routes()],
            "deferred": [
                [
                    list(d.route.pois),
                    length,
                    None if d.consumed is None else list(d.consumed),
                    [[vid, next(cut_lengths)] for vid, _ in d.cut],
                ]
                for d, length in zip(deferred, deferred_lengths)
            ],
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
    its last checkpoint: same skyband members and deferred work, and an
    empty queue.  Its candidate-search cache starts empty and
    refills on demand; stream offsets replay exactly.  Its lower bounds
    are recomputed by the next leg, as a live search's are.
    """
    from repro.core.bssr import BSSRSearch, _Deferred

    options = _decoding(
        "search.options",
        lambda: BSSROptions.from_dict(
            _require(payload, "options", dict, where="search")
        ),
    )
    search = BSSRSearch(network, query, aggregator, options)
    state_payload = _require(payload, "state", dict, where="search")
    state = search.state
    read = _row_reader(query, aggregator)
    score = aggregator.score

    state.k = _require(state_payload, "k", int, where="search.state")
    state.resumes = _require(
        state_payload, "resumes", int, where="search.state"
    )

    archive: dict[tuple[int, ...], SkylineRoute] = {}
    where = "search.state.archive"
    for row in _require(state_payload, "archive", list, where="search.state"):
        pois, length, sims, sem_state, _ = read(row, 2, where)
        if len(pois) != query.size:
            raise _row_error(where, row, "is not a complete route")
        archive[pois] = SkylineRoute(pois, length, score(sem_state), sims)
    state.archive = archive

    # Restore the skyband member-for-member (in its stored length-sorted
    # order) instead of re-deriving it from the archive: replaying the
    # final member list through update() reproduces the exact internal
    # entry list, including equal-score representatives.
    band = SkybandSet(state.k)
    for ref in _require(state_payload, "skyband", list, where="search.state"):
        band.update(_archived(archive, ref, "search.state.skyband"))
    band.updates = 0
    band.rejects = 0
    state.skyband = band

    def partial(pois, length, sem_state, sims) -> PartialRoute:
        return PartialRoute(pois, length, score(sem_state), sem_state, sims)

    where = "search.state.deferred"
    read_cut = _cut_reader(query)
    levels = [len(spec.levels) for spec in query.specs]
    state.deferred = []
    for row in _require(state_payload, "deferred", list, where="search.state"):
        pois, length, sims, sem_state, (consumed, pairs) = read(row, 4, where)
        cut = read_cut(pois, pairs, where)
        if consumed is not None:
            if (
                type(consumed) is not list
                or len(consumed) != levels[len(pois)]
                or any(type(o) is not int or o < 0 for o in consumed)
            ):
                raise _row_error(
                    where, row, "holds no list of one offset per level"
                )
            consumed = tuple(consumed)
        route = partial(pois, length, sem_state, sims)
        state.deferred.append(_Deferred(route, consumed, cut))

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
        "routes": [list(r.pois) for r in page.routes],
        "stats": page.stats.to_dict(),
    }


def _page_from_dict(payload: dict, archive: dict):
    from repro.core.session import Page

    return Page(
        number=_require(payload, "number", int, where="pages"),
        routes=[
            _archived(archive, ref, "pages.routes")
            for ref in _require(payload, "routes", list, where="pages")
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
        "served": [list(r.pois) for r in session._served],
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
    archive = session._search.state.archive
    session.pages = [
        _page_from_dict(entry, archive)
        for entry in _require(payload, "pages", list)
    ]
    session._served = [
        _archived(archive, ref, "served")
        for ref in _require(payload, "served", list)
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

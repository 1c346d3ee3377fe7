"""Span recording for the traced benchmark run.

The recorder wraps the public functions of each layer *where they are
called* (a module that imported a function by name gets its own name
patched; methods are patched on their class), so nothing under ``src/``
changes.  Every call becomes a span — name, start, end, parent span and
request id — kept in flat in-memory arrays, written out once when the
run ends, and folded into per-layer self times: a span's self time is
its duration minus the durations of its direct children, so the self
times of one request's spans sum exactly to its root span.

Generators (the candidate streams of Algorithm 2) are timed one
iteration step at a time, since the consumer interleaves its own work
between steps.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

#: root span of one benchmark request
REQUEST = "request"

#: span name -> per-layer self-time metric it feeds (ms per request)
SELF_TIME_METRICS = {
    REQUEST: "request.self_ms",
    "service.api": "service.api.self_ms",
    "store.put": "store.put_ms",
    "store.get": "store.get_ms",
    "core.serialize.encode": "core.serialize.encode_ms",
    "core.serialize.decode": "core.serialize.decode_ms",
    "core.session": "core.session.self_ms",
    "core.spec": "core.spec.compile_ms",
    "core.bssr": "core.bssr.self_ms",
    "core.nninit": "core.nninit.ms",
    "core.bounds": "core.bounds.ms",
    "core.search": "core.search.ms",
    "core.dominance": "core.dominance.update_ms",
    "graph.dijkstra": "graph.dijkstra.ms",
    "graph.contraction": "graph.contraction.query_ms",
}


class SpanRecorder:
    """Flat, append-only span storage with an open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self.request_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        start, end, parent = self.start, self.end, self.parent
        own = [end[i] - start[i] for i in range(len(start))]
        for i in range(len(own)):
            p = parent[i]
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def write(self, path: Path) -> None:
        """Dump the raw spans: a JSON header line, then the arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self),
            "arrays": ["name:i", "start:d", "end:d", "parent:i", "request:i"],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (
                self.name, self.start, self.end, self.parent, self.request
            ):
                column.tofile(handle)


def traced(recorder: SpanRecorder, name: str, fn):
    """``fn`` wrapped in a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def traced_steps(recorder: SpanRecorder, name: str, fn):
    """A generator function wrapped so each iteration step is a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                index = recorder.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    recorder.close(index)
                yield item
        finally:
            inner.close()

    return wrapper


class LayerTracer:
    """Installs spans on every traced layer; :meth:`remove` undoes it."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: counts gathered at the wrapped boundaries (run totals)
        self.counters: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def install(self) -> "LayerTracer":
        from repro.core import bounds, bssr, engine, serialize
        from repro.core.dominance import SkybandSet
        from repro.core.search import CHCandidateStream, PoICandidateSearch
        from repro.core.session import PlanningSession
        from repro.graph.contraction import ContractionHierarchy
        from repro.service.api import SessionApi
        from repro.store.base import SessionStore

        rec = self.recorder

        self._patch(engine, "compile_query",
                    traced(rec, "core.spec", engine.compile_query))
        for method in ("run", "resume"):
            self._patch(bssr.BSSRSearch, method, self._search_leg(
                getattr(bssr.BSSRSearch, method), resumed=method == "resume"
            ))
        self._patch(bssr, "nninit", self._nninit(bssr.nninit))
        self._patch(bssr, "compute_lower_bounds",
                    traced(rec, "core.bounds", bssr.compute_lower_bounds))
        for cls in (PoICandidateSearch, CHCandidateStream):
            self._patch(cls, "scored_until",
                        traced_steps(rec, "core.search", cls.scored_until))
        self._patch(SkybandSet, "update",
                    traced(rec, "core.dominance", SkybandSet.update))
        self._patch(PlanningSession, "next_page",
                    traced(rec, "core.session", PlanningSession.next_page))
        self._patch(serialize, "session_to_dict", traced(
            rec, "core.serialize.encode", serialize.session_to_dict
        ))
        self._patch(serialize, "session_from_dict", traced(
            rec, "core.serialize.decode", serialize.session_from_dict
        ))
        self._patch(SessionStore, "put", self._store_put(SessionStore.put))
        self._patch(SessionStore, "get",
                    traced(rec, "store.get", SessionStore.get))
        self._patch(SessionApi, "dispatch", self._dispatch(SessionApi.dispatch))
        self._patch(bssr, "dijkstra", self._dijkstra(bssr.dijkstra))
        self._patch(bounds, "bounded_dijkstra",
                    self._dijkstra(bounds.bounded_dijkstra))
        self._patch(bounds, "multi_source_min_distance", self._dijkstra(
            bounds.multi_source_min_distance, finite_radius_only=True
        ))
        for method in (
            "bucket", "forward_row", "distances_from", "min_from_set",
            "vertex_min", "memo_row", "memo_stream", "memo_min",
        ):
            self._patch(ContractionHierarchy, method, self._contraction(
                getattr(ContractionHierarchy, method)
            ))
        return self

    # -- wrappers that also count work at the boundary ------------------

    def _search_leg(self, fn, *, resumed: bool):
        """One BSSR leg (a run or a resume); its counters are harvested
        from the search's own ``SearchStats`` when it returns."""
        wrapped = traced(self.recorder, "core.bssr", fn)
        counts = self.counters

        @functools.wraps(fn)
        def leg(search, *args, **kwargs):
            try:
                return wrapped(search, *args, **kwargs)
            finally:
                stats = search.stats
                counts["core.bssr.pops"] += stats.routes_expanded
                counts["core.bssr.enqueued"] += stats.routes_enqueued
                counts["core.bssr.pruned_on_pop"] += stats.routes_pruned_on_pop
                counts["core.bssr.pruned_on_insert"] += stats.routes_pruned_on_insert
                counts["core.dominance.updates"] += stats.skyline_updates
                counts["core.dominance.rejects"] += stats.skyline_rejects
                counts["core.search.settled"] += stats.settled
                counts["core.search.relaxed"] += stats.relaxed
                counts["core.search.runs"] += stats.mdijkstra_runs
                counts["core.search.resumes"] += stats.mdijkstra_resumes
                if resumed:
                    counts["core.session.resume_pops"] += stats.routes_expanded

        return leg

    def _nninit(self, fn):
        """NNinit's settles are charged to ``SearchStats`` too; move them
        from the search layer's count to NNinit's own."""
        wrapped = traced(self.recorder, "core.nninit", fn)
        counts = self.counters

        @functools.wraps(fn)
        def seeded(network, query, aggregator, skyline, stats=None, **kwargs):
            before = (stats.settled, stats.relaxed) if stats else (0, 0)
            routes = wrapped(network, query, aggregator, skyline, stats,
                             **kwargs)
            counts["core.nninit.seed_routes"] += len(routes)
            if stats is not None:
                settled = stats.settled - before[0]
                relaxed = stats.relaxed - before[1]
                counts["core.nninit.settled"] += settled
                counts["core.search.settled"] -= settled
                counts["core.search.relaxed"] -= relaxed
            return routes

        return seeded

    def _dijkstra(self, fn, *, finite_radius_only: bool = False):
        """Count settles through the kernel's own ``counters`` hook.

        An untruncated multi-source search picks its vectorized kernel
        only when no counters are passed, so there the span is recorded
        but no counters are injected (its settles go uncounted)."""
        from repro.graph.dijkstra import ExpansionCounters

        wrapped = traced(self.recorder, "graph.dijkstra", fn)
        counts = self.counters

        @functools.wraps(fn)
        def search(*args, **kwargs):
            counts["graph.dijkstra.calls"] += 1
            radius = kwargs.get("radius", float("inf"))
            if kwargs.get("counters") is not None or (
                finite_radius_only and radius == float("inf")
            ):
                return wrapped(*args, **kwargs)
            counters = ExpansionCounters()
            kwargs["counters"] = counters
            try:
                return wrapped(*args, **kwargs)
            finally:
                counts["graph.dijkstra.settled"] += counters.settled

        return search

    def _contraction(self, fn):
        """A hierarchy query; ``calls`` counts entries into the layer
        from outside it (nested hierarchy calls are one call)."""
        recorder = self.recorder
        wrapped = traced(recorder, "graph.contraction", fn)
        counts = self.counters

        @functools.wraps(fn)
        def query(*args, **kwargs):
            stack = recorder._stack
            if not stack or recorder.names[recorder.name[stack[-1]]] != (
                "graph.contraction"
            ):
                counts["graph.contraction.calls"] += 1
            return wrapped(*args, **kwargs)

        return query

    def _store_put(self, fn):
        wrapped = traced(self.recorder, "store.put", fn)
        counts = self.counters

        @functools.wraps(fn)
        def put(store, session_id, payload):
            wrapped(store, session_id, payload)
            counts["store.bytes_written"] += store._entries[session_id].size

        return put

    def _dispatch(self, fn):
        wrapped = traced(self.recorder, "service.api", fn)
        counts = self.counters

        @functools.wraps(fn)
        def dispatch(*args, **kwargs):
            response = wrapped(*args, **kwargs)
            if not response.ok:
                counts["service.api.non_2xx"] += 1
            return response

        return dispatch


def self_time_by_request(
    recorder: SpanRecorder, factors: list[float] | None = None
) -> tuple[dict, float]:
    """Per-span-name self-time totals (seconds) and the largest gap,
    over all requests, between a request's summed self times and its
    root span's duration (zero up to float rounding).

    ``factors[r]`` scales request ``r``'s spans into the totals (its
    speed factor, see :mod:`perfbench.pace`); the gap is unscaled."""
    own = recorder.self_times()
    totals: dict[str, float] = {}
    per_request: dict[int, float] = {}
    names, name_of, req = recorder.names, recorder.name, recorder.request
    for i, value in enumerate(own):
        label = names[name_of[i]]
        r = req[i]
        weight = factors[r] if factors is not None and r >= 0 else 1.0
        totals[label] = totals.get(label, 0.0) + value * weight
        per_request[r] = per_request.get(r, 0.0) + value
    gap = 0.0
    root = names.index(REQUEST) if REQUEST in names else -1
    for i in range(len(own)):
        if name_of[i] == root:
            duration = recorder.end[i] - recorder.start[i]
            gap = max(gap, abs(per_request[req[i]] - duration))
    return totals, gap

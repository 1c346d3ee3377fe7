"""The benchmark's three traffic shapes: seeded request streams and their calls.

Every workload serves tokyo@0.5 (:func:`repro.datasets.tokyo_like`,
2288 vertices) in one closed loop with one client: a request is sent
only after the previous one returned.  The engine and the ``/v1``
router are synchronous in-process calls, so there is no arrival queue
to drive open loop.

A workload turns ``--seed`` into its request stream (the program only
ever sees the generated requests), builds what it serves (set-up),
answers one request per :meth:`Workload.call`, and checks answers
afterwards: structural invariants on every answer, and an untimed
comparison against another configuration on a deterministic sample.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

from repro.core.distcache import DistanceCache
from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.datasets.presets import tokyo_like
from repro.datasets.workloads import QuerySpec, generate_workload
from repro.graph.contraction import contraction_for
from repro.graph.csr import flat_adjacency
from repro.graph.landmarks import landmarks_for
from repro.service.api import SessionApi
from repro.service.prototype import SkySRService
from repro.store.memory import InMemorySessionStore

from perfbench.checks import route_problems, same_skyline, scores, skyline_problems

PRESET = "tokyo"
SCALE = 0.5


def distinct_queries(
    dataset, sequence_size: int, count: int, seed: int
) -> list[QuerySpec]:
    """``count`` distinct generated queries (first occurrence order)."""
    out: dict[QuerySpec, None] = {}
    batch = count
    while len(out) < count:
        for query in generate_workload(dataset, sequence_size, batch, seed=seed):
            out.setdefault(query, None)
        seed, batch = seed + 7919, count - len(out)
    return list(out)[:count]


#: fractional part of the golden ratio (a low-discrepancy step)
_GOLDEN = 0.6180339887498949


def zipf_draws(
    pool: list, skew: float, rng: random.Random, block: int = 100
) -> Iterator:
    """Endless Zipf(``skew``) draws over ``pool`` (rank = pool order).

    Stratified: each block of ``block`` draws is one systematic sample
    of the distribution (evenly spaced quantiles from an offset that
    steps by the golden ratio, so the tail is covered evenly), in an
    order ``rng`` shuffles.  Every block holds each query at its
    expected count to within one, and every seed sees the same blocks
    in its own order.  Independent draws would leave the share of warm
    repeats, and with it the median latency, to chance."""
    cumulative = list(
        itertools.accumulate(1.0 / (rank + 1) ** skew for rank in range(len(pool)))
    )
    total = cumulative[-1]
    for number in itertools.count():
        offset = (number * _GOLDEN) % 1.0
        picks = [
            pool[bisect.bisect(cumulative, (k + offset) / block * total)]
            for k in range(block)
        ]
        rng.shuffle(picks)
        yield from picks


def _routes(routes) -> tuple:
    return tuple((r.pois, r.length, r.semantic) for r in routes)


@dataclass
class Served:
    """What one set-up built: the dataset and the serving objects."""

    dataset: object
    engine: SkySREngine
    api: SessionApi | None = None
    #: stored payload bytes of each session when it was deleted
    payload_sizes: list[int] = field(default_factory=list)


class Workload:
    """One traffic shape; subclasses fill in the hooks."""

    name = ""
    reason = ""
    sequence_size = 3
    pool_size = 0
    skew: float | None = None
    options = BSSROptions()
    setup_repeats = 9
    #: requests (or sessions) compared against the reference config
    reference_sample = 0
    #: the tail percentile reported (see ``perfbench.worker.tail``)
    tail_pct = 95
    #: requests of the stream served untimed before the timed phase
    warmup = 0

    def configuration(self, seed: int) -> dict:
        return {
            "workload": self.name,
            "preset": PRESET,
            "scale": SCALE,
            "seed": seed,
            "sequence_size": self.sequence_size,
            "pool_size": self.pool_size,
            "skew": self.skew,
            "options": self.options.to_dict(),
            "reference_sample": self.reference_sample,
            "tail_pct": self.tail_pct,
            "warmup": self.warmup,
            "reason": self.reason,
        }

    def setup(self) -> tuple[Served, dict[str, float]]:
        """Build everything the timed phase serves; returns the served
        objects and per-layer build figures."""
        started = perf_counter()
        dataset = tokyo_like(SCALE)
        built = {"datasets.build_s": perf_counter() - started}
        served = self._serve(dataset, built)
        served.engine.index  # lazily built PoI index
        flat_adjacency(dataset.network)  # lazily built CSR mirror
        return served, built

    def _serve(self, dataset, built: dict[str, float]) -> Served:
        return Served(dataset, SkySREngine(dataset.network, dataset.forest))

    def requests(self, dataset, seed: int) -> Iterator:
        raise NotImplementedError

    def call(self, served: Served, query: QuerySpec):
        result = served.engine.query(query.start, list(query.categories))
        return _routes(result.routes)

    def kind(self, request) -> str:
        return "query"

    def problems(self, requests: list, answers: list) -> dict[int, list[str]]:
        """Invariant violations by request index."""
        found = {}
        for i, answer in enumerate(answers):
            if answer is not None:
                bad = skyline_problems(answer)
                if bad:
                    found[i] = bad
        return found

    def reference(
        self, served: Served, requests: list, answers: list
    ) -> dict[int, list[str]]:
        raise NotImplementedError

    def digest(self, answer) -> object:
        """The comparable part of an answer (traced vs untraced runs)."""
        return sorted(scores(answer)) if answer is not None else None


class Fig4Distinct(Workload):
    name = "fig4_distinct"
    reason = (
        "Alg. 2 candidate expansion, NNinit, Alg. 4 bounds and pruning do "
        "all the work; no cache, session or accelerator is involved"
    )
    sequence_size = 5
    pool_size = 1000
    reference_sample = 6
    # ~80-110 queries per run: p90 would not always have ten beyond it
    tail_pct = 85
    setup_repeats = 9

    def requests(self, dataset, seed: int) -> Iterator:
        return iter(
            distinct_queries(dataset, self.sequence_size, self.pool_size, seed)
        )

    def reference(self, served, requests, answers):
        """ALT plus CH on the first queries must give the same skyline."""
        dataset = served.dataset
        engine = SkySREngine(
            dataset.network,
            dataset.forest,
            options=BSSROptions(use_landmarks=True, use_contraction=True),
        )
        found = {}
        for i, query in enumerate(requests[: self.reference_sample]):
            if answers[i] is None:
                continue
            result = engine.query(query.start, list(query.categories))
            if not same_skyline(answers[i], _routes(result.routes)):
                found[i] = ["skyline differs from ALT+CH"]
        return found


class HotCityCH(Workload):
    name = "hot_city_ch"
    reason = (
        "cross-query cache, CH label scans and first-touch memo builds do "
        "the work; candidate expansion does little"
    )
    sequence_size = 3
    pool_size = 1000
    skew = 1.0
    options = BSSROptions(use_landmarks=True, use_contraction=True)
    setup_repeats = 3
    reference_sample = 60
    # A long-lived engine has served traffic before: without this the
    # timed draws are half first-touch, the median falls between the
    # warm and the cold mode, and it moves with every seed.
    warmup = 200

    def _serve(self, dataset, built):
        network = dataset.network
        started = perf_counter()
        landmarks_for(network)
        built["graph.landmarks.build_s"] = perf_counter() - started
        started = perf_counter()
        hierarchy = contraction_for(network)
        built["graph.contraction.build_s"] = perf_counter() - started
        built["graph.contraction.shortcuts"] = hierarchy.stats.shortcuts_added
        cache = DistanceCache(
            max_entries=SkySRService.DEFAULT_CACHE_ENTRIES,
            max_bytes=SkySRService.DEFAULT_CACHE_BYTES,
        )
        engine = SkySREngine(
            network, dataset.forest, options=self.options, distance_cache=cache
        )
        return Served(dataset, engine)

    #: the city's query pool and its popularity ranking are fixed; the
    #: run seed draws the traffic.  With a seeded ranking the few hottest
    #: queries (the top 10 take ~40 % of draws) would change each run,
    #: and the median latency with them.
    pool_seed = 2018

    def configuration(self, seed: int) -> dict:
        return {**super().configuration(seed), "pool_seed": self.pool_seed}

    def requests(self, dataset, seed: int) -> Iterator:
        pool = distinct_queries(
            dataset, self.sequence_size, self.pool_size, self.pool_seed
        )
        return zipf_draws(pool, self.skew, random.Random(seed))

    def reference(self, served, requests, answers):
        """Default options (no ALT, no CH, no cache) on the first
        distinct queries drawn must give the same skylines."""
        dataset = served.dataset
        engine = SkySREngine(dataset.network, dataset.forest)
        expected: dict[QuerySpec, tuple] = {}
        for query in requests:
            if len(expected) == self.reference_sample:
                break
            if query not in expected:
                result = engine.query(query.start, list(query.categories))
                expected[query] = _routes(result.routes)
        found = {}
        for i, query in enumerate(requests):
            want = expected.get(query)
            if want is not None and answers[i] is not None:
                if not same_skyline(answers[i], want):
                    found[i] = ["skyline differs from default options"]
        return found


@dataclass(frozen=True)
class ApiCall:
    """One ``/v1`` call of one user's session script."""

    user: int
    session: int
    step: str  # "create", "page" or "delete"
    page: int
    query: QuerySpec

    @property
    def session_id(self) -> str:
        return f"s{self.session:05d}"


class V1Paging(Workload):
    name = "v1_paging"
    reason = (
        "every call restores the session from the store and writes it "
        "back; session encoding and storage do most of the work"
    )
    sequence_size = 3
    pool_size = 1000
    users = 4
    page_size = 3
    pages = 3
    reference_sample = 16
    setup_repeats = 9

    def _serve(self, dataset, built):
        service = SkySRService(dataset)
        api = SessionApi(service, InMemorySessionStore())
        return Served(dataset, service.engine, api=api)

    def requests(self, dataset, seed: int) -> Iterator[ApiCall]:
        """Round-robin over the users; user ``u`` sits out its first
        ``u`` turns, so the users are at different steps of their
        create / page x3 / delete scripts."""
        queries = iter(
            distinct_queries(dataset, self.sequence_size, self.pool_size, seed)
        )
        sessions = itertools.count()
        scripts = [
            itertools.chain([None] * user, self._script())
            for user in range(self.users)
        ]
        current: list[tuple[int, QuerySpec] | None] = [None] * self.users
        for user in itertools.cycle(range(self.users)):
            turn = next(scripts[user])
            if turn is None:
                continue
            step, page = turn
            if step == "create":
                current[user] = (next(sessions), next(queries))
            number, query = current[user]
            yield ApiCall(user, number, step, page, query)

    def _script(self) -> Iterator[tuple[str, int]]:
        """One user's endless create / page x3 / delete cycle."""
        while True:
            yield "create", 0
            for page in range(1, self.pages + 1):
                yield "page", page
            yield "delete", 0

    def kind(self, call: ApiCall) -> str:
        if call.step == "page":
            return "first_page" if call.page == 1 else "next_page"
        return call.step

    def call(self, served: Served, call: ApiCall):
        api = served.api
        sid = call.session_id
        if call.step == "create":
            body = {
                "session_id": sid,
                "start": call.query.start,
                "categories": list(call.query.categories),
                "page_size": self.page_size,
            }
            response = api.dispatch("POST", "/v1/sessions", body)
        elif call.step == "page":
            response = api.dispatch("POST", f"/v1/sessions/{sid}/pages", {})
        else:
            stored = api.store.total_bytes
            response = api.dispatch("DELETE", f"/v1/sessions/{sid}")
            served.payload_sizes.append(stored - api.store.total_bytes)
        if not response.ok:
            raise RuntimeError(f"{call.step} answered {response.status}: "
                               f"{response.body}")
        if call.step != "page":
            return ()
        body = response.body
        routes = tuple(
            (tuple(card["pois"]), card["distance"], card["semantic_fit"])
            for card in body["routes"]
        )
        return routes, body["exhausted"]

    def digest(self, answer):
        if not answer:
            return answer
        routes, exhausted = answer
        return scores(routes), exhausted

    def _pages(self, requests, answers) -> dict[int, list[int]]:
        """Session number -> request indices of its pages, in order."""
        pages: dict[int, list[int]] = {}
        for i, call in enumerate(requests):
            if call.step == "page" and answers[i] is not None:
                pages.setdefault(call.session, []).append(i)
        return pages

    def problems(self, requests, answers):
        """Per session: no route served twice, no PoI twice in a route,
        and a short page only once the session is exhausted."""
        found: dict[int, list[str]] = {}
        for indices in self._pages(requests, answers).values():
            served_so_far: list = []
            for i in indices:
                routes, exhausted = answers[i]
                bad = route_problems(served_so_far + list(routes))
                if len(routes) < self.page_size and not exhausted:
                    bad.append(f"page has {len(routes)} routes, not exhausted")
                if bad:
                    found[i] = bad
                served_so_far.extend(routes)
        return found

    def reference(self, served, requests, answers):
        """Pages of the first fully paged sessions, concatenated, must
        equal the one-shot top-(pages x page_size) ranking."""
        dataset = served.dataset
        engine = SkySREngine(dataset.network, dataset.forest)
        top = BSSROptions(k=self.page_size * self.pages)
        found = {}
        checked = 0
        for indices in self._pages(requests, answers).values():
            if checked == self.reference_sample:
                break
            if len(indices) < self.pages:
                continue
            checked += 1
            query = requests[indices[0]].query
            result = engine.query(query.start, list(query.categories), options=top)
            want = [(r.pois, r.length, 1.0 - r.semantic) for r in result.routes]
            for i in indices:
                lo = (requests[i].page - 1) * self.page_size
                if scores(answers[i][0]) != scores(want[lo : lo + self.page_size]):
                    found[i] = ["page differs from the one-shot ranking"]
        return found


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Fig4Distinct(), V1Paging(), HotCityCH())
}

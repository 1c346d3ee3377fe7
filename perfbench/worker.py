"""One workload run in this (fresh, single-threaded) process.

``python -m perfbench.worker --workload NAME --seed N --seconds S
[--traced --max-requests M]`` sets the workload up several times,
serves its seeded request stream until the requests took ``S`` seconds
at reference CPU speed or ``S`` wall seconds passed, reads peak memory,
checks every answer, and prints one JSON object as its last stdout
line.  :mod:`perfbench.run` launches it; run it directly only to debug.

Times are reported at reference CPU speed (see :mod:`perfbench.pace`),
the raw wall-clock figures beside them.  A plain run also compares a
sample of answers against a reference configuration.  A traced run
records spans on every layer (see :mod:`perfbench.spans`), replays at
most ``M`` requests, and reports per-layer figures; its answers are
compared with the plain run's by the launcher instead.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from repro.graph.contraction import ch_enabled
from repro.graph.csr import csr_enabled, numpy_enabled

from perfbench.pace import PROBE_WINDOW, Pacer
from perfbench.spans import (
    REQUEST,
    SELF_TIME_METRICS,
    LayerTracer,
    SpanRecorder,
    self_time_by_request,
)
from perfbench.workloads import WORKLOADS, Workload

#: per-request means of the counts gathered at wrapped boundaries
COUNT_METRICS = (
    "graph.contraction.calls",
    "graph.dijkstra.calls",
    "graph.dijkstra.settled",
    "core.nninit.seed_routes",
    "core.nninit.settled",
    "core.search.settled",
    "core.search.relaxed",
    "core.search.runs",
    "core.search.resumes",
    "core.bssr.pops",
    "core.bssr.enqueued",
    "core.bssr.pruned_on_pop",
    "core.bssr.pruned_on_insert",
    "core.dominance.updates",
    "core.dominance.rejects",
    "core.session.resume_pops",
    "store.bytes_written",
)

#: set-up figures, each the median over the run's set-ups
BUILD_METRICS = (
    "datasets.build_s",
    "graph.landmarks.build_s",
    "graph.contraction.build_s",
    "graph.contraction.shortcuts",
)


#: tail percentiles, highest first
TAIL_LADDER = (99, 95, 90, 85, 75, 50)


def tail(latencies: list[float], highest: int) -> tuple[float, int]:
    """``(value, percentile)`` of the highest ladder percentile, from
    ``highest`` down, with at least ten samples beyond it.

    Each workload names the percentile its run length always reaches,
    so the reported percentile does not move with the request count."""
    if len(latencies) < 2:
        return max(latencies), 100
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    for pct in TAIL_LADDER:
        if pct <= highest:
            value = cuts[pct - 1]
            if sum(1 for x in latencies if x > value) >= 10:
                return value, pct
    return max(latencies), 100


def set_up(workload: Workload, pacer: Pacer):
    """Set the workload up ``setup_repeats`` times, probing around each.

    Returns the last set-up, the per-set-up build figures at reference
    speed, and each set-up's raw and reference-speed seconds."""
    served, builds, raw, scaled = None, [], [], []
    for _ in range(workload.setup_repeats):
        served = None
        gc.collect()
        pacer.probe(PROBE_WINDOW // 2)
        started = perf_counter()
        served, built = workload.setup()
        elapsed = perf_counter() - started
        pacer.probe(PROBE_WINDOW // 2 + 1)
        factor = pacer.scale(started + elapsed / 2)
        raw.append(elapsed)
        scaled.append(elapsed * factor)
        builds.append({
            key: value * factor if key.endswith("_s") else value
            for key, value in built.items()
        })
    return served, builds, raw, scaled


def timed_loop(workload: Workload, served, stream, seconds: float,
               wall_seconds: float, max_requests: int | None, pacer: Pacer,
               recorder: SpanRecorder | None):
    """Closed loop, one client: send the next request when the last one
    returned, until the requests took ``seconds`` at reference speed,
    ``wall_seconds`` passed, or ``max_requests`` were sent.

    Budgeting reference-speed time rather than wall time makes a run do
    the same work on any host at least as fast as the reference, which
    matters where caches warm up over the run; the wall-clock limit
    bounds the run on a slower one.  Probes run between requests,
    outside their timing."""
    requests, answers, sent_at, latencies, errors = [], [], [], [], {}
    spent = 0.0
    deadline = perf_counter() + wall_seconds
    for request in stream:
        if (
            len(requests) == max_requests
            or spent >= seconds
            or perf_counter() >= deadline
        ):
            break
        pacer.probe_if_due()
        index = len(requests)
        if recorder is not None:
            recorder.request_id = index
            root = recorder.open(REQUEST)
        sent = perf_counter()
        try:
            answer = workload.call(served, request)
        except Exception as exc:  # the run goes on; the request failed
            answer = None
            errors[index] = traceback.format_exception_only(exc)[-1].strip()
        finished = perf_counter()
        if recorder is not None:
            recorder.close(root)
        requests.append(request)
        answers.append(answer)
        sent_at.append(sent)
        latencies.append(finished - sent)
        spent += (finished - sent) * pacer.scale(sent)
    pacer.probe(PROBE_WINDOW // 2 + 1)  # later neighbours of the last ones
    return requests, answers, sent_at, latencies, errors


def find_failures(workload: Workload, served, requests, answers, errors,
                  *, reference: bool) -> dict[int, list[str]]:
    """Problems by request index: raised errors, invariant violations
    and (when ``reference``) mismatches against the reference config."""
    failures = {i: [message] for i, message in errors.items()}
    for i, found in workload.problems(requests, answers).items():
        failures.setdefault(i, []).extend(found)
    if reference:
        for i, found in workload.reference(served, requests, answers).items():
            failures.setdefault(i, []).extend(found)
    return failures


def summary(workload, requests, latencies, setups, rss_mib) -> dict:
    """End-to-end figures; throughput is requests over the time spent
    in them (the closed loop's own bookkeeping and probes excluded)."""
    tail_s, tail_pct = tail(latencies, workload.tail_pct)
    by_kind: dict[str, list[float]] = {}
    for request, latency in zip(requests, latencies):
        by_kind.setdefault(workload.kind(request), []).append(latency)
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "latency_tail_pct": tail_pct,
        "samples": len(latencies),
        "peak_rss_mib": rss_mib,
        "kind_p50_ms": {
            kind: statistics.median(values) * 1e3
            for kind, values in by_kind.items()
        },
    }


def layer_figures(tracer: LayerTracer, served, requests, builds,
                  factors: list[float]) -> dict:
    """Per-layer figures of a traced run, per request where it says so;
    span self times are taken at reference speed."""
    recorder = tracer.recorder
    n = len(requests)
    totals, gap = self_time_by_request(recorder, factors)
    out = {
        metric: totals.get(span, 0.0) * 1e3 / n
        for span, metric in SELF_TIME_METRICS.items()
    }
    counts = tracer.counters
    for key in COUNT_METRICS:
        out[key] = counts.get(key, 0) / n
    enqueued = counts.get("core.bssr.enqueued", 0)
    out["core.bssr.useful_ratio"] = (
        counts.get("core.bssr.pops", 0) / enqueued if enqueued else 0.0
    )
    out["service.api.non_2xx"] = counts.get("service.api.non_2xx", 0)
    cache = served.engine.distance_cache
    stats = cache.stats if cache is not None else None
    buckets = stats.bucket_hits + stats.bucket_misses if stats else 0
    out["core.distcache.hit_rate"] = stats.hit_rate if stats else 0.0
    out["core.distcache.evictions"] = stats.evictions if stats else 0
    out["core.distcache.bucket_hit_rate"] = (
        stats.bucket_hits / buckets if buckets else 0.0
    )
    out["core.distcache.bytes"] = cache.total_bytes if cache is not None else 0
    store = served.api.store if served.api is not None else None
    out["store.hit_rate"] = store.stats.hit_rate if store is not None else 0.0
    for key in BUILD_METRICS:
        out[key] = statistics.median(b.get(key, 0.0) for b in builds)
    out["trace.spans"] = len(recorder)
    out["trace.self_sum_gap_ms"] = gap * 1e3
    return out


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    pacer = Pacer()
    served, builds, setups_raw, setups = set_up(workload, pacer)
    stream = workload.requests(served.dataset, args.seed)
    for request in itertools.islice(stream, workload.warmup):
        workload.call(served, request)

    tracer = None
    if args.traced:
        tracer = LayerTracer(SpanRecorder()).install()
    try:
        # a traced replay runs the plain run's requests, whatever they cost
        requests, answers, sent_at, raw, errors = timed_loop(
            workload, served, stream,
            math.inf if args.traced else args.seconds,
            args.seconds, args.max_requests, pacer,
            tracer.recorder if tracer else None,
        )
    finally:
        if tracer is not None:
            tracer.remove()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not requests:
        raise SystemExit("no request completed")
    factors = [pacer.scale(t + d / 2) for t, d in zip(sent_at, raw)]
    latencies = [d * f for d, f in zip(raw, factors)]

    failures = find_failures(
        workload, served, requests, answers, errors,
        reference=not args.traced,
    )
    out = {
        "config": workload.configuration(args.seed),
        "backends": {
            "csr": csr_enabled(),
            "numpy": numpy_enabled(),
            "contraction": ch_enabled(),
        },
        "attempted": len(requests),
        "failed": len(failures),
        "failures": {str(i): failures[i] for i in sorted(failures)[:5]},
        "latencies_ms": [x * 1e3 for x in latencies],
        "digests": [workload.digest(a) for a in answers],
        "end_to_end": summary(workload, requests, latencies, setups, rss_mib),
        "raw": summary(workload, requests, raw, setups_raw, rss_mib),
        "probe_ms": statistics.median(pacer.durations) * 1e3,
        "payload_kib": (
            statistics.mean(served.payload_sizes) / 1024
            if served.payload_sizes else 0.0
        ),
    }
    if tracer is not None:
        out["layers"] = layer_figures(tracer, served, requests, builds, factors)
        spans = Path(args.spans_dir) / f"{args.workload}-seed{args.seed}.spans"
        tracer.recorder.write(spans)
        out["spans_file"] = str(spans)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--max-requests", type=int, default=None)
    parser.add_argument("--spans-dir", default="perfbench/out")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4_distinct --seed 1 \\
        --seconds 25 --trace 0

Each run starts a fresh single-threaded worker process
(:mod:`perfbench.worker`) that imports the program from ``src/``.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` every end-to-end metric
of ``BENCHMARK.json``, with ``--trace 1`` every per-layer metric.  A
traced run first repeats the untraced run, then replays the same
requests with spans on every layer; ``trace.overhead_pct`` compares
the two on those requests, and their answers must agree.  The line
before the last one carries the workload configuration, the backend
flags and the tail percentile.

Exits non-zero, printing no result, when the program is missing or a
backend kill switch (``REPRO_DISABLE_CH``, ``REPRO_DISABLE_NUMPY``) is
set: the benchmark measures the default backends only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: environment switches that would silently change the measured backend
REFUSED_ENV = ("REPRO_DISABLE_CH", "REPRO_DISABLE_NUMPY")

#: a worker that outlives this is killed (the run then fails)
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit (see :mod:`perfbench.worker`)."""
    from perfbench.spans import SELF_TIME_METRICS
    from perfbench.worker import BUILD_METRICS, COUNT_METRICS

    units = {metric: "ms/req" for metric in SELF_TIME_METRICS.values()}
    units.update({metric: "count/req" for metric in COUNT_METRICS})
    units["store.bytes_written"] = "B/req"
    units.update({
        "core.bssr.useful_ratio": "ratio",
        "service.api.non_2xx": "count",
        "core.distcache.hit_rate": "ratio",
        "core.distcache.evictions": "count",
        "core.distcache.bucket_hit_rate": "ratio",
        "core.distcache.bytes": "B",
        "store.hit_rate": "ratio",
        "trace.spans": "count",
        "trace.self_sum_gap_ms": "ms",
        "trace.overhead_pct": "%",
        "v1.first_page_p50_ms": "ms",
        "v1.next_page_p50_ms": "ms",
        "v1.payload_kib": "KiB",
    })
    for metric in BUILD_METRICS:
        units[metric] = "count" if metric.endswith("shortcuts") else "s"
    return units


def worker(args, *, traced: bool = False, max_requests: int | None = None):
    """Run :mod:`perfbench.worker` in a fresh process; its JSON result."""
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if traced:
        command += ["--traced", "--max-requests", str(max_requests)]
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced_run(args, plain: dict) -> tuple[dict, int, int, bool]:
    """Replay the plain run's requests with spans on every layer."""
    traced = worker(args, traced=True, max_requests=plain["attempted"])
    n = traced["attempted"]
    mismatched = sum(
        1 for a, b in zip(traced["digests"], plain["digests"]) if a != b
    )
    plain_ms = sum(plain["latencies_ms"][:n])
    metrics = dict(traced["layers"])
    metrics["trace.overhead_pct"] = (
        100.0 * (sum(traced["latencies_ms"]) / plain_ms - 1.0)
    )
    kinds = plain["end_to_end"]["kind_p50_ms"]
    metrics["v1.first_page_p50_ms"] = kinds.get("first_page", 0.0)
    metrics["v1.next_page_p50_ms"] = kinds.get("next_page", 0.0)
    metrics["v1.payload_kib"] = plain["payload_kib"]
    gap_ok = metrics["trace.self_sum_gap_ms"] <= 1e-3
    return metrics, n, traced["failed"] + mismatched, gap_ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2

    plain = worker(args)
    summary = plain["end_to_end"]
    info = {
        "config": plain["config"],
        "backends": plain["backends"],
        "raw": {name: plain["raw"][name] for name in END_TO_END},
        "probe_ms": plain["probe_ms"],
        "samples": summary["samples"],
        "latency_tail_pct": summary["latency_tail_pct"],
        "kind_p50_ms": summary["kind_p50_ms"],
        "error_rate": plain["failed"] / plain["attempted"],
        "failures": plain["failures"],
    }
    correct = plain["failed"] == 0
    if args.trace:
        units = per_layer_units()
        values, attempted, failed, gap_ok = traced_run(args, plain)
        correct = correct and failed == 0 and gap_ok
        info["traced_samples"] = attempted
    else:
        units = END_TO_END
        values = summary
        attempted, failed = plain["attempted"], plain["failed"]
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``skysr`` (or ``python -m repro``).

Subcommands::

    skysr info                       library + dataset overview
    skysr query  --preset tokyo --categories "Beer Garden" "Sake Bar" ...
    skysr query  --topk 3 ...        ranked top-k alternatives
    skysr query  --topk 3 --page 2 ...      resumable pagination (page 2
                                            continues the checkpointed
                                            search for ranks 4..6)
    skysr query  --topk 5 --diverse 0.6 ... MMR diversity re-ranking
    skysr query  --page 1 --save-session trip.json ...   durable session
    skysr query  --resume-session trip.json --save-session trip.json
                                     next page, restored from the file —
                                     no --categories needed, and only
                                     the incremental search runs
    skysr experiment figure3         regenerate one paper table/figure
    skysr experiment all             regenerate everything
    skysr generate --preset nyc out.json      save a dataset to JSON
    skysr study  --preset tokyo      run the simulated user study
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro import __version__
from repro.core.engine import ALGORITHMS, SkySREngine
from repro.core.options import BSSROptions
from repro.core.session import PlanningSession
from repro.datasets.presets import PRESETS, by_name
from repro.errors import ReproError
from repro.experiments.harness import ExperimentConfig
from repro.graph.io import save_dataset
from repro.service.user_study import simulate_user_study

#: envelope for session files: the serialized session plus the dataset
#: provenance (preset/scale/seed) needed to rebuild the same network
SESSION_FILE_FORMAT = "repro-skysr-session-file"
SESSION_FILE_VERSION = 1


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_preset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        default="mini",
        choices=sorted(PRESETS) + ["mini"],
        help="dataset preset (default: mini)",
    )
    parser.add_argument(
        "--dataset-scale",
        type=float,
        default=0.35,
        dest="dataset_scale",
        help="preset size multiplier",
    )
    parser.add_argument("--seed", type=int, default=None)


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__} — SkySR query library (EDBT 2018 reproduction)")
    data = by_name(args.preset, args.dataset_scale, args.seed)
    for key, value in data.summary().items():
        print(f"  {key}: {value}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.resume_session is not None:
        if args.categories:
            print(
                "error: --resume-session restores the original query; "
                "it cannot be combined with --categories",
                file=sys.stderr,
            )
            return 2
        return _resume_query(args)
    if not args.categories:
        print(
            "error: --categories is required (unless resuming a saved "
            "session with --resume-session)",
            file=sys.stderr,
        )
        return 2
    if args.save_session is not None and args.page is None:
        print(
            "error: --save-session needs a resumable session; add "
            "--page P (or use --resume-session)",
            file=sys.stderr,
        )
        return 2
    data = by_name(args.preset, args.dataset_scale, args.seed)
    engine = SkySREngine(data.network, data.forest)
    start = args.start
    if start is None:
        rng = random.Random(args.seed or 0)
        road = [
            v for v in data.network.vertices() if not data.network.is_poi(v)
        ]
        start = road[rng.randrange(len(road))]
    if args.page is not None:
        return _paged_query(engine, start, args)
    if args.diverse > 0.0 and args.topk <= 1:
        print(
            "error: --diverse re-ranks alternatives, so it needs "
            "--topk K (K > 1) or --page",
            file=sys.stderr,
        )
        return 2
    overrides: dict = {}
    if args.topk > 1:
        overrides["k"] = args.topk
        overrides["diversity_lambda"] = args.diverse
    if args.contraction:
        overrides["use_contraction"] = True
    options = BSSROptions().but(**overrides) if overrides else None
    result = engine.query(
        start,
        args.categories,
        algorithm=args.algorithm,
        destination=args.destination,
        ordered=not args.unordered,
        options=options,
    )
    if result.k > 1:
        flavor = (
            f"diverse (λ={args.diverse:g}) " if args.diverse > 0.0 else ""
        )
        print(
            f"# top-{result.k}: {len(result)} {flavor}ranked route(s) "
            f"from vertex {start} [{result.algorithm}, "
            f"{result.stats.elapsed * 1000:.1f} ms]"
        )
        print(result.to_ranked_table())
    else:
        print(
            f"# {len(result)} skyline route(s) from vertex {start} "
            f"[{result.algorithm}, {result.stats.elapsed * 1000:.1f} ms]"
        )
        print(result.to_table())
    if args.stats:
        _print_stats(engine, result.stats)
    return 0


def _print_stats(engine: SkySREngine, search_stats=None) -> None:
    """``--stats``: engine counters (cache/CH) plus per-query numbers."""
    payload: dict = {"engine": engine.perf_stats()}
    if search_stats is not None:
        payload["query"] = {
            "elapsed_ms": search_stats.elapsed * 1e3,
            "routes_expanded": search_stats.routes_expanded,
            "routes_continued": search_stats.routes_continued,
            "settled": search_stats.settled,
            "relaxed": search_stats.relaxed,
        }
        ch = search_stats.extra.get("ch")
        if ch is not None:
            payload["query"]["ch"] = ch
    print("# stats")
    print(json.dumps(payload, indent=2, sort_keys=True))


def _paged_query(engine: SkySREngine, start: int, args) -> int:
    """``--page P``: serve page P of size ``--topk`` via a resumable
    session — pages 1..P-1 run/resume the checkpointed search, so page
    P costs only the incremental work beyond page P-1."""
    if args.algorithm != "bssr" or args.unordered:
        print(
            "error: --page requires the (ordered) bssr algorithm",
            file=sys.stderr,
        )
        return 2
    session = engine.session(
        start,
        args.categories,
        destination=args.destination,
        page_size=max(args.topk, 1),
        diversity_lambda=args.diverse,
        options=(
            BSSROptions().but(use_contraction=True)
            if args.contraction
            else None
        ),
    )
    page = session.next_page()
    for _ in range(args.page - 1):
        if page.exhausted:
            break
        page = session.next_page()
    _print_page(session, page)
    if args.save_session is not None:
        _save_session_file(args.save_session, args, session)
    if args.stats:
        _print_stats(engine, page.stats)
    return 0


def _print_page(session: PlanningSession, page) -> None:
    result = session.to_result(page)
    total = session.total_stats()
    lam = session.diversity_lambda
    flavor = f", λ={lam:g}" if lam > 0.0 else ""
    print(
        f"# page {page.number} (ranks {page.first_rank}.."
        f"{page.first_rank + max(len(page) - 1, 0)}) of a resumable "
        f"top-k session [k={session.k}{flavor}, "
        f"{total.routes_expanded:.0f} expansions total, "
        f"{page.stats.routes_expanded} this page"
        f"{', exhausted' if page.exhausted else ''}]"
    )
    if len(page):
        print(result.to_page_table(first_rank=page.first_rank))
    else:
        print("(no further routes — the alternatives are exhausted)")


def _save_session_file(
    path: str, args: argparse.Namespace, session: PlanningSession
) -> None:
    """Write the session + dataset provenance so ``--resume-session``
    can rebuild the identical network in a later process."""
    envelope = {
        "format": SESSION_FILE_FORMAT,
        "version": SESSION_FILE_VERSION,
        "context": {
            "preset": args.preset,
            "dataset_scale": args.dataset_scale,
            "seed": args.seed,
        },
        "session": session.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh)
    print(f"# session saved to {path} (resume with --resume-session)")


def _resume_query(args: argparse.Namespace) -> int:
    """``--resume-session FILE``: restore the saved session (dataset
    rebuilt from the file's provenance) and serve the next page(s) —
    only the incremental search beyond the checkpoint runs."""
    try:
        with open(args.resume_session, encoding="utf-8") as fh:
            envelope = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read session file: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: {args.resume_session} is not valid JSON: {exc}",
            file=sys.stderr,
        )
        return 2
    if (
        not isinstance(envelope, dict)
        or envelope.get("format") != SESSION_FILE_FORMAT
    ):
        print(
            f"error: {args.resume_session} is not a saved session file "
            f"(expected format {SESSION_FILE_FORMAT!r})",
            file=sys.stderr,
        )
        return 2
    if envelope.get("version") != SESSION_FILE_VERSION:
        print(
            f"error: session file version {envelope.get('version')!r} is "
            f"not supported (this build reads version "
            f"{SESSION_FILE_VERSION})",
            file=sys.stderr,
        )
        return 2
    context = envelope.get("context") or {}
    try:
        data = by_name(
            context.get("preset", "mini"),
            context.get("dataset_scale", 0.35),
            context.get("seed"),
        )
        engine = SkySREngine(data.network, data.forest)
        session = PlanningSession.from_dict(engine, envelope["session"])
    except (ReproError, KeyError) as exc:
        print(f"error: cannot restore session: {exc}", file=sys.stderr)
        return 2
    pages = args.page or 1
    page = None
    for _ in range(pages):
        if page is not None and page.exhausted:
            break
        page = session.next_page()
    _print_page(session, page)
    if args.stats:
        _print_stats(engine, page.stats)
    if args.save_session is not None:
        save_args = argparse.Namespace(
            preset=context.get("preset", "mini"),
            dataset_scale=context.get("dataset_scale", 0.35),
            seed=context.get("seed"),
        )
        _save_session_file(args.save_session, save_args, session)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.registry import run_all, run_experiment

    config = ExperimentConfig.from_env()
    if args.dataset_scale is not None:
        config.scale = args.dataset_scale
    if args.queries is not None:
        config.queries_per_cell = args.queries
    if args.budget is not None:
        config.time_budget = args.budget
    if args.name == "all":
        for report in run_all(config):
            print(report)
    else:
        print(run_experiment(args.name, config))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    data = by_name(args.preset, args.dataset_scale, args.seed)
    save_dataset(args.output, data.network, data.forest)
    print(f"wrote {args.output}: {data.summary()}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    data = by_name(args.preset, args.dataset_scale, args.seed)
    outcome = simulate_user_study(
        data, respondents=args.respondents, seed=args.seed or 2017
    )
    print(outcome.render_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skysr",
        description="Skyline sequenced route queries with semantic hierarchy",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="library and dataset overview")
    _add_preset_args(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_query = sub.add_parser("query", help="run one SkySR query")
    _add_preset_args(p_query)
    p_query.add_argument("--start", type=int, default=None)
    p_query.add_argument("--destination", type=int, default=None)
    p_query.add_argument(
        "--algorithm", default="bssr", choices=list(ALGORITHMS)
    )
    p_query.add_argument("--unordered", action="store_true")
    p_query.add_argument(
        "--topk",
        "-k",
        type=_positive_int,
        default=1,
        help="return up to K ranked alternatives (k-skyband; default 1 "
        "= the plain skyline query)",
    )
    p_query.add_argument(
        "--page",
        type=_positive_int,
        default=None,
        metavar="P",
        help="serve page P of size --topk through a resumable planning "
        "session (each page after the first resumes the checkpointed "
        "search for the next ranks instead of recomputing)",
    )
    p_query.add_argument(
        "--diverse",
        type=float,
        default=0.0,
        metavar="LAMBDA",
        help="MMR diversity re-ranking trade-off in [0, 1] (0 = pure "
        "rank order; penalizes PoI overlap and shared geometry with "
        "higher-ranked alternatives)",
    )
    p_query.add_argument(
        "--categories",
        nargs="+",
        default=None,
        metavar="CATEGORY",
        help="requested category sequence (required unless "
        "--resume-session restores one)",
    )
    p_query.add_argument(
        "--contraction",
        action="store_true",
        help="serve leg distances from the contraction hierarchy "
        "(BSSROptions.use_contraction; preprocessing is memoized per "
        "dataset and reported by --stats)",
    )
    p_query.add_argument(
        "--stats",
        action="store_true",
        help="after the routes, print engine performance counters "
        "(distance-cache traffic, CH preprocessing) and per-query "
        "search stats as JSON",
    )
    p_query.add_argument(
        "--save-session",
        default=None,
        metavar="FILE",
        dest="save_session",
        help="after serving the page, save the checkpointed session "
        "(with dataset provenance) to FILE for --resume-session",
    )
    p_query.add_argument(
        "--resume-session",
        default=None,
        metavar="FILE",
        dest="resume_session",
        help="restore a session saved with --save-session and serve "
        "its next page(s) — --page P serves P further pages; combine "
        "with --save-session to keep paging across invocations",
    )
    p_query.set_defaults(func=_cmd_query)

    p_exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    from repro.experiments.registry import experiment_names

    p_exp.add_argument("name", choices=experiment_names() + ["all"])
    p_exp.add_argument("--dataset-scale", type=float, default=None)
    p_exp.add_argument("--queries", type=int, default=None)
    p_exp.add_argument("--budget", type=float, default=None)
    p_exp.set_defaults(func=_cmd_experiment)

    p_gen = sub.add_parser("generate", help="save a preset dataset to JSON")
    _add_preset_args(p_gen)
    p_gen.add_argument("output")
    p_gen.set_defaults(func=_cmd_generate)

    p_study = sub.add_parser("study", help="run the simulated user study")
    _add_preset_args(p_study)
    p_study.add_argument("--respondents", type=int, default=25)
    p_study.set_defaults(func=_cmd_study)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Table 4 — the Section 5.5 running example as an execution trace.

Replays BSSR with tracing on the Figure-1 instance and prints the
evolution of the route queue ``Q_b`` and the skyline set ``S`` after
every expansion, the way the paper's Table 4 presents its twelve steps
(exact step contents depend on the reconstructed Figure-1 geometry; the
invariants — monotone skyline improvement, queue drain, final SkySR set
— are asserted by the benchmark).
"""

from __future__ import annotations

from repro.core.trace import render_trace, trace_bssr
from repro.datasets.paper_example import figure1_dataset, figure1_query
from repro.experiments.harness import ExperimentConfig, Report
from repro.semantics.similarity import HierarchyWuPalmer


def run(config: ExperimentConfig | None = None) -> Report:
    del config  # the running example is fixed-size by design
    data = figure1_dataset()
    from repro.core.spec import compile_query

    compiled = compile_query(
        data.landmarks["vq"],
        list(figure1_query()),
        data.index,
        HierarchyWuPalmer(),
    )
    routes, stats, steps = trace_bssr(data.network, compiled)
    names = {vid: name for name, vid in data.landmarks.items()}
    trace = render_trace(steps)
    final = "\n".join(
        f"  l={r.length:g}  s={r.semantic:.4g}  "
        + " -> ".join(names.get(p, str(p)) for p in r.pois)
        for r in routes
    )
    table = (
        f"query: {' -> '.join(figure1_query())} from vq\n\n"
        f"{trace}\n\nfinal SkySR set:\n{final}\n"
        f"({stats.routes_expanded} expansions, "
        f"{stats.routes_continued} cursor pops, "
        f"{stats.routes_pruned_on_pop} pruned at pop)"
    )
    return Report(
        experiment="table4",
        title="Table 4 — BSSR running example (execution trace)",
        table=table,
        data={"steps": len(steps), "routes": routes},
    )


if __name__ == "__main__":  # pragma: no cover
    print(run())

"""BSSR execution tracing (the Table-4 running example facility)."""

from repro.core.spec import compile_query
from repro.core.trace import render_trace, trace_bssr
from repro.datasets.paper_example import figure1_query
from repro.semantics.similarity import HierarchyWuPalmer

from .conftest import score_set


def test_trace_matches_untraced_run(figure1):
    from repro.core.bssr import run_bssr

    compiled = compile_query(
        figure1.landmarks["vq"],
        list(figure1_query()),
        figure1.index,
        HierarchyWuPalmer(),
    )
    plain_routes, _ = run_bssr(figure1.network, compiled)
    traced_routes, stats, steps = trace_bssr(figure1.network, compiled)
    assert score_set(traced_routes) == score_set(plain_routes)
    assert stats.result_size == len(traced_routes)
    assert steps, "at least the initial expansion must be recorded"


def test_trace_step_invariants(figure1):
    compiled = compile_query(
        figure1.landmarks["vq"],
        list(figure1_query()),
        figure1.index,
        HierarchyWuPalmer(),
    )
    _, stats, steps = trace_bssr(figure1.network, compiled)
    assert steps[0].action == "init"
    assert steps[0].route == ()
    assert all(s.action == "expand" for s in steps[1:])
    # steps are numbered densely and the queue drains by the end
    assert [s.step for s in steps] == list(range(1, len(steps) + 1))
    assert steps[-1].queue == []
    # the skyline only ever improves: no step's set is dominated by a
    # previous one at the same semantic level
    for earlier, later in zip(steps, steps[1:]):
        for route in earlier.skyline:
            assert any(
                (r.length <= route.length and r.semantic <= route.semantic)
                for r in later.skyline
            )
    # one expansion per recorded step
    assert len(steps) == 1 + stats.routes_expanded


def test_render_trace_format(figure1):
    compiled = compile_query(
        figure1.landmarks["vq"],
        list(figure1_query()),
        figure1.index,
        HierarchyWuPalmer(),
    )
    _, _, steps = trace_bssr(figure1.network, compiled)
    text = render_trace(steps)
    assert "Qb:" in text and "S:" in text
    assert text.count("\n") >= len(steps)


def test_table4_experiment_report():
    from repro.experiments import table4

    report = table4.run()
    assert "final SkySR set" in report.table
    assert report.data["steps"] >= 3


#: the rendered Figure-1 trace; a change to it has to be deliberate
TABLE4_TRACE = """\
query: Asian Restaurant -> Arts & Entertainment -> Gift Shop from vq

  1  init    ⟨⟩                 Qb: ⟨31⟩, ⟨39⟩
                                S:  ⟨31,34,36⟩[l=7,s=0.333], ⟨31,34,37⟩[l=9,s=0]
  2  expand  ⟨31⟩               Qb: ⟨31,34⟩, ⟨39⟩
                                S:  ⟨31,34,36⟩[l=7,s=0.333], ⟨31,34,37⟩[l=9,s=0]
  3  expand  ⟨31,34⟩            Qb: ⟨39⟩
                                S:  ⟨31,34,36⟩[l=7,s=0.333], ⟨31,34,37⟩[l=9,s=0]
  4  expand  ⟨39⟩               Qb: (empty)
                                S:  ⟨31,34,36⟩[l=7,s=0.333], ⟨31,34,37⟩[l=9,s=0]

final SkySR set:
  l=7  s=0.3333  p2 -> p5 -> p7
  l=9  s=0  p2 -> p5 -> p8
(3 expansions, 0 pruned at pop)"""


def test_table4_trace_is_pinned():
    """Steps, queues, skyline and counts of the running example.  ⟨35⟩
    never enters the queue: its to-go floor 3 + 8 = 11 exceeds the
    threshold 9 when it is offered as a child of the empty route."""
    from repro.experiments import table4

    assert table4.run().table == TABLE4_TRACE

"""Execution tracing for BSSR — the paper's Table 4 running example.

Section 5.5 walks through BSSR step by step, showing the contents of
the route queue ``Q_b`` and the skyline set ``S`` after every
expansion.  :func:`trace_bssr` replays that presentation for any small
query: it returns one :class:`TraceStep` per main-loop iteration with
snapshots of both structures, which :func:`render_trace` formats like
the paper's table.  Below the final position a popped route hands out
its children one at a time through a cursor (see
:meth:`~repro.core.bssr.BSSRSearch._expand`), so a step is either a
route's expansion or a cursor handing out its parent's next child
(``next``), and a queued cursor shows in ``Qb`` as its parent followed
by ``…``.

The traced run is the one BSSR search (:class:`~repro.core.bssr.BSSRSearch`)
that every query, one-shot or paged, runs; tracing only adds a snapshot
of the queue at every step, so it is meant for small, didactic
instances (examples, debugging, tests) — production queries should use
:func:`repro.core.bssr.run_bssr` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.bssr import BSSRSearch
from repro.core.options import BSSROptions
from repro.core.routes import SkylineRoute
from repro.core.spec import CompiledQuery
from repro.core.stats import SearchStats
from repro.graph.road_network import RoadNetwork
from repro.semantics.scoring import SemanticAggregator


@dataclass
class TraceStep:
    """State after one BSSR main-loop iteration (Table 4 row)."""

    step: int
    action: str  # "init", "expand", or "next"
    route: tuple[int, ...]
    #: queued routes and, as the parent's PoIs followed by ``...``,
    #: queued cursors, in pop order
    queue: list[tuple] = field(default_factory=list)
    skyline: list[SkylineRoute] = field(default_factory=list)

    def describe(self) -> str:
        queue = ", ".join(_chain(r) for r in self.queue) or "(empty)"
        skyline = (
            ", ".join(
                f"{_chain(r.pois)}[l={r.length:g},s={r.semantic:.3g}]"
                for r in self.skyline
            )
            or "(empty)"
        )
        return (
            f"{self.step:>3}  {self.action:<7} {_chain(self.route):<18} "
            f"Qb: {queue}\n{'':>32}S:  {skyline}"
        )


def _chain(pois: tuple) -> str:
    return "⟨" + ",".join("…" if p is ... else str(p) for p in pois) + "⟩"


class _TracingRun(BSSRSearch):
    """A BSSR run that records a TraceStep per expansion and per cursor
    pop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.steps: list[TraceStep] = []
        self._step_counter = 0
        # True inside _expand until its cursor hands out a child
        self._opening = False

    def _snapshot(self, action: str, route: tuple[int, ...]) -> None:
        self._step_counter += 1
        self.steps.append(
            TraceStep(
                step=self._step_counter,
                action=action,
                route=route,
                queue=[
                    entry[2].pois if entry[3] is not None
                    else (*entry[2].pois, ...)
                    for entry in sorted(self.state.queue, key=lambda e: e[:2])
                ],
                skyline=self.skyline.routes(),
            )
        )

    def _expand(self, route, consumed, cut=None) -> None:  # type: ignore[override]
        self._opening = True
        super()._expand(route, consumed, cut)
        if self._opening:  # no cursor: the final position, or no stream
            self._step(route)

    def _advance(self, route, cursor) -> None:  # type: ignore[override]
        super()._advance(route, cursor)
        self._step(route)

    def _step(self, route) -> None:
        if self._opening:
            self._opening = False
            action = "init" if not route.pois else "expand"
        else:
            action = "next"
        self._snapshot(action, route.pois)


def trace_bssr(
    network: RoadNetwork,
    query: CompiledQuery,
    *,
    aggregator: SemanticAggregator | None = None,
    options: BSSROptions | None = None,
) -> tuple[list[SkylineRoute], SearchStats, list[TraceStep]]:
    """Run BSSR and record a Table-4-style step trace."""
    runner = _TracingRun(network, query, aggregator, options)
    routes, stats = runner.run()
    return routes, stats, runner.steps


def render_trace(steps: list[TraceStep]) -> str:
    """Format a trace the way the paper's Table 4 lays out its steps."""
    return "\n".join(step.describe() for step in steps)

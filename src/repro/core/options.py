"""BSSR configuration: every Section 5.3 optimization is toggleable.

The paper's "BSSR w/o Opt" baseline (Figure 3) is
:meth:`BSSROptions.without_optimizations`; the ablation experiments
(Tables 7–8, Figures 4–5) toggle one technique at a time.  The
correctness tests assert that *every* combination returns identical
skyline scores — the optimizations are pure pruning, never semantics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from repro.errors import QueryError


@dataclass(frozen=True)
class BSSROptions:
    """Feature flags for the bulk SkySR algorithm.

    Attributes:
        initial_search: run NNinit (Algorithm 3) to seed the upper
            bound (Section 5.3.1).
        priority_queue: use the proposed queue order — size descending,
            semantic ascending, length ascending (Section 5.3.2);
            ``False`` falls back to the conventional distance-based
            order.
        lower_bounds: compute the semantic-match minimum distances
            ``l_s`` (Algorithm 4) and add them to partial lengths when
            pruning (Section 5.3.3).
        perfect_match_bound: additionally apply Lemma 5.8's
            perfect-match minimum distance ``l_p`` rule (requires
            ``lower_bounds``).
        caching: reuse modified-Dijkstra expansions via the on-the-fly
            cache (Section 5.3.4), one per ``(source, position)``;
            ``False`` builds a fresh search per expansion (the paper's
            Figure 5 ablation).
        use_landmarks: sharpen the Section 5.3.3 bounds with ALT
            (landmark triangle-inequality) lower bounds from
            :mod:`repro.graph.landmarks` — both the per-leg minimum
            distances and a per-route next-leg floor anchored at the
            route's last vertex (including the otherwise-unbounded
            start leg).  Requires ``lower_bounds``; pure pruning, never
            semantics.  Ignored under ``use_contraction``, whose exact
            legs and floors supersede it.  The landmark tables are
            built once per network and memoized.
        use_contraction: serve exact legs from the contraction
            hierarchy (:mod:`repro.graph.contraction`, memoized per
            network): the Section 5.3.3 leg bounds become exact
            set-to-set minima, NNinit's chain runs on one-to-many
            upward sweeps, every position's candidates come from a
            memoized CH label-row stream instead of the modified
            Dijkstra, and destination queries replace the eager
            full reverse Dijkstra with a lazy CH oracle.  Pure
            pruning/acceleration — result scores are unchanged (equal
            bit for bit on integer-weight graphs; within float
            round-off of the summation order otherwise, which the
            eps-shaved bounds absorb).  A restored session takes this
            flag from its checkpoint, so CH candidate-stream offsets
            line up.
        k: answer the *top-k* sequenced route query — the search keeps
            expanding until the k-skyband (every route dominated by
            fewer than ``k`` others) is complete, and results expose up
            to ``k`` ranked alternatives via
            :meth:`~repro.core.engine.SkySRResult.topk`.  ``k = 1``
            (default) is the paper's plain skyline query.
        page_size: default page size for resumable
            :class:`~repro.core.session.PlanningSession` pagination;
            ``None`` falls back to ``k``.  Sessions serve ranks
            ``1..page_size`` first and resume the checkpointed search
            for each further page.
        diversity_lambda: MMR trade-off for diversity re-ranking of
            top-k alternatives (``0`` = pure rank order, the default
            and the exact-pagination mode; ``1`` = pure dissimilarity).
        max_routes_expanded: optional safety valve for interactive
            services; ``None`` (default) never truncates.  When hit, the
            query raises :class:`~repro.errors.AlgorithmError`.
    """

    initial_search: bool = True
    priority_queue: bool = True
    lower_bounds: bool = True
    perfect_match_bound: bool = True
    caching: bool = True
    use_landmarks: bool = False
    use_contraction: bool = False
    k: int = 1
    page_size: int | None = None
    diversity_lambda: float = 0.0
    max_routes_expanded: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise QueryError(f"top-k requires k >= 1, got {self.k}")
        if self.page_size is not None and self.page_size < 1:
            raise QueryError(
                f"page_size requires a positive size, got {self.page_size}"
            )
        if not 0.0 <= self.diversity_lambda <= 1.0:
            raise QueryError(
                "diversity_lambda must be within [0, 1], got "
                f"{self.diversity_lambda}"
            )

    @classmethod
    def all_enabled(cls) -> "BSSROptions":
        """The full BSSR configuration (the paper's "BSSR")."""
        return cls()

    @classmethod
    def without_optimizations(cls) -> "BSSROptions":
        """The paper's "BSSR w/o Opt": plain branch-and-bound only."""
        return cls(
            initial_search=False,
            priority_queue=False,
            lower_bounds=False,
            perfect_match_bound=False,
            caching=False,
        )

    def but(self, **changes) -> "BSSROptions":
        """A copy with some flags changed (ablation helper)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-compatible form (all fields are plain scalars)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "BSSROptions":
        """Inverse of :meth:`to_dict`; strict about unknown fields so a
        payload written by a newer library version is rejected instead
        of silently dropping the flags it does not understand."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise QueryError(f"unknown BSSROptions field(s): {unknown}")
        return cls(**payload)

    def effective_perfect_bound(self) -> bool:
        """Lemma 5.8 needs the ``l_s``/``l_p`` machinery to be active."""
        return self.perfect_match_bound and self.lower_bounds

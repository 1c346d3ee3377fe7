"""Skyline / k-skyband dominance and the sequenced-route result sets.

Implements Definition 4.1 (dominance / equivalence), Definition 4.2
(the minimal set ``S``), and Definition 5.4 (the length-score threshold
``l̄(R)`` used by the branch-and-bound pruning of Lemma 5.3).

For the top-k subsystem the skyline is generalized to the **k-skyband**
(routes dominated by fewer than ``k`` other routes, exact score
duplicates collapsed): :class:`SkybandSet` maintains it incrementally,
and :class:`SkylineSet` is exactly the ``k = 1`` instance — the
evolving minimal set of the paper.  The generalized threshold (the
``k``-th smallest length among members at or below a semantic level)
keeps every BSSR pruning rule sound: a partial route is discarded only
when *all* of its completions would be rejected by :meth:`update`.

Both sets are tiny in practice (the paper measures skylines of ≤ 8
routes, Figure 6; the skyband is at most ~k× that), so sorted lists
with linear scans are both simple and fast.  Entries are kept sorted by
length ascending, semantic ascending; for ``k = 1`` the skyline
property makes semantic scores strictly descending across entries.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterator, Sequence

from repro.core.routes import SkylineRoute


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Does score pair ``a = (l, s)`` dominate ``b`` (Definition 4.1)?

    True iff ``a`` is no worse on both axes and strictly better on one.
    """
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def equivalent(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Score-equivalent routes (same length and semantic score)."""
    return a[0] == b[0] and a[1] == b[1]


def skyline_filter(routes: list[SkylineRoute]) -> list[SkylineRoute]:
    """Minimal skyline set of an arbitrary route collection.

    Equivalent routes are collapsed to the one with lexicographically
    smallest PoI ids (the minimal-set rule of Definition 4.1, made
    deterministic).  Returns routes sorted by length ascending.
    """
    result = SkylineSet()
    for route in routes:
        result.update(route)
    return result.routes()


def skyband_filter(routes: list[SkylineRoute], k: int) -> list[SkylineRoute]:
    """The k-skyband of an arbitrary route collection, length ascending."""
    result = SkybandSet(k)
    for route in routes:
        result.update(route)
    return result.routes()


def dominance_depths(routes: Sequence[SkylineRoute]) -> list[int]:
    """Per-route count of other routes in the collection dominating it.

    Depth 0 is the skyline layer; a k-skyband contains exactly the
    routes of depth < k.  Quadratic, intended for the small result sets
    SkySR queries produce.
    """
    scores = [route.scores() for route in routes]
    return [
        sum(1 for other in scores if other is not mine and dominates(other, mine))
        for mine in scores
    ]


def rank_routes(
    routes: Sequence[SkylineRoute], k: int | None = None
) -> list[SkylineRoute]:
    """Rank alternatives: dominance depth, then length, then semantic,
    then lexicographic PoI ids.

    Rank 1 is therefore always the globally shortest route (nothing can
    dominate the minimum-length member), matching the single-answer
    BSSR presentation; deeper layers supply the "next best"
    alternatives.  ``k`` truncates the ranked list.

    The final ``pois`` component makes the order *total and
    deterministic*: equal-score routes (which can only coexist in the
    input when it was not dominance-collapsed) are presented in
    lexicographic PoI-id order, so ranked output never depends on
    enumeration order.  Because dominance depth is preserved under
    skyband widening (a dominator always has strictly smaller depth),
    this order is also *prefix-stable*: the top-k of a (k')-skyband
    ranking, k ≤ k', equals the full ranking of the k-skyband — the
    contract resumable pagination relies on.
    """
    depths = dominance_depths(routes)
    order = sorted(
        range(len(routes)),
        key=lambda i: (
            depths[i],
            routes[i].length,
            routes[i].semantic,
            routes[i].pois,
        ),
    )
    ranked = [routes[i] for i in order]
    return ranked if k is None else ranked[:k]


class SkybandSet:
    """The evolving k-skyband ``S_k`` of sequenced routes.

    A route is a member iff fewer than ``k`` members dominate it; exact
    score duplicates are collapsed to the lexicographically smallest
    PoI sequence, mirroring the minimal-set rule of Definition 4.1 with
    a deterministic, insertion-order-independent representative.
    ``k = 1`` reduces to the paper's skyline set (see
    :class:`SkylineSet`).

    Supports the three operations BSSR needs:

    * :meth:`update` — insert a candidate, dropping it if equivalent to
      a member or dominated by ``k`` of them, and evicting members the
      insertion pushes past ``k`` dominators (the Lemma 5.1 rule,
      generalized);
    * :meth:`threshold` — Definition 5.4's ``l̄``, generalized: the
      ``k``-th smallest length among members whose semantic score is ≤
      the probe's;
    * :meth:`dominated_or_equal` — Lemma 5.3's pruning test.

    Thresholds are memoized.  Every change to the members bumps
    :attr:`version` and drops the memo, so between two changes each
    semantic level is scanned once however often BSSR probes it — and a
    consumer holding a threshold can tell from :attr:`version` alone
    whether it may have moved.
    """

    def __init__(self, k: int = 1) -> None:
        if k < 1:
            raise ValueError(f"skyband k must be >= 1, got {k}")
        self.k = k
        self._keys: list[tuple[float, float]] = []
        self._entries: list[SkylineRoute] = []
        #: bumped by every change to the members
        self.version = 0
        self._thresholds: dict[float, float] = {}
        #: number of successful insertions (for SearchStats)
        self.updates = 0
        #: number of rejected candidates
        self.rejects = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[SkylineRoute]:
        return iter(self._entries)

    def routes(self) -> list[SkylineRoute]:
        """Members sorted by length ascending (semantic ascending)."""
        return list(self._entries)

    def ranked(self, k: int | None = None) -> list[SkylineRoute]:
        """Members ranked for presentation (see :func:`rank_routes`)."""
        return rank_routes(self._entries, k)

    def update(self, route: SkylineRoute) -> bool:
        """Insert ``route`` unless equivalent to a member or dominated
        by ``k`` of them; True if kept.

        Equivalence collapse is deterministic: among equal-score
        routes the member with the lexicographically smallest ``pois``
        tuple is retained, so the surviving representative never
        depends on the order routes were discovered in.

        A PoI tuple has one score pair: its similarities fix the
        semantic score, and every search sums its legs, each an exact
        distance on the weight grain, to the same length.  So a route
        offered again is an equal-score duplicate of itself and counts
        one reject without touching the members.
        """
        key = (route.length, route.semantic)
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            # Equivalent member found: keep the lexicographically
            # smallest PoI sequence (deterministic tie-break), but the
            # candidate never *joins* the set.
            if route.pois < self._entries[idx].pois:
                self._entries[idx] = route
                self._changed()
            self.rejects += 1
            return False
        if self.dominated_or_equal(route.length, route.semantic):
            self.rejects += 1
            return False
        self._keys.insert(idx, key)
        self._entries.insert(idx, route)
        # Only the newcomer gained anyone a dominator: recount members
        # it dominates and evict those now at >= k (scan is cheap: the
        # set stays tiny).
        evict = [
            i
            for i, other in enumerate(self._keys)
            if dominates(key, other) and self._dominator_count(i) >= self.k
        ]
        for i in reversed(evict):
            del self._keys[i]
            del self._entries[i]
        self._changed()
        self.updates += 1
        return True

    def _changed(self) -> None:
        self.version += 1
        self._thresholds = {}

    def _dominator_count(self, idx: int) -> int:
        mine = self._keys[idx]
        return sum(
            1
            for i, other in enumerate(self._keys)
            if i != idx and dominates(other, mine)
        )

    def dominated_or_equal(self, length: float, semantic: float) -> bool:
        """Would :meth:`update` reject this score pair?

        True iff a member has exactly these scores (equivalence
        collapse) or ``k`` members dominate it.
        """
        dominators = 0
        for (other_l, other_s) in self._keys:
            if other_l > length:
                break  # sorted by length: nothing further can qualify
            if other_s > semantic:
                continue
            if other_l == length and other_s == semantic:
                return True
            dominators += 1
            if dominators >= self.k:
                return True
        return False

    def threshold(self, semantic: float) -> float:
        """Definition 5.4, generalized: the ``k``-th smallest length
        among members with ``s ≤ semantic``.

        A candidate longer than this (at this semantic score or worse)
        is rejected by :meth:`update` — ``k`` members dominate it.  One
        *at* this length may still tie a member's scores and, with a
        lexicographically smaller PoI tuple, replace it as the
        representative, so BSSR prunes only above the threshold.
        ``inf`` when fewer than ``k`` members qualify (nothing can be
        pruned yet).
        """
        found = self._thresholds.get(semantic)
        if found is None:
            found = math.inf
            need = self.k
            for (length, other_s) in self._keys:
                if other_s <= semantic:
                    need -= 1
                    if need == 0:
                        found = length
                        break
            self._thresholds[semantic] = found
        return found

    def perfect_route_length(self) -> float:
        """``l̄(ϕ)``: threshold at semantic score 0 (Algorithm 4 line 3)."""
        return self.threshold(0.0)

    def as_score_set(self) -> set[tuple[float, float]]:
        """Score pairs of all members (order-free comparison in tests)."""
        return set(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(k={self.k}, {len(self._entries)} routes)"


class SkylineSet(SkybandSet):
    """The evolving minimal set ``S`` (Definition 4.2): the 1-skyband."""

    def __init__(self) -> None:
        super().__init__(1)

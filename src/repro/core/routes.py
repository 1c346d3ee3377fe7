"""Route value types (Definitions 3.2, 3.4, 3.5 of the paper).

Two representations:

* :class:`PartialRoute` — a route under construction inside BSSR's
  priority queue ``Q_b``; carries the incremental aggregator state so
  extending by one PoI is O(1);
* :class:`SkylineRoute` — an immutable finished sequenced route with its
  two scores, as returned to users and stored in the skyline set.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SkylineRoute:
    """A finished sequenced route with its two scores.

    Attributes:
        pois: PoI vertex ids in visiting order (⟨p_1 … p_n⟩).
        length: length score ``l(R)`` (Eq. 1) — includes the leg from
            the start point to the first PoI, and, for destination
            queries, the final leg to the destination.
        semantic: semantic score ``s(R)`` (Eq. 7); 0 ⇔ all perfect.
        sims: per-position category similarities ``h_i``.
    """

    pois: tuple[int, ...]
    length: float
    semantic: float
    sims: tuple[float, ...] = ()

    @property
    def size(self) -> int:
        return len(self.pois)

    def scores(self) -> tuple[float, float]:
        return (self.length, self.semantic)

    def is_perfect(self) -> bool:
        return self.semantic <= 0.0

    def __str__(self) -> str:
        chain = " -> ".join(str(p) for p in self.pois)
        return f"[l={self.length:.4g} s={self.semantic:.4g}] {chain}"


@dataclass
class PartialRoute:
    """A route prefix on BSSR's queue ``Q_b``.

    ``sem_state`` is the aggregator's incremental state (e.g. the
    running similarity product Π for Eq. 7) and ``semantic`` its score —
    the *possible minimum* semantic score of any completion
    (Definition 3.5), which Lemma 5.2 uses as the lower bound.
    """

    pois: tuple[int, ...]
    length: float
    semantic: float
    sem_state: object
    sims: tuple[float, ...] = ()

    @property
    def size(self) -> int:
        return len(self.pois)

    @property
    def last(self) -> int:
        """The PoI this route currently ends at."""
        return self.pois[-1]

    def contains(self, vid: int) -> bool:
        return vid in self.pois

    def __str__(self) -> str:
        chain = " -> ".join(str(p) for p in self.pois) or "⟨⟩"
        return f"Partial[l={self.length:.4g} s={self.semantic:.4g}] {chain}"

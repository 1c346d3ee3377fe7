"""Position specifications: the compiled per-position matching model.

A SkySR query names one *requirement* per sequence position (a plain
category in the paper's base setting; a boolean predicate over
categories in the Section 6 "complex category requirement" variation).
Before searching, the engine compiles each requirement against the
concrete (network, forest, similarity) triple into a
:class:`PositionSpec`, which answers in O(1):

* is PoI ``p`` a semantic-match candidate here, and at what similarity
  ``h_i`` (Definition 3.3/3.4)?
* is it a *perfect* match (``h_i = 1`` — Lemma 5.8's perfect-match rule)?
* what is the best non-perfect similarity any candidate offers (the
  minimum semantic increment ``δ`` of Lemma 5.8)?

Compiling once per query keeps the hot search loops free of tree walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.errors import QueryError
from repro.graph.poi import PoIIndex
from repro.semantics.category import CategoryForest
from repro.semantics.similarity import SimilarityMeasure


@runtime_checkable
class Requirement(Protocol):
    """Anything that can be compiled into a :class:`PositionSpec`.

    Plain categories satisfy this through :class:`CategoryRequirement`;
    the boolean predicates of :mod:`repro.extensions.predicates`
    implement it directly.
    """

    def compile(
        self,
        index: PoIIndex,
        similarity: SimilarityMeasure,
        position: int,
    ) -> "PositionSpec":
        """Build the concrete spec for this requirement."""
        ...

    def describe(self, forest: CategoryForest) -> str:
        """Human-readable label for results and error messages."""
        ...


@dataclass
class PositionSpec:
    """Concrete matching data for one sequence position.

    Attributes:
        index: 0-based position in the query sequence.
        label: human-readable requirement description.
        sim_map: PoI vertex id → similarity (only candidates, sim > 0).
        perfect: PoI vertex ids with similarity exactly 1.
        tree_ids: category trees the candidates are drawn from
            (descriptive; no search decision reads it).
        best_nonperfect: largest candidate similarity strictly below 1,
            or ``None`` when every candidate is perfect.
        share_key: identity of this spec's matching model *independent
            of query position* — two specs with equal ``share_key``
            compile to the same ``sim_map``/``perfect`` under the same
            engine, so a modified-Dijkstra expansion computed for one
            can serve the other (the cross-query
            :class:`~repro.core.distcache.DistanceCache`).  ``None``
            (e.g. predicate requirements) means not shareable.
        levels: the distinct candidate similarities, highest first —
            the position's similarity levels, one view each in every
            candidate stream (see :mod:`repro.core.search`); always
            derived from ``sim_map``.
    """

    index: int
    label: str
    sim_map: dict[int, float]
    perfect: frozenset[int]
    tree_ids: frozenset[int]
    best_nonperfect: float | None = None
    share_key: tuple | None = None
    levels: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.levels = tuple(sorted(set(self.sim_map.values()), reverse=True))

    def similarity(self, vid: int) -> float | None:
        """Similarity of PoI ``vid`` at this position (None = no match)."""
        return self.sim_map.get(vid)

    def is_perfect(self, vid: int) -> bool:
        return vid in self.perfect

    @property
    def num_candidates(self) -> int:
        return len(self.sim_map)

    def candidates(self) -> list[int]:
        return list(self.sim_map)


@dataclass(frozen=True)
class CategoryRequirement:
    """The paper's base requirement: one category per position.

    Candidates are the tree set ``P_t`` (semantic matches); similarity
    of a PoI with several categories is the best over its categories
    (the Section 6 multi-category rule, which degenerates to the single
    category in the base setting).
    """

    category: int

    def compile(
        self,
        index: PoIIndex,
        similarity: SimilarityMeasure,
        position: int,
    ) -> PositionSpec:
        forest = index.forest
        network = index.network
        cid = self.category
        # The matching model is pure per (index, similarity, category) —
        # only the position number differs between compilations — and
        # PoIIndex is an immutable snapshot, so the expensive sim_map
        # walk is memoized on the index.  The cached containers are
        # shared across specs and treated as read-only everywhere.
        cache = getattr(index, "_category_spec_cache", None)
        if cache is None:
            cache = {}
            index._category_spec_cache = cache  # type: ignore[attr-defined]
        key = (cid, id(similarity))
        cached = cache.get(key)
        if cached is None:
            sim_map: dict[int, float] = {}
            perfect: set[int] = set()
            best_np: float | None = None
            sim_cache: dict[int, float] = {}
            for vid in index.pois_in_tree(cid):
                best = 0.0
                for poi_cid in network.poi_categories(vid):
                    sim = sim_cache.get(poi_cid)
                    if sim is None:
                        sim = similarity.similarity(forest, cid, poi_cid)
                        sim_cache[poi_cid] = sim
                    if sim > best:
                        best = sim
                if best <= 0.0:
                    continue
                sim_map[vid] = best
                if best >= 1.0:
                    perfect.add(vid)
                elif best_np is None or best > best_np:
                    best_np = best
            cached = (
                forest.name_of(cid),
                sim_map,
                frozenset(perfect),
                frozenset({forest.tree_id(cid)}),
                best_np,
            )
            cache[key] = cached
        label, sim_map, perfect_set, tree_ids, best_np = cached
        return PositionSpec(
            index=position,
            label=label,
            sim_map=sim_map,
            perfect=perfect_set,
            tree_ids=tree_ids,
            best_nonperfect=best_np,
            share_key=("cat", cid),
        )

    def describe(self, forest: CategoryForest) -> str:
        return forest.name_of(self.category)


def as_requirement(
    item: "Requirement | int | str", forest: CategoryForest
) -> Requirement:
    """Coerce a user-facing sequence item into a requirement."""
    if isinstance(item, (int, str)):
        return CategoryRequirement(forest.resolve(item))
    if isinstance(item, Requirement):
        return item
    raise QueryError(f"cannot interpret {item!r} as a category requirement")


@dataclass
class CompiledQuery:
    """A fully compiled query: one spec per position plus global facts."""

    start: int
    specs: list[PositionSpec]
    destination: int | None = None

    @property
    def size(self) -> int:
        return len(self.specs)

    def labels(self) -> list[str]:
        return [spec.label for spec in self.specs]


def compile_query(
    start: int,
    items: list,
    index: PoIIndex,
    similarity: SimilarityMeasure,
    *,
    destination: int | None = None,
) -> CompiledQuery:
    """Compile a raw query sequence into position specs.

    Raises :class:`QueryError` for empty sequences, unknown vertices, or
    positions with no candidates at all (no sequenced route can exist —
    callers may catch this and return an empty result).
    """
    if not items:
        raise QueryError("the category sequence must not be empty")
    network = index.network
    if not 0 <= start < network.num_vertices:
        raise QueryError(f"unknown start vertex: {start}")
    if destination is not None and not 0 <= destination < network.num_vertices:
        raise QueryError(f"unknown destination vertex: {destination}")
    forest = index.forest
    specs: list[PositionSpec] = []
    for position, item in enumerate(items):
        requirement = as_requirement(item, forest)
        specs.append(requirement.compile(index, similarity, position))
    return CompiledQuery(start=start, specs=specs, destination=destination)

"""Road network with embedded PoI vertices.

The paper assumes a connected graph ``G = (V ∪ P, E)`` where ``V`` are
plain road vertices, ``P`` are PoI vertices embedded in the network, and
edges carry non-negative weights (travel distance or duration,
Section 3).  :class:`RoadNetwork` stores both vertex kinds in a single
integer-id space; PoI-ness is an attribute (a vertex with one or more
category ids).

Undirected by default; pass ``directed=True`` for the Section 6
"directed graphs" variation — every algorithm in the library works on
both (they only consume :meth:`neighbors` / :meth:`in_neighbors`).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.errors import GraphError

#: edge weights are rounded to multiples of this (2**-20, about 1e-6).
#: Sums of such weights below 2**33 are exact doubles, so every kernel
#: reaches the same length for the same path, whatever order it adds
#: the legs in (Dijkstra, reverse sweeps, CH shortcuts).
WEIGHT_GRAIN = 1.0 / (1 << 20)

#: exclusive cap on a network's total edge weight: every shortest path
#: and every sum of two of them stays below 2**33
MAX_TOTAL_WEIGHT = float(1 << 32)


class RoadNetwork:
    """Adjacency-list road network with PoI vertices.

    Vertices are dense integer ids assigned by :meth:`add_vertex`.
    Optional ``(x, y)`` coordinates support the spatial helpers, the
    synthetic generators and GeoJSON export; the core algorithms never
    require them.
    """

    def __init__(self, directed: bool = False) -> None:
        self.directed = directed
        self._adj: list[list[tuple[int, float]]] = []
        self._radj: list[list[tuple[int, float]]] = []  # only when directed
        self._coords: list[tuple[float, float] | None] = []
        self._poi_cats: dict[int, tuple[int, ...]] = {}
        self._num_edges = 0
        self._total_weight = 0.0
        self._poi_version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_vertex(
        self, x: float | None = None, y: float | None = None
    ) -> int:
        """Add a road vertex; returns its id."""
        vid = len(self._adj)
        self._adj.append([])
        if self.directed:
            self._radj.append([])
        if x is None or y is None:
            self._coords.append(None)
        else:
            self._coords.append((float(x), float(y)))
        return vid

    def add_poi(
        self,
        categories: int | Iterable[int],
        x: float | None = None,
        y: float | None = None,
    ) -> int:
        """Add a PoI vertex with one or more category ids."""
        vid = self.add_vertex(x, y)
        self.set_poi(vid, categories)
        return vid

    def set_poi(self, vid: int, categories: int | Iterable[int]) -> None:
        """Mark an existing vertex as a PoI with the given categories.

        The common case is a single category (the paper's base setting);
        a tuple enables the Section 6 "PoI with multiple categories"
        variation.
        """
        self._check_vertex(vid)
        if isinstance(categories, int):
            cats: tuple[int, ...] = (categories,)
        else:
            cats = tuple(dict.fromkeys(int(c) for c in categories))
        if not cats:
            raise GraphError("a PoI needs at least one category")
        self._poi_cats[vid] = cats
        self._poi_version += 1

    def clear_poi(self, vid: int) -> None:
        """Demote a PoI vertex back to a plain road vertex."""
        self._poi_cats.pop(vid, None)
        self._poi_version += 1

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add an edge (one arc when directed, both directions otherwise).

        The weight is rounded to the nearest multiple of
        :data:`WEIGHT_GRAIN`, and the network's total weight must stay
        below :data:`MAX_TOTAL_WEIGHT`.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        w = float(weight)
        # one test on the hot path; NaN and inf fail it too
        if not (w >= 0.0 and self._total_weight + w < MAX_TOTAL_WEIGHT):
            if w < 0:
                raise GraphError(f"negative edge weight {w} on ({u}, {v})")
            if not math.isfinite(w):
                raise GraphError(f"non-finite edge weight {w} on ({u}, {v})")
            raise GraphError(
                f"total edge weight would reach {self._total_weight + w:g}; "
                f"lengths are exact only below {MAX_TOTAL_WEIGHT:g}"
            )
        if u == v:
            raise GraphError(f"self-loop on vertex {u}")
        w = round(w * (1 << 20)) * WEIGHT_GRAIN
        self._total_weight += w
        self._adj[u].append((v, w))
        if self.directed:
            self._radj[v].append((u, w))
        else:
            self._adj[v].append((u, w))
        self._num_edges += 1

    def _check_vertex(self, vid: int) -> None:
        if not 0 <= vid < len(self._adj):
            raise GraphError(f"unknown vertex id: {vid}")

    # ------------------------------------------------------------------
    # topology accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Total number of vertices, |V| + |P|."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def poi_version(self) -> int:
        """Bumped by every :meth:`set_poi`/:meth:`clear_poi`: per-network
        memos keyed by category (CH buckets and streams, landmark
        heuristic rows, the query LRU) drop their entries when it moved."""
        return self._poi_version

    @property
    def num_pois(self) -> int:
        return len(self._poi_cats)

    @property
    def num_road_vertices(self) -> int:
        """|V|: vertices that are not PoIs."""
        return self.num_vertices - self.num_pois

    def vertices(self) -> range:
        return range(len(self._adj))

    def neighbors(self, vid: int) -> list[tuple[int, float]]:
        """Outgoing ``(neighbor, weight)`` pairs."""
        return self._adj[vid]

    def in_neighbors(self, vid: int) -> list[tuple[int, float]]:
        """Incoming ``(neighbor, weight)`` pairs (== neighbors if undirected)."""
        if self.directed:
            return self._radj[vid]
        return self._adj[vid]

    def degree(self, vid: int) -> int:
        return len(self._adj[vid])

    def has_edge(self, u: int, v: int) -> bool:
        return any(nbr == v for nbr, _ in self._adj[u])

    def edge_weight(self, u: int, v: int) -> float:
        for nbr, w in self._adj[u]:
            if nbr == v:
                return w
        raise GraphError(f"no edge ({u}, {v})")

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate edges once (``u < v`` for undirected graphs)."""
        for u in range(len(self._adj)):
            for v, w in self._adj[u]:
                if self.directed or u < v:
                    yield (u, v, w)

    def total_edge_weight(self) -> float:
        return sum(w for _, _, w in self.edges())

    # ------------------------------------------------------------------
    # PoI accessors
    # ------------------------------------------------------------------

    def is_poi(self, vid: int) -> bool:
        return vid in self._poi_cats

    def poi_categories(self, vid: int) -> tuple[int, ...]:
        """Category ids of a PoI vertex (empty tuple for road vertices)."""
        return self._poi_cats.get(vid, ())

    def poi_vertices(self) -> list[int]:
        return list(self._poi_cats)

    def poi_items(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        return iter(self._poi_cats.items())

    # ------------------------------------------------------------------
    # coordinates
    # ------------------------------------------------------------------

    def set_coords(self, vid: int, x: float, y: float) -> None:
        self._check_vertex(vid)
        self._coords[vid] = (float(x), float(y))

    def coords(self, vid: int) -> tuple[float, float] | None:
        return self._coords[vid]

    def has_coords(self) -> bool:
        return all(c is not None for c in self._coords)

    # ------------------------------------------------------------------
    # structure utilities
    # ------------------------------------------------------------------

    def connected_component(self, start: int) -> set[int]:
        """Vertices reachable from ``start`` following outgoing edges."""
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v, _ in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def is_connected(self) -> bool:
        """Weak reachability from vertex 0 (undirected interpretation)."""
        if self.num_vertices == 0:
            return True
        if not self.directed:
            return len(self.connected_component(0)) == self.num_vertices
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v, _ in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
            for v, _ in self._radj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.num_vertices

    def memory_footprint(self) -> int:
        """Approximate resident bytes of the graph structures.

        Used by the Table-6 memory experiment: the paper reports RSS,
        which at scale is dominated by the graph for BSSR/PNE; this
        estimate (adjacency lists, coordinates, PoI table) plays that
        role for the scaled-down datasets.
        """
        import sys

        total = sys.getsizeof(self._adj) + sys.getsizeof(self._coords)
        for lst in self._adj:
            total += sys.getsizeof(lst) + len(lst) * 72  # tuple + float
        if self.directed:
            total += sys.getsizeof(self._radj)
            for lst in self._radj:
                total += sys.getsizeof(lst) + len(lst) * 72
        for coords in self._coords:
            if coords is not None:
                total += 120  # tuple of two floats
        total += sys.getsizeof(self._poi_cats) + 96 * len(self._poi_cats)
        return total

    def summary(self) -> dict[str, int | bool]:
        """Dataset-card numbers in the shape of the paper's Table 5."""
        return {
            "|V|": self.num_road_vertices,
            "|P|": self.num_pois,
            "|E|": self.num_edges,
            "directed": self.directed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return (
            f"RoadNetwork({kind}, |V|={self.num_road_vertices}, "
            f"|P|={self.num_pois}, |E|={self.num_edges})"
        )

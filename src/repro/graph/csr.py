"""Flat adjacency: the form of :class:`RoadNetwork` every kernel runs on.

The dict/list adjacency of :class:`~repro.graph.road_network.RoadNetwork`
is convenient to build but hostile to the hot loops: every relaxation
hashes a vertex id, allocates a tuple, and chases pointers.
:func:`flat_adjacency` flattens the same topology once into CSR form —
three parallel python lists per direction:

* ``indptr``  — vertex ``u``'s out-edges live at ``indptr[u]:indptr[u+1]``;
* ``indices`` — head vertex of each edge;
* ``weights`` — edge weight of each edge, as a python ``float``.

CPython list indexing beats dict hashing in a tight interpreted loop,
so the Dijkstra kernels index these lists directly.

Edge order within a vertex is exactly the insertion order of
:meth:`RoadNetwork.add_edge`, so searches relax edges in the same
sequence as ``network.neighbors(u)``.

The lists are built lazily and memoized on the network instance; a
structural mutation (new vertex or edge) invalidates the memo via a
``(num_vertices, num_edges)`` token.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.road_network import RoadNetwork

#: CSR adjacency lists: (num_vertices, indptr, indices, weights)
FlatAdjacency = tuple[int, list[int], list[int], list[float]]


def csr_enabled() -> bool:
    """Always ``True``: the CSR kernels are the only graph kernels."""
    return True


def numpy_enabled() -> bool:
    """Always ``False``: the graph layer is stdlib-only."""
    return False


def _pack(neighbors, n: int) -> FlatAdjacency:
    indptr = [0] * (n + 1)
    indices: list[int] = []
    weights: list[float] = []
    for u in range(n):
        for v, w in neighbors(u):
            indices.append(v)
            weights.append(float(w))
        indptr[u + 1] = len(indices)
    return n, indptr, indices, weights


def flat_adjacency(
    network: "RoadNetwork", *, reverse: bool = False
) -> FlatAdjacency:
    """The (memoized) CSR lists of ``network``'s out-edges, or of its
    in-edges with ``reverse=True`` (the same lists when undirected).

    Rebuilt automatically when the network gained vertices or edges
    since the last call.
    """
    token = (network.num_vertices, network.num_edges)
    cached = getattr(network, "_flat_adjacency", None)
    if cached is None or cached[0] != token:
        forward = _pack(network.neighbors, network.num_vertices)
        backward = (
            _pack(network.in_neighbors, network.num_vertices)
            if network.directed
            else forward
        )
        cached = (token, forward, backward)
        network._flat_adjacency = cached  # type: ignore[attr-defined]
    return cached[2] if reverse else cached[1]

"""Adjacency rows: the form of :class:`RoadNetwork` every kernel runs on.

:func:`flat_adjacency` hands out one row per vertex: ``rows[u]`` is the
tuple of ``u``'s out-edges as ``(head, weight)`` pairs, in the insertion
order of :meth:`RoadNetwork.add_edge` (so searches relax edges in the
same sequence as ``network.neighbors(u)``).  The pairs are the
network's own tuples; a row only adds the tuple that holds them.

A settle loop reads one row per settled vertex and unpacks its pairs
straight into locals::

    for v, w in rows[u]:
        nd = d + w
        if nd < dist[v]:
            ...

so the inner loop does no index arithmetic and no ``range`` call, and
reads one pair per edge instead of two parallel lists.  ``len(rows)`` is
the vertex count.

The rows are built lazily and memoized on the network instance; a
structural mutation (new vertex or edge) invalidates the memo via a
``(num_vertices, num_edges)`` token.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.road_network import RoadNetwork

#: per-vertex out-edge rows: ``rows[u] == ((head, weight), ...)``
AdjacencyRows = list[tuple[tuple[int, float], ...]]


def csr_enabled() -> bool:
    """Always ``True``: the row kernels are the only graph kernels."""
    return True


def numpy_enabled() -> bool:
    """Always ``False``: the graph layer is stdlib-only."""
    return False


def flat_adjacency(
    network: "RoadNetwork", *, reverse: bool = False
) -> AdjacencyRows:
    """The (memoized) rows of ``network``'s out-edges, or of its
    in-edges with ``reverse=True`` (the same rows when undirected).

    Rebuilt automatically when the network gained vertices or edges
    since the last call.
    """
    token = (network.num_vertices, network.num_edges)
    cached = getattr(network, "_flat_adjacency", None)
    if cached is None or cached[0] != token:
        vertices = network.vertices()
        forward = [tuple(network.neighbors(u)) for u in vertices]
        backward = (
            [tuple(network.in_neighbors(u)) for u in vertices]
            if network.directed
            else forward
        )
        cached = (token, forward, backward)
        network._flat_adjacency = cached  # type: ignore[attr-defined]
    return cached[2] if reverse else cached[1]

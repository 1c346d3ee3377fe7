"""CSR adjacency: the hardware-bound form of :class:`RoadNetwork`.

The dict/list adjacency of :class:`~repro.graph.road_network.RoadNetwork`
is convenient to build but hostile to the hot loops: every relaxation
hashes a vertex id, allocates a tuple, and chases pointers.
:class:`CSRGraph` flattens the same topology once into three parallel
arrays per direction —

* ``indptr``  — vertex ``u``'s out-edges live at ``indptr[u]:indptr[u+1]``;
* ``indices`` — head vertex of each edge;
* ``weights`` — edge weight of each edge —

using numpy arrays when numpy is installed (bulk/vectorized consumers,
e.g. the ALT landmark tables) and :mod:`array` arrays otherwise.  The
scalar Dijkstra kernels read cached *python-list mirrors* of the same
arrays: CPython list indexing beats both dict hashing and numpy scalar
access in a tight interpreted loop.

Edge order within a vertex is exactly the insertion order of
:meth:`RoadNetwork.add_edge`, so searches relax edges in the same
sequence as ``network.neighbors(u)``.

The CSR view is built lazily and memoized on the network instance; a
structural mutation (new vertex or edge) invalidates the memo via a
``(num_vertices, num_edges)`` token.  The vectorized sweep
(:func:`batched_min_distances`) runs whenever numpy imports; without
it, callers fall back to the scalar kernels.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.road_network import RoadNetwork

try:  # numpy is optional: CSR falls back to array('q')/array('d')
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _np = None

HAVE_NUMPY = _np is not None

#: python-list adjacency mirror: (num_vertices, indptr, indices, weights)
FlatAdjacency = tuple[int, list[int], list[int], list[float]]


def csr_enabled() -> bool:
    """Always ``True``: the CSR kernels are the only graph kernels."""
    return True


def numpy_enabled() -> bool:
    """Whether the vectorized sweep runs (numpy imports)."""
    return HAVE_NUMPY


class CSRGraph:
    """Immutable CSR snapshot of a :class:`RoadNetwork`'s topology.

    ``indptr``/``indices``/``weights`` describe outgoing edges;
    ``rindptr``/``rindices``/``rweights`` incoming ones (aliases of the
    forward arrays for undirected networks).  Build via
    :func:`csr_graph`, which memoizes per network.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "directed",
        "indptr",
        "indices",
        "weights",
        "rindptr",
        "rindices",
        "rweights",
        "_flat_fwd",
        "_flat_rev",
        "_tails_fwd",
        "_tails_rev",
        "_token",
    )

    def __init__(self, network: "RoadNetwork") -> None:
        n = network.num_vertices
        self.num_vertices = n
        self.num_edges = network.num_edges
        self.directed = network.directed
        self.indptr, self.indices, self.weights = self._pack(
            network.neighbors, n
        )
        if network.directed:
            self.rindptr, self.rindices, self.rweights = self._pack(
                network.in_neighbors, n
            )
        else:
            self.rindptr = self.indptr
            self.rindices = self.indices
            self.rweights = self.weights
        self._flat_fwd: FlatAdjacency | None = None
        self._flat_rev: FlatAdjacency | None = None
        self._tails_fwd = None
        self._tails_rev = None
        self._token = (n, network.num_edges)

    @staticmethod
    def _pack(neighbors, n: int):
        indptr = [0] * (n + 1)
        indices: list[int] = []
        weights: list[float] = []
        for u in range(n):
            for v, w in neighbors(u):
                indices.append(v)
                weights.append(w)
            indptr[u + 1] = len(indices)
        if HAVE_NUMPY:
            return (
                _np.asarray(indptr, dtype=_np.int64),
                _np.asarray(indices, dtype=_np.int64),
                _np.asarray(weights, dtype=_np.float64),
            )
        return array("q", indptr), array("q", indices), array("d", weights)

    def flat(self, *, reverse: bool = False) -> FlatAdjacency:
        """Python-list mirror for the scalar kernels (cached)."""
        # .tolist() (numpy and array.array alike) yields plain python
        # ints/floats — list(...) would leak numpy scalars into the
        # kernels and the heap, which is both slower and not bit-stable.
        if reverse and self.directed:
            if self._flat_rev is None:
                self._flat_rev = (
                    self.num_vertices,
                    self.rindptr.tolist(),
                    self.rindices.tolist(),
                    self.rweights.tolist(),
                )
            return self._flat_rev
        if self._flat_fwd is None:
            self._flat_fwd = (
                self.num_vertices,
                self.indptr.tolist(),
                self.indices.tolist(),
                self.weights.tolist(),
            )
        return self._flat_fwd

    def tails(self, *, reverse: bool = False):
        """Per-edge tail-vertex array (numpy builds only, cached).

        The CSR triplet implicitly encodes each edge's tail via the
        ``indptr`` ranges; the batched relaxation kernel needs it
        explicit to gather ``dist[tail] + weight`` in one shot.
        """
        assert HAVE_NUMPY
        if reverse and self.directed:
            if self._tails_rev is None:
                self._tails_rev = _np.repeat(
                    _np.arange(self.num_vertices, dtype=_np.int64),
                    _np.diff(self.rindptr),
                )
            return self._tails_rev
        if self._tails_fwd is None:
            self._tails_fwd = _np.repeat(
                _np.arange(self.num_vertices, dtype=_np.int64),
                _np.diff(self.indptr),
            )
        return self._tails_fwd

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return (
            f"CSRGraph({kind}, |V∪P|={self.num_vertices}, "
            f"|E|={self.num_edges}, numpy={HAVE_NUMPY})"
        )


def csr_graph(network: "RoadNetwork") -> CSRGraph:
    """The (memoized) CSR view of ``network``.

    Rebuilt automatically when the network gained vertices or edges
    since the last call.
    """
    cached: CSRGraph | None = getattr(network, "_csr_view", None)
    token = (network.num_vertices, network.num_edges)
    if cached is not None and cached._token == token:
        return cached
    view = CSRGraph(network)
    network._csr_view = view  # type: ignore[attr-defined]
    return view


def flat_adjacency(
    network: "RoadNetwork", *, reverse: bool = False
) -> FlatAdjacency:
    """The python-list CSR mirror every scalar kernel runs on."""
    return csr_graph(network).flat(reverse=reverse)


def batched_min_distances(
    network: "RoadNetwork",
    sources: Iterable[int],
    *,
    reverse: bool = False,
) -> list[float] | None:
    """Vectorized multi-source sweep: per-vertex min distance from any
    source, or ``None`` when numpy is not installed.

    A frontier-driven Bellman–Ford fixpoint over the flat arrays: each
    round gathers ``dist[tail] + weight`` for every edge leaving an
    improved vertex and scatter-minimizes into the heads.  The result
    is **bit-identical** to the scalar Dijkstra labels: with
    non-negative weights both compute, per vertex, the minimum over all
    paths of the left-to-right float sum of edge weights (float ``+``
    is monotone and float ``min`` order-independent), so the fixpoint
    is unique.  Pinned by ``tests/test_contraction.py``.

    This is a *bulk* kernel — it always relaxes to the full fixpoint,
    so it backs build-time paths (landmark tables, eccentricities,
    untruncated multi-source queries), never the radius-truncated
    early-exit searches where the scalar kernel's laziness wins.
    """
    if not HAVE_NUMPY:
        return None
    g = csr_graph(network)
    n = g.num_vertices
    if n == 0:
        return []
    use_rev = reverse and g.directed
    indices = g.rindices if use_rev else g.indices
    weights = g.rweights if use_rev else g.weights
    tails = g.tails(reverse=reverse)
    dist = _np.full(n, _np.inf)
    src = _np.fromiter(sources, dtype=_np.int64)
    dist[src] = 0.0
    frontier = _np.zeros(n, dtype=bool)
    frontier[src] = True
    while frontier.any():
        live = frontier[tails]
        heads = indices[live]
        cand = dist[tails[live]] + weights[live]
        improved = dist.copy()
        _np.minimum.at(improved, heads, cand)
        frontier = improved < dist
        dist = improved
    return dist.tolist()

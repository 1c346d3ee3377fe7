"""Cross-query cache of modified-Dijkstra expansions.

Section 5.3.4's on-the-fly cache is per-run: every query re-expands
its ``(source, position)`` searches from scratch, even when a fleet of
users asks about the same hotspots over the same city all day.
:class:`DistanceCache` promotes those expansions to a bounded,
LRU-evicting cache shared *across* queries, keyed by
``(source, share_key, potential)`` — where
:attr:`~repro.core.spec.PositionSpec.share_key` names the position's
matching model independently of where in a sequence it appears (for
plain categories: the category id), and ``potential`` names the A*
potential the search was built under (see :mod:`repro.core.search`):
``None`` for a field that is 0 on every candidate, whose stream is the
``(distance, vertex)`` order, and otherwise the pair ``(share keys of
positions j … n−1, destination)`` that fixes the position's to-go row
(:meth:`~repro.core.bssr.BSSRSearch._potential_keys`).  The potential
orders the stream and its keys carry the remaining route, so a search
built for one suffix would hand another query's budget the wrong
candidates; a suffix holding a position without a share key (a
predicate) is unshareable.

Exactness rests on the same conditions as the per-run cache, plus one:

* a search's candidate stream is **route-independent** — it emits every
  matching PoI and the consumer enforces PoI distinctness, so one
  stream serves every route of every query;
* a search's candidate stream is **append-only and deterministic** for
  its potential — consumers address it by replay offsets, so it does
  not matter which query (or how many, interleaved) drove the
  expansion forward;
* specs with equal ``share_key`` compile identically under one engine
  (same forest, similarity, PoI index) — the cache belongs to an
  engine and must never be shared across engines serving different
  datasets; :meth:`DistanceCache.lookup` asserts network identity, and
  drops every entry once the network's PoIs changed
  (``RoadNetwork.poi_version``).

Contraction-hierarchy target buckets are *not* cached here: they are
per-network constants memoized once per target set on the hierarchy
(:meth:`repro.graph.contraction.ContractionHierarchy.memo_bucket`), so
the whole budget goes to searches; the cache only counts their traffic.
Under ``use_contraction`` no search is built at all (every position
reads a CH label-row stream), so the cache then stores nothing and only
counts bucket traffic.

Budgets follow the :mod:`repro.store` idiom: entry and byte caps with
LRU eviction.  Recency is the entry order itself (a hit moves its entry
to the back, eviction takes the front) and the byte total is kept
running, so every lookup, admit and eviction is O(1).  Byte accounting
is a documented estimate of a live search's footprint, not an exact
measurement — the point is a stable knob, not forensic accounting.
Hit/miss/eviction counters feed ``engine.perf_stats()`` and the
benchmark's ``core.distcache.*`` metrics.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.search import PoICandidateSearch
from repro.core.spec import PositionSpec
from repro.core.stats import SearchStats
from repro.errors import QueryError
from repro.graph.road_network import RoadNetwork

#: rough, generous per-vertex bytes of a search (the label slot plus
#: the settled flag across |V|, with headroom), used by the footprint
#: estimate below; kept fixed so byte budgets stay stable
_FLAT_CELL_BYTES = 25

#: rough bytes per dict entry / heap tuple / emitted candidate
_DICT_ENTRY_BYTES = 72


@dataclass
class CacheStats:
    """Operation counters (shape mirrors ``repro.store.StoreStats``).

    ``bucket_hits``/``bucket_misses`` are hierarchy bucket memo
    hits/misses seen through this engine
    (:func:`repro.graph.contraction.shared_bucket`): CH target buckets
    live on the hierarchy, never in this cache, but their traffic is
    counted here next to the search side — a warm bucket hit is a
    skipped set of downward sweeps, not a skipped modified Dijkstra,
    and the benchmarks report both.
    """

    hits: int = 0
    misses: int = 0
    admissions: int = 0
    evictions: int = 0
    unshareable: int = 0
    bucket_hits: int = 0
    bucket_misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "admissions": self.admissions,
            "evictions": self.evictions,
            "unshareable": self.unshareable,
            "bucket_hits": self.bucket_hits,
            "bucket_misses": self.bucket_misses,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    search: PoICandidateSearch
    size: int


def _estimate_bytes(search: PoICandidateSearch) -> int:
    """Documented footprint estimate of a live search (see module doc):
    its per-vertex arrays, its heap, one entry per emitted candidate
    for ``dists`` and ``candidates`` and one more for ``keys``.  The
    potential is not counted: it is a row shared by every search of its
    suffix."""
    base = len(search._heap) + 2 * len(search.candidates)
    return len(search._dist) * _FLAT_CELL_BYTES + base * _DICT_ENTRY_BYTES


class DistanceCache:
    """Bounded LRU cache of :class:`PoICandidateSearch` instances,
    shared across queries of one engine.

    A hit hands the *same live instance* to the consumer (after
    re-pointing its stats sink via
    :meth:`PoICandidateSearch.adopt_stats`), so every vertex it ever
    settled stays settled for all future queries.  Interleaved
    consumers are safe: expansion is append-only and each consumer
    replays the stream from its own offset.  Not thread-safe — one
    cache per worker process.
    """

    def __init__(
        self,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise QueryError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise QueryError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        # least recently used first
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._bytes = 0
        self._network: RoadNetwork | None = None
        self._poi_version = 0

    # ------------------------------------------------------------------

    def _key(
        self, source: int, spec: PositionSpec, potential: tuple | None
    ) -> tuple | None:
        if spec.share_key is None or (
            potential is not None and None in potential[0]
        ):
            return None
        return (source, spec.share_key, potential)

    def _bind(self, network: RoadNetwork) -> None:
        if self._network is None:
            self._network = network
            self._poi_version = network.poi_version
        elif self._network is not network:
            raise QueryError(
                "a DistanceCache serves exactly one network; create one "
                "cache per engine/dataset"
            )
        elif self._poi_version != network.poi_version:
            # entries are keyed by category share_key, which names
            # another candidate set after a PoI edit
            self.clear()
            self._poi_version = network.poi_version

    def lookup(
        self,
        network: RoadNetwork,
        source: int,
        spec: PositionSpec,
        potential: tuple | None = None,
        *,
        stats: SearchStats | None = None,
    ) -> PoICandidateSearch | None:
        """The cached search for ``(source, spec)`` under ``potential``
        (see the module docstring), or ``None``.

        A hit refreshes recency and re-points the search's stats sink
        at ``stats`` so subsequent expansion work is charged to the
        consumer that triggers it.
        """
        self._bind(network)
        key = self._key(source, spec, potential)
        if key is None:
            self.stats.unshareable += 1
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        search = entry.search
        search.adopt_stats(stats)
        return search

    def admit(
        self,
        network: RoadNetwork,
        source: int,
        spec: PositionSpec,
        search: PoICandidateSearch,
        potential: tuple | None = None,
    ) -> bool:
        """Offer a freshly built search, built under ``potential``, for
        future queries.

        Returns False (and caches nothing) for unshareable specs or
        potentials, or a search that can never fit the byte budget;
        otherwise evicts least-recently-used entries as needed and
        stores the instance.
        """
        self._bind(network)
        key = self._key(source, spec, potential)
        if key is None:
            return False
        size = _estimate_bytes(search)
        if self.max_bytes is not None and size > self.max_bytes:
            return False
        entries = self._entries
        old = entries.pop(key, None)
        if old is not None:
            self._bytes -= old.size
        entries[key] = _Entry(search=search, size=size)
        self._bytes += size
        self.stats.admissions += 1
        # the size screen above and entry budgets >= 1 mean the newcomer
        # (at the back) always fits alone
        while len(entries) > 1 and (
            (self.max_entries is not None and len(entries) > self.max_entries)
            or (self.max_bytes is not None and self._bytes > self.max_bytes)
        ):
            _, victim = entries.popitem(last=False)
            self._bytes -= victim.size
            self.stats.evictions += 1
        return True

    # ------------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistanceCache({len(self._entries)} entries, "
            f"{self.total_bytes} bytes, hit_rate={self.stats.hit_rate:.2f})"
        )

"""Search statistics collected by every algorithm.

The paper's evaluation (Section 7) reports, beyond response time:
visited-vertex counts (Table 8), the first-search "weight sum" radius
(Table 7), the number of modified-Dijkstra executions (Figure 5),
initial-search metrics (Table 7), and memory (Table 6).  Each query
returns a fully populated :class:`SearchStats` so the experiment
harness never needs to instrument algorithm internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class SearchStats:
    """Counters for one query execution."""

    algorithm: str = ""
    #: wall-clock seconds for the whole query
    elapsed: float = 0.0

    # graph traversal volume
    settled: int = 0
    relaxed: int = 0
    heap_pushes: int = 0

    # modified-Dijkstra bookkeeping (Figure 5)
    mdijkstra_runs: int = 0
    mdijkstra_resumes: int = 0
    cache_hits: int = 0

    # route queue Q_b (Table 8 / Section 5.3.2)
    #: routes built and queued (a cursor entry is not a route)
    routes_enqueued: int = 0
    #: pops that open a route's stream from its start
    routes_expanded: int = 0
    #: pops that read on in a stream an earlier pop of the same route
    #: left: a queued cursor handing out its parent's next child, or a
    #: parent a resume re-queued at its stored offsets
    routes_continued: int = 0
    routes_pruned_on_pop: int = 0
    routes_pruned_on_insert: int = 0
    #: routes parked for a later resume instead of being discarded,
    #: one-shot queries included: pruned on pop, budget-truncated, or
    #: holding the children or completions their prune test cut
    routes_deferred: int = 0
    #: the most entries ``Q_b`` held at once, routes and cursors alike
    max_queue_size: int = 0

    # skyline set
    skyline_updates: int = 0
    skyline_rejects: int = 0
    result_size: int = 0

    # initial search (Table 7)
    init_routes: int = 0
    init_time: float = 0.0
    init_length_ratio: float | None = None
    #: radius (max settled distance) of the *first* modified Dijkstra —
    #: the paper's Table 7 "weight sum" search-space proxy
    first_search_radius: float = 0.0

    # lower bounds (Figure 4)
    bounds_time: float = 0.0
    sum_ls: float = 0.0
    sum_lp: float = 0.0

    # baselines
    osr_calls: int = 0
    super_sequences: int = 0

    # memory (Table 6) — filled only when measured explicitly
    peak_memory_bytes: int = 0

    #: free-form extras (experiment-specific)
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Flat dict for table rendering / JSON export."""
        payload = {
            key: value
            for key, value in self.__dict__.items()
            if key != "extra"
        }
        payload.update(self.extra)
        return payload

    def to_dict(self) -> dict:
        """Lossless dict form: unlike :meth:`as_dict` the free-form
        ``extra`` counters stay in their own key, so :meth:`from_dict`
        can reverse the mapping exactly.  A field at its default (of the
        default's type) is left out, since :meth:`from_dict` starts from
        the defaults."""
        payload = {
            key: value
            for key, value in self.__dict__.items()
            if key != "extra"
            and not (
                type(value) is type(_DEFAULTS[key])
                and value == _DEFAULTS[key]
            )
        }
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SearchStats":
        """Inverse of :meth:`to_dict` (strict about unknown fields)."""
        stats = cls()
        known = set(stats.__dict__)
        for key, value in payload.items():
            if key == "extra":
                stats.extra.update(value)
            elif key in known:
                setattr(stats, key, value)
            else:
                raise ValueError(f"unknown SearchStats field {key!r}")
        return stats

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another query's counters into this one: every
        numeric field sums, except the :data:`_MAX_FIELDS` peaks."""
        for key in _SUMMED_FIELDS:
            setattr(self, key, getattr(self, key) + getattr(other, key))
        for key in _MAX_FIELDS:
            setattr(self, key, max(getattr(self, key), getattr(other, key)))


#: every field's default but ``extra``'s (see :meth:`SearchStats.to_dict`)
_DEFAULTS = {f.name: f.default for f in fields(SearchStats) if f.name != "extra"}

#: peaks: merged by max, never averaged
_MAX_FIELDS = ("max_queue_size", "peak_memory_bytes")

#: every other numeric counter (``init_length_ratio`` is optional and
#: averaged over the queries that have one, see :func:`mean_stats`)
_SUMMED_FIELDS = tuple(
    f.name
    for f in fields(SearchStats)
    if type(f.default) in (int, float) and f.name not in _MAX_FIELDS
)


def mean_stats(all_stats: list[SearchStats]) -> SearchStats:
    """Average a list of per-query stats (used by the harness)."""
    if not all_stats:
        return SearchStats()
    total = SearchStats(algorithm=all_stats[0].algorithm)
    for stats in all_stats:
        total.merge(stats)
    n = len(all_stats)
    for key in _SUMMED_FIELDS:
        setattr(total, key, getattr(total, key) / n)
    ratios = [
        s.init_length_ratio
        for s in all_stats
        if s.init_length_ratio is not None
    ]
    total.init_length_ratio = (
        sum(ratios) / len(ratios) if ratios else None
    )
    return total

"""SearchStats bookkeeping: merge, mean, export."""

from dataclasses import fields

from repro.core.stats import SearchStats, mean_stats


def test_as_dict_flattens_extra():
    stats = SearchStats(algorithm="bssr", settled=5)
    stats.extra["custom"] = 42
    payload = stats.as_dict()
    assert payload["algorithm"] == "bssr"
    assert payload["settled"] == 5
    assert payload["custom"] == 42
    assert "extra" not in payload


def test_merge_sums_and_maxes():
    a = SearchStats(settled=5, elapsed=1.0, max_queue_size=3)
    b = SearchStats(settled=7, elapsed=0.5, max_queue_size=9)
    a.merge(b)
    assert a.settled == 12
    assert a.elapsed == 1.5
    assert a.max_queue_size == 9


def test_mean_stats():
    a = SearchStats(algorithm="x", settled=10, elapsed=2.0)
    b = SearchStats(algorithm="x", settled=20, elapsed=4.0)
    a.init_length_ratio = 0.5
    mean = mean_stats([a, b])
    assert mean.settled == 15
    assert mean.elapsed == 3.0
    assert mean.algorithm == "x"
    assert mean.init_length_ratio == 0.5  # only defined values averaged


def test_mean_stats_empty():
    assert mean_stats([]).settled == 0


def test_mean_stats_no_ratios():
    mean = mean_stats([SearchStats(), SearchStats()])
    assert mean.init_length_ratio is None


def test_every_numeric_field_is_merged_and_averaged():
    # a counter added to SearchStats must never be silently dropped
    peaks = {"max_queue_size", "peak_memory_bytes"}
    other = {"algorithm", "extra", "init_length_ratio"}
    numeric = [f.name for f in fields(SearchStats) if f.name not in other]
    assert peaks <= set(numeric) and len(numeric) > len(peaks)
    a = SearchStats(**{name: 2 for name in numeric}, init_length_ratio=1.0)
    b = SearchStats(**{name: 6 for name in numeric}, init_length_ratio=None)
    merged = SearchStats(**{name: 2 for name in numeric})
    merged.merge(b)
    mean = mean_stats([a, b])
    for name in numeric:
        if name in peaks:
            assert getattr(merged, name) == 6, name
        else:
            assert getattr(merged, name) == 8, name
            assert getattr(mean, name) == 4, name
    assert mean.init_length_ratio == 1.0


def test_to_dict_leaves_defaults_out_and_round_trips():
    default = SearchStats()
    assert default.to_dict() == {}
    assert SearchStats.from_dict(default.to_dict()) == default
    populated = SearchStats(
        algorithm="bssr",
        elapsed=0.25,
        settled=17,
        routes_enqueued=4,
        init_length_ratio=1.5,
        max_queue_size=3,
    )
    populated.extra["k"] = 3
    # a float where an int is the default is not the default
    populated.relaxed = 0.0
    payload = populated.to_dict()
    assert "heap_pushes" not in payload and payload["relaxed"] == 0.0
    restored = SearchStats.from_dict(payload)
    assert restored == populated
    assert type(restored.relaxed) is float

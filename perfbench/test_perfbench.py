"""Tests of the benchmark itself: span arithmetic, answer checks, and
seeded request streams.  Run with ``PYTHONPATH=src python -m pytest
perfbench``."""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import pytest

from repro.datasets.presets import tokyo_like
from perfbench.pace import REFERENCE_PROBE_S, Pacer
from perfbench.run import END_TO_END, per_layer_units
from perfbench.spans import (
    REQUEST,
    LayerTracer,
    SpanRecorder,
    self_time_by_request,
    traced,
    traced_steps,
)
from perfbench.worker import find_failures, tail
from perfbench.workloads import SCALE, WORKLOADS, Fig4Distinct, V1Paging

ROOT = Path(__file__).resolve().parent.parent


def _spans(recorder, layout):
    """Open/close spans per ``layout`` (name, children...), then pin
    their clock readings to the given ``(start, end)`` values."""
    times = []

    def build(node):
        name, start, end, children = node
        index = recorder.open(name)
        times.append((index, start, end))
        for child in children:
            build(child)
        recorder.close(index)

    build(layout)
    for index, start, end in times:
        recorder.start[index] = start
        recorder.end[index] = end


def test_self_times_subtract_direct_children_only():
    recorder = SpanRecorder()
    recorder.request_id = 0
    _spans(recorder, (REQUEST, 0.0, 10.0, [
        ("a", 1.0, 4.0, [("b", 2.0, 3.0, [])]),
        ("c", 5.0, 9.0, []),
    ]))
    assert recorder.self_times() == [3.0, 2.0, 1.0, 4.0]
    totals, gap = self_time_by_request(recorder)
    assert totals == {REQUEST: 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert gap == 0.0


def test_self_times_sum_to_each_request_root():
    recorder = SpanRecorder()
    for request in range(2):
        recorder.request_id = request
        base = 100.0 * request
        _spans(recorder, (REQUEST, base, base + 8.0, [
            ("a", base + 1.0, base + 6.0, [
                ("a", base + 2.0, base + 3.0, []),
                ("b", base + 3.5, base + 5.0, []),
            ]),
        ]))
    own = recorder.self_times()
    for request in range(2):
        spans = [i for i in range(len(own)) if recorder.request[i] == request]
        assert sum(own[i] for i in spans) == pytest.approx(8.0)
    assert self_time_by_request(recorder)[1] == pytest.approx(0.0, abs=1e-9)


def test_generator_steps_are_spans_and_abandoned_streams_close():
    recorder = SpanRecorder()
    closed = []

    def numbers():
        try:
            yield from range(5)
        finally:
            closed.append(True)

    stepped = traced_steps(recorder, "step", numbers)
    outer = traced(recorder, "outer", lambda: list(islice(stepped(), 2)))
    assert outer() == [0, 1]
    assert recorder.names == ["outer", "step"]
    assert len(recorder) == 3  # outer + two steps
    assert list(recorder.parent) == [-1, 0, 0]
    assert closed == [True]
    assert recorder._stack == []


def test_tracer_removes_every_patch():
    from repro.core import bssr
    from repro.core.search import PoICandidateSearch

    originals = (bssr.nninit, PoICandidateSearch.__dict__["scored_until"])
    tracer = LayerTracer(SpanRecorder()).install()
    assert bssr.nninit is not originals[0]
    tracer.remove()
    assert (bssr.nninit, PoICandidateSearch.__dict__["scored_until"]) == originals


def test_pacer_scales_by_the_median_of_the_nearest_probes():
    pacer = Pacer()
    pacer.times = [float(t) for t in range(40)]
    pacer.durations = [REFERENCE_PROBE_S] * 20 + [2 * REFERENCE_PROBE_S] * 20
    assert pacer.scale(5.5) == 1.0
    assert pacer.scale(35.5) == 0.5
    assert pacer.scale(100.0) == 0.5  # after the last probe: the last window


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(100)]
    assert tail(samples, 90) == (pytest.approx(89.1), 90)
    assert tail(samples, 95) == (pytest.approx(89.1), 90)  # 5 beyond p95
    assert tail([3.0, 1.0, 2.0], 90) == (3.0, 100)


# -- answer checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def small():
    return tokyo_like(0.05)


def _run(workload, served, requests):
    return [workload.call(served, r) for r in requests]


def test_planted_duplicate_route_fails_a_query(small):
    workload = Fig4Distinct()
    served = workload._serve(small, {})
    requests = list(islice(workload.requests(small, seed=3), 4))
    answers = _run(workload, served, requests)
    assert find_failures(workload, served, requests, answers, {},
                         reference=True) == {}
    planted = list(answers)
    planted[1] = answers[1] + answers[1][:1]
    failures = find_failures(workload, served, requests, planted, {},
                             reference=False)
    assert list(failures) == [1]


@pytest.fixture(scope="module")
def paged(small):
    """A v1 call stream on a small city with one fully paged session."""
    workload = V1Paging()
    served = workload._serve(small, {})
    requests = list(islice(workload.requests(small, seed=3), 40))
    answers = _run(workload, served, requests)
    pages = workload._pages(requests, answers)
    full = next(
        indices for indices in pages.values()
        if all(len(answers[i][0]) == workload.page_size for i in indices)
        and len(indices) == workload.pages
    )
    return workload, served, requests, answers, full


def _failed(paged, plant, *, reference=True):
    """Failures after ``plant(answers, page_indices)`` edits a copy."""
    workload, served, requests, answers, full = paged
    planted = list(answers)
    plant(planted, full)
    return find_failures(workload, served, requests, planted, {},
                         reference=reference)


def _page(paged, number):
    """Request index of the fully paged session's page ``number``."""
    return paged[4][number]


def test_untouched_pages_pass(paged):
    assert _failed(paged, lambda answers, full: None) == {}


def test_planted_duplicate_page_route_fails(paged):
    def plant(answers, full):
        first, second = answers[full[0]], answers[full[1]]
        answers[full[1]] = (first[0][:1] + second[0][1:], second[1])

    assert _page(paged, 1) in _failed(paged, plant, reference=False)


def test_planted_wrong_route_length_fails(paged):
    def plant(answers, full):
        routes, exhausted = answers[full[2]]
        pois, length, fit = routes[0]
        answers[full[2]] = (((pois, length + 0.5, fit),) + routes[1:],
                            exhausted)

    assert _page(paged, 2) in _failed(paged, plant)


def test_planted_dropped_page_route_fails(paged):
    def plant(answers, full):
        routes, exhausted = answers[full[0]]
        answers[full[0]] = (routes[:-1], exhausted)

    assert _page(paged, 0) in _failed(paged, plant, reference=False)


def test_failed_calls_count_as_failures(paged):
    workload, served, requests, answers, _ = paged
    errors = {0: "RuntimeError: create answered 500"}
    failures = find_failures(workload, served, requests, answers, errors,
                             reference=False)
    assert list(failures) == [0]


# -- seeded request streams ------------------------------------------------


@pytest.fixture(scope="module")
def city():
    return tokyo_like(SCALE)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_always_yields_the_same_request_stream(city, name):
    workload = WORKLOADS[name]
    first = list(islice(workload.requests(city, 5), 300))
    again = list(islice(workload.requests(city, 5), 300))
    other = list(islice(workload.requests(city, 6), 300))
    assert first == again
    assert first != other


def test_hot_stream_is_skewed_but_repeats():
    draws = list(islice(WORKLOADS["hot_city_ch"].requests(
        tokyo_like(SCALE), 1), 400))
    assert 100 < len(set(draws)) < 300


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()

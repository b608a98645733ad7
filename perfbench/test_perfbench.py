"""Self-tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import traced_serve  # noqa: E402
import workloads  # noqa: E402
from loadgen import Outcome, Request, poisson_times  # noqa: E402
from rules import (  # noqa: E402
    Rung,
    backlog_growing,
    is_supported,
    max_rate,
    percentile,
    required_samples,
    self_time,
    supported_percentile,
)
from spans import Span, Tracer, effective_children  # noqa: E402


# -- percentile rule ---------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert required_samples(99) == 1000
    assert required_samples(90) == 100
    assert required_samples(50) == 20
    with pytest.raises(ValueError, match="needs >= 10"):
        supported_percentile(list(range(999)), 99)
    assert supported_percentile(list(range(1000)), 99) == 989
    assert supported_percentile([float(v) for v in range(100)], 90) == 89.0
    assert is_supported(1000, 99) and not is_supported(999, 99)
    assert is_supported(100, 90) and not is_supported(99, 90)


def test_percentile_is_nearest_rank_on_measured_values():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0
    assert percentile([7.5], 99) == 7.5


# -- schedules ---------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    from repro.data.synthetic import generate_corpus

    return generate_corpus(workloads.CATEGORY, workloads.SCALE, seed=5)


def _wire(plan):
    return [(r.at, r.kind, r.path, r.body) for r in plan.warmup + plan.schedule]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_schedule_is_a_function_of_the_seed(corpus, name):
    workload = workloads.WORKLOADS[name]
    first = workloads.plan(workload, corpus, 3, 20.0)
    assert _wire(first) == _wire(workloads.plan(workload, corpus, 3, 20.0))
    assert _wire(first) != _wire(workloads.plan(workload, corpus, 4, 20.0))


def test_schedule_has_fixed_counts(corpus):
    workload = workloads.WORKLOADS["ingest_mix"]
    mix = workloads.plan(workload, corpus, 1, 40.0)
    kinds = [r.kind for r in mix.schedule]
    assert kinds.count("read") == round(workload.read_rate * 40)
    assert kinds.count("write") == round(workload.write_rate * 40)
    assert all(0.0 <= r.at < 40.0 for r in mix.schedule)


@pytest.mark.parametrize("name", ["hot_read", "cluster_read"])
def test_hot_read_streams_send_only_warmed_reads(corpus, name):
    workload = workloads.WORKLOADS[name]
    hot = workloads.plan(workload, corpus, 1, 45.0)
    assert [r.kind for r in hot.schedule] == ["read"] * round(workload.read_rate * 45.0)
    assert all(0.0 <= r.at < 45.0 for r in hot.schedule)
    assert {r.key for r in hot.schedule} <= {r.key for r in hot.warmup}
    assert len({r.key for r in hot.warmup}) == workloads.HOT_KEYS


def test_hot_targets_stay_out_of_each_others_instances(corpus):
    members = workloads.instances(corpus)
    targets = workloads.hot_targets(random.Random(4), members)
    assert len(targets) == workloads.HOT_TARGETS
    for target in targets:
        assert not (members[target] - {target}) & set(targets)


def test_delta_review_ids_are_unique(corpus):
    plan = workloads.plan(workloads.WORKLOADS["ingest_mix"], corpus, 2, 30.0)
    ids = [
        review["review_id"]
        for r in plan.schedule if r.kind == "write"
        for review in r.body["reviews"]
    ]
    assert len(ids) == len(set(ids))
    assert not set(ids) & {review.review_id for review in corpus.reviews}


def test_poisson_times_are_sorted_and_in_range():
    times = poisson_times(random.Random(9), 500, 10.0)
    assert len(times) == 500
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < 10.0


# -- self-time arithmetic ----------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # Overlapping (concurrent) children are removed once.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0)]) == 6.0
    # A child spilling past the parent only counts inside it.
    assert self_time(0.0, 10.0, [(8.0, 12.0), (-2.0, 1.0)]) == 7.0
    assert self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0


def _span(name, start, end, span_id, parent=0, rid=None, **attrs):
    return Span(name, start, end, span_id, parent, rid, attrs, pid=1)


def test_cache_miss_spans_are_transparent():
    engine = _span("engine.select", 0.0, 10.0, 1)
    miss = _span("cache.get_or_compute", 1.0, 9.0, 2, 1, source="miss")
    solve = _span("solver.select", 2.0, 8.0, 3, 2)
    hit = _span("cache.get_or_compute", 9.0, 9.5, 4, 1, source="hit")
    engine.children = [miss, hit]
    miss.children = [solve]
    assert effective_children(engine) == [solve, hit]
    # The pool queue and glue around the solve stay with the engine.
    children = [(c.start, c.end) for c in effective_children(engine)]
    assert self_time(engine.start, engine.end, children) == pytest.approx(3.5)


def test_span_attrs_are_computed_outside_the_span():
    class Owner:
        def work(self):
            return "done"

    def slow_attrs(args, result, error, seen):
        time.sleep(0.05)
        return {"seen": seen, "result": result}

    tracer = Tracer()
    traced_serve._wrap(tracer, Owner, "work", "owner.work",
                       before=lambda args: 7, attrs=slow_attrs)
    assert Owner().work() == "done"
    [(name, start, end, _, _, _, attrs)] = tracer.spans
    assert name == "owner.work"
    assert end - start < 0.025
    assert attrs == {"seen": 7, "result": "done"}


def test_layer_metrics_from_spans():
    request = Request(0.0, "read", "/v1/select", {})
    outcome = Outcome(request, "m-0", due=100.0, sent=100.0, done=100.050,
                      latency_ms=50.0, status=200,
                      body=b'{"provenance": {"cache": "hit"}, "result": {}}')
    post = _span("http.post", 100.001, 100.005, 1, rid="m-0")
    engine = _span("engine.select", 100.002, 100.004, 2, 1)
    post.children = [engine]
    values, counts = layers.compute([post, engine], [outcome], overhead=(50.0, 40.0))
    assert set(values) == set(layers.UNITS)
    assert values["transport.ms.p50"] == pytest.approx(46.0)
    assert values["http.handler_self_ms.p50"] == pytest.approx(2.0)
    assert values["engine.self_ms.p50"] == pytest.approx(2.0)
    assert values["trace.overhead_ratio"] == pytest.approx(0.25)
    assert values["trace.unattributed_ratio"] == 0.0
    assert values["gateway.self_ms.p50"] == 0.0 and counts["gateway.self_ms.p50"] == 0


def test_gateway_self_and_frame_time():
    request = Request(0.0, "read", "/v1/select", {})
    outcome = Outcome(request, "m-0", due=0.0, sent=0.0, done=0.010,
                      latency_ms=10.0, status=200,
                      body=b'{"provenance": {"cache": "hit"}, "result": {}}')
    dispatch = _span("gateway.dispatch", 0.001, 0.009, 1, rid="m-0")
    shard = _span("gateway.shard_request", 0.002, 0.008, 2, 1, rid="m-0",
                  shard_wall_ms=4.0)
    values, _ = layers.compute([dispatch, shard], [outcome], overhead=(10.0, 10.0))
    assert values["gateway.self_ms.p50"] == pytest.approx(4.0)
    assert values["gateway.frame_ms.p50"] == pytest.approx(2.0)
    assert values["transport.ms.p50"] == pytest.approx(2.0)


# -- ladder and latency limit ------------------------------------------------

def test_max_rate_is_the_highest_rung_meeting_every_condition():
    rungs = [
        Rung(10.0, read_p99_ms=4.0, error_ratio=0.0, backlog_growing=False),
        Rung(20.0, read_p99_ms=9.9, error_ratio=0.01, backlog_growing=False),
        Rung(40.0, read_p99_ms=12.0, error_ratio=0.0, backlog_growing=False),
        Rung(80.0, read_p99_ms=5.0, error_ratio=0.0, backlog_growing=True),
    ]
    assert max_rate(rungs, limit_ms=10.0) == 20.0
    assert max_rate(rungs, limit_ms=20.0) == 40.0
    errors = [Rung(10.0, 1.0, 0.011, False)]
    assert max_rate(errors, limit_ms=10.0) is None


def test_a_rung_without_a_supported_p99_does_not_meet_the_limit():
    rungs = [
        Rung(8.0, read_p99_ms=None, error_ratio=0.0, backlog_growing=False),
        Rung(16.0, read_p99_ms=4.0, error_ratio=0.0, backlog_growing=False),
    ]
    assert max_rate(rungs, limit_ms=10.0) == 16.0
    assert max_rate(rungs[:1], limit_ms=10.0) is None


def test_max_rate_records_none_when_no_rung_meets_the_limit():
    stalled = [Rung(rate, read_p99_ms=44.0, error_ratio=0.0, backlog_growing=False)
               for rate in (10.0, 20.0, 30.0)]
    assert max_rate(stalled, limit_ms=10.0) is None


def test_backlog_growth_compares_first_and_last_quarter():
    steady = [1.0, 0.0, 2.0, 1.0] * 25
    assert not backlog_growing(steady, limit_ms=10.0)
    growing = [float(i) for i in range(100)]
    assert backlog_growing(growing, limit_ms=10.0)

"""Per-layer metrics of a traced run, from its spans and the client's timings.

The table of metrics, what each is computed from, and which end-to-end
metric it should move is in ``perfbench/README.md``.  A layer the
workload never reaches reports 0 (for example ``wal.*`` on a server
without ``--state-dir``).
"""

from __future__ import annotations

import statistics

from loadgen import Outcome
from rules import covered, percentile, self_time
from spans import Span, effective_children

STAGES = ("dedup", "gram", "screen", "pursuit", "round", "evaluate")

#: name -> unit, in report order.  ``BENCHMARK.json``'s ``per_layer`` list
#: holds exactly these.
UNITS: dict[str, str] = {
    "transport.ms.p50": "ms",
    "transport.ms.p99": "ms",
    "http.handler_self_ms.p50": "ms",
    "http.encode_ms.p50": "ms",
    "admission.admit_ms.p50": "ms",
    "admission.shed": "count",
    "admission.inflight_max": "count",
    "cache.lookup_ms.p50": "ms",
    "cache.hit_ratio": "ratio",
    "cache.coalesced": "count",
    "cache.invalidated": "count",
    "engine.self_ms.p50": "ms",
    "engine.self_ms.p99": "ms",
    "store.artifacts_ms.p50": "ms",
    "store.artifacts_ms.p99": "ms",
    "store.artifact_builds": "count",
    "store.apply_delta_ms.p50": "ms",
    "store.apply_delta_ms.p99": "ms",
    "store.patched": "count",
    "store.rebuilt": "count",
    "wal.append_ms.p50": "ms",
    "wal.append_ms.p99": "ms",
    "wal.bytes": "B",
    "snapshot.save_ms": "ms",
    "snapshot.saves": "count",
    "solver.select_ms.p50": "ms",
    "solver.select_ms.p99": "ms",
    **{f"solver.stage.{stage}_ms": "ms" for stage in STAGES},
    "graph.narrow_ms.p50": "ms",
    "graph.narrow_ms.p99": "ms",
    "graph.fallback_depth": "count",
    "gateway.self_ms.p50": "ms",
    "gateway.self_ms.p99": "ms",
    "gateway.frame_ms.p50": "ms",
    "loadgen.late_ms.p99": "ms",
    "loadgen.conn_wait_ms.p50": "ms",
    "trace.unattributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

HANDLERS = ("http.post", "gateway.dispatch")


def _pct(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _named(spans: list[Span], *names: str) -> list[Span]:
    return [span for span in spans if span.name in names]


def round_trip_ms(outcome: Outcome) -> float:
    """Client time from the moment a connection was free to the last byte."""
    return (outcome.done - outcome.sent) * 1e3


def compute(
    spans: list[Span], outcomes: list[Outcome], overhead: tuple[float, float]
) -> tuple[dict[str, float], dict[str, int]]:
    """``(metrics, sample counts)`` for one traced run's measured window.

    ``overhead`` is the read p50 of the same stretch of the schedule with
    tracing on and off.
    """
    values: dict[str, float] = {}
    counts: dict[str, int] = {}

    def put(name: str, samples: list[float], how) -> None:
        counts[name] = len(samples)
        values[name] = how(samples)

    by_rid = {o.rid: o for o in outcomes if o.error is None}
    handler_of: dict[str, Span] = {}
    for span in _named(spans, *HANDLERS):
        if span.rid in by_rid:
            handler_of.setdefault(span.rid, span)

    transport = [round_trip_ms(by_rid[rid]) - h.ms for rid, h in handler_of.items()]
    put("transport.ms.p50", transport, lambda v: _pct(v, 50))
    put("transport.ms.p99", transport, lambda v: _pct(v, 99))

    posts = _named(spans, "http.post")
    handler_self = [
        self_time(s.start, s.end, [
            (c.start, c.end) for c in effective_children(s) if c.name.startswith("engine.")
        ]) * 1e3
        for s in posts
    ]
    put("http.handler_self_ms.p50", handler_self, lambda v: _pct(v, 50))
    put("http.encode_ms.p50", [s.ms for s in _named(spans, "http.encode")],
        lambda v: _pct(v, 50))

    admits = _named(spans, "admission.admit")
    put("admission.admit_ms.p50", [s.ms for s in admits], lambda v: _pct(v, 50))
    put("admission.shed", [s.attrs.get("shed", 0) for s in admits], sum)
    put("admission.inflight_max", [s.attrs.get("inflight", 0) for s in admits],
        lambda v: max(v, default=0))

    lookups = _named(spans, "cache.get_or_compute")
    sources = [s.attrs.get("source") for s in lookups]
    put("cache.lookup_ms.p50", [s.ms for s in lookups if s.attrs.get("source") == "hit"],
        lambda v: _pct(v, 50))
    put("cache.hit_ratio", sources,
        lambda v: sum(x in ("hit", "coalesced") for x in v) / len(v) if v else 0.0)
    put("cache.coalesced", [x == "coalesced" for x in sources], sum)
    put("cache.invalidated",
        [s.attrs.get("evicted", 0) for s in _named(spans, "cache.invalidate")], sum)

    engine_self = [
        self_time(s.start, s.end, [(c.start, c.end) for c in effective_children(s)]) * 1e3
        for s in _named(spans, "engine.select", "engine.narrow", "engine.ingest")
    ]
    put("engine.self_ms.p50", engine_self, lambda v: _pct(v, 50))
    put("engine.self_ms.p99", engine_self, lambda v: _pct(v, 99))

    artifacts = [s.ms for s in _named(spans, "store.artifacts")]
    put("store.artifacts_ms.p50", artifacts, lambda v: _pct(v, 50))
    put("store.artifacts_ms.p99", artifacts, lambda v: _pct(v, 99))
    put("store.artifact_builds", _named(spans, "store.build"), len)
    deltas = _named(spans, "store.apply_delta")
    put("store.apply_delta_ms.p50", [s.ms for s in deltas], lambda v: _pct(v, 50))
    put("store.apply_delta_ms.p99", [s.ms for s in deltas], lambda v: _pct(v, 99))
    put("store.patched", [s.attrs.get("patched", 0) for s in deltas], sum)
    put("store.rebuilt", [s.attrs.get("rebuilt", 0) for s in deltas], sum)

    appends = _named(spans, "wal.append")
    put("wal.append_ms.p50", [s.ms for s in appends], lambda v: _pct(v, 50))
    put("wal.append_ms.p99", [s.ms for s in appends], lambda v: _pct(v, 99))
    put("wal.bytes", [s.attrs.get("bytes", 0) for s in appends], sum)
    saves = _named(spans, "snapshot.save")
    put("snapshot.save_ms", [s.ms for s in saves], lambda v: _pct(v, 50))
    put("snapshot.saves", saves, len)

    solver_ids = {s.id for s in _named(spans, "solver.select")}
    solves = [s.ms for s in _named(spans, "solver.select") if s.parent not in solver_ids]
    put("solver.select_ms.p50", solves, lambda v: _pct(v, 50))
    put("solver.select_ms.p99", solves, lambda v: _pct(v, 99))
    fresh = [
        o.json()["provenance"] for o in outcomes
        if o.request.kind == "read" and o.ok
    ]
    fresh = [p.get("stage_ms") or {} for p in fresh if p.get("cache") == "miss"]
    for stage in STAGES:
        put(f"solver.stage.{stage}_ms", [p.get(stage, 0.0) for p in fresh], _mean)

    narrows = _named(spans, "graph.narrow")
    put("graph.narrow_ms.p50", [s.ms for s in narrows], lambda v: _pct(v, 50))
    put("graph.narrow_ms.p99", [s.ms for s in narrows], lambda v: _pct(v, 99))
    put("graph.fallback_depth", [s.attrs.get("depth", 0) for s in narrows], _mean)

    shard_calls: dict[str, list[Span]] = {}
    for span in _named(spans, "gateway.shard_request"):
        shard_calls.setdefault(span.rid, []).append(span)
    gateway_self = [
        round_trip_ms(by_rid[rid])
        - covered(h.start, h.end, [(c.start, c.end) for c in shard_calls.get(rid, [])]) * 1e3
        for rid, h in handler_of.items()
        if h.name == "gateway.dispatch"
    ]
    put("gateway.self_ms.p50", gateway_self, lambda v: _pct(v, 50))
    put("gateway.self_ms.p99", gateway_self, lambda v: _pct(v, 99))
    frames = [
        s.ms - s.attrs["shard_wall_ms"]
        for calls in shard_calls.values() for s in calls if "shard_wall_ms" in s.attrs
    ]
    put("gateway.frame_ms.p50", frames, lambda v: _pct(v, 50))

    put("loadgen.late_ms.p99", [o.late_ms for o in outcomes], lambda v: _pct(v, 99))
    put("loadgen.conn_wait_ms.p50", [o.conn_wait_ms for o in outcomes],
        lambda v: _pct(v, 50))

    total = sum(o.latency_ms for o in outcomes)
    unmatched = sum(o.latency_ms for o in outcomes if o.rid not in handler_of)
    counts["trace.unattributed_ratio"] = len(outcomes) - len(handler_of)
    values["trace.unattributed_ratio"] = unmatched / total if total else 0.0
    traced_p50, untraced_p50 = overhead
    counts["trace.overhead_ratio"] = len(outcomes)
    values["trace.overhead_ratio"] = traced_p50 / untraced_p50 - 1.0
    return {name: values[name] for name in UNITS}, counts

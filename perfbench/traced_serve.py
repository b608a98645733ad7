"""Run ``repro-cli`` with spans around the public methods of each layer.

Usage: ``python3 perfbench/traced_serve.py SPANS_DIR serve --corpus ...``

The wrappers are installed before the CLI starts, so the shard workers a
cluster forks inherit them.  Each process writes ``SPANS_DIR/spans-<pid>.json``
when it stops: the CLI process after ``main`` returns, a shard worker when
its serve loop ends.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import asyncio
import functools
import os
import sys
import time

from loadgen import RID_HEADER
from spans import Tracer


def _wrap(tracer: Tracer, owner, attr: str, name: str, *, rid=None, attrs=None,
          before=None):
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``rid(args)`` extracts the request id the client sent.  ``before(args)``
    is read just before the call, and ``attrs(args, result, error, seen)``
    returns extra fields for the span, given what ``before`` read.  Both
    run outside the span's interval.
    """
    original = getattr(owner, attr)

    def close(opened, args, seen, result, error):
        stop = time.perf_counter()
        extra = attrs(args, result, error, seen) if attrs else {}
        if error is not None:
            extra["error"] = type(error).__name__
        tracer.end(name, opened, stop, extra)

    if asyncio.iscoroutinefunction(original):

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            seen = before(args) if before else None
            opened = tracer.begin(rid(args) if rid else None)
            try:
                result = await original(*args, **kwargs)
            except BaseException as exc:
                close(opened, args, seen, None, exc)
                raise
            close(opened, args, seen, result, None)
            return result

    else:

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            seen = before(args) if before else None
            opened = tracer.begin(rid(args) if rid else None)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                close(opened, args, seen, None, exc)
                raise
            close(opened, args, seen, result, None)
            return result

    setattr(owner, attr, wrapper)


def _shard_wall_ms(args, reply, error, seen):
    if not isinstance(reply, dict):
        return {}
    payload = reply.get("payload")
    provenance = payload.get("provenance") if isinstance(payload, dict) else None
    if isinstance(provenance, dict) and "wall_ms" in provenance:
        return {"shard_wall_ms": provenance["wall_ms"]}
    return {}


def install(tracer: Tracer, spans_dir: str) -> None:
    from repro.core.compare_sets import CompareSetsSelector
    from repro.core.compare_sets_plus import CompareSetsPlusSelector
    from repro.resilience.fallback import FallbackChain
    from repro.serve import http
    from repro.serve.admission import AdmissionController
    from repro.serve.cache import ResultCache
    from repro.serve.cluster import controller
    from repro.serve.cluster.gateway import ClusterGateway, ShardClient
    from repro.serve.engine import SelectionEngine
    from repro.serve.snapshot import SnapshotManager
    from repro.serve.store import ItemStore
    from repro.serve.wal import WriteAheadLog

    Tracer.propagate_into_threads()
    wrap = functools.partial(_wrap, tracer)

    wrap(http.ServeHandler, "do_POST", "http.post",
         rid=lambda args: args[0].headers.get(RID_HEADER))
    wrap(http, "encode_json", "http.encode")

    def admitted(args, result, error, seen):
        if error is not None:
            return {"shed": 1}
        return {"inflight": args[0]._inflight}

    wrap(AdmissionController, "admit", "admission.admit", attrs=admitted)
    wrap(ResultCache, "get_or_compute", "cache.get_or_compute",
         attrs=lambda args, result, error, seen: {
             "source": result[1] if result else "error"
         })
    wrap(ResultCache, "invalidate_tags", "cache.invalidate",
         attrs=lambda args, result, error, seen: {"evicted": result or 0})
    for method in ("select", "narrow"):
        wrap(SelectionEngine, method, f"engine.{method}")
    wrap(SelectionEngine, "ingest_reviews", "engine.ingest")
    wrap(ItemStore, "artifacts", "store.artifacts")
    wrap(ItemStore, "_build_artifacts", "store.build")
    wrap(ItemStore, "apply_delta", "store.apply_delta",
         attrs=lambda args, result, error, seen: (
             {"patched": result.patched, "rebuilt": result.rebuilt} if result else {}
         ))

    # The bytes append() added to the log.  Appends and compaction of one
    # log are serialised (the engine's ingest lock; the gateway's event
    # loop), so the change is this record's.
    wrap(WriteAheadLog, "append", "wal.append",
         before=lambda args: args[0]._valid_bytes,
         attrs=lambda args, result, error, seen: (
             {"bytes": args[0]._valid_bytes - seen} if error is None else {}
         ))
    wrap(SnapshotManager, "save", "snapshot.save")
    wrap(CompareSetsSelector, "select", "solver.select")
    wrap(CompareSetsPlusSelector, "select", "solver.select")
    wrap(FallbackChain, "solve", "graph.narrow",
         attrs=lambda args, result, error, seen: (
             {"depth": len(result.attempts) - 1} if result else {}
         ))
    wrap(ClusterGateway, "_dispatch", "gateway.dispatch",
         rid=lambda args: args[3].get(RID_HEADER.lower()))
    wrap(ShardClient, "request", "gateway.shard_request", attrs=_shard_wall_ms)

    # Forked shard workers start with an empty span list and write their
    # own file when their serve loop returns.
    os.register_at_fork(after_in_child=tracer.reset)
    shard_main = controller.shard_child_main

    @functools.wraps(shard_main)
    def traced_shard_main(*args, **kwargs):
        try:
            return shard_main(*args, **kwargs)
        finally:
            tracer.dump(spans_dir)

    controller.shard_child_main = traced_shard_main


def main(argv: list[str]) -> int:
    spans_dir, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer, spans_dir)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

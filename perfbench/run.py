"""The repository benchmark: real ``repro-cli serve`` processes under open-loop HTTP load.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest_mix --seed 1 --seconds 50 --trace 0

One run generates the workload's corpus from ``--seed``, launches the
server three times to time set-up (the last launch serves the run),
sends the seeded open-loop schedule for ``--seconds`` seconds over at
most ``nproc`` (capped at 2) keep-alive connections, stops the server,
and byte-checks a sample of answers against an in-process engine.  It
prints a readable report, then, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sends the
first third of the schedule untraced, then the whole schedule through
``traced_serve.py``, and reports the per-layer metrics (``layers.py``)
of the traced pass.
``--ladder`` replaces the run by the workload's ladder of offered rates
and reports ``max_rate_rps``.  Workloads, metrics and findings are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import envstamp
import layers
import loadgen
import spans
import verify
import workloads
from rules import (
    Rung,
    backlog_growing,
    is_supported,
    max_rate,
    percentile,
    required_samples,
    rung_passes,
    supported_percentile,
)

# The in-process checker solves too; it must use the servers' BLAS threads.
os.environ.update(envstamp.THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 3
START_TIMEOUT = 90.0
STOP_TIMEOUT = 30.0

#: name -> unit.  BENCHMARK.json's end_to_end list holds exactly these.
END_TO_END = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: (name, request kind, percentile) of the latencies printed with every
#: run but not bounded: across runs they spread more than a bound of 0.25
#: can hold (see README.md).  A workload without writes prints no write
#: latency.
PRINTED = (
    ("read_p99_ms", "read", 99.0),
    ("write_p50_ms", "write", 50.0),
    ("write_p90_ms", "write", 90.0),
)


def log(message: str) -> None:
    print(message, flush=True)


@dataclass
class Server:
    """One ``repro-cli serve`` process tree, started in its own session."""

    process: subprocess.Popen
    host: str
    port: int

    @classmethod
    def start(cls, cli_args: list[str], workdir: Path, spans_dir: Path | None) -> "Server":
        env = {
            **os.environ,
            **envstamp.THREAD_ENV,
            "PYTHONPATH": str(ROOT / "src"),
            "TMPDIR": str(workdir),
        }
        if spans_dir is None:
            argv = [sys.executable, "-m", "repro.cli", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "traced_serve.py"), str(spans_dir), *cli_args]
        out_path = workdir / f"server-{time.monotonic_ns()}.log"
        with open(out_path, "w") as out:
            process = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                start_new_session=True,
            )
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            for line in out_path.read_text().splitlines():
                if line.startswith("serving on http://"):
                    host, port = line.split("//", 1)[1].rsplit(":", 1)
                    server = cls(process, host, int(port))
                    try:
                        server._await_healthy(deadline)
                    except BaseException:
                        server.stop()
                        raise
                    return server
            if process.poll() is not None:
                break
            time.sleep(0.01)
        _kill_group(process)
        raise RuntimeError(
            f"server did not start: {' '.join(cli_args)}\n{out_path.read_text()[-2000:]}"
        )

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def _await_healthy(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never reported healthy")

    def corpus_versions(self) -> set[str]:
        """The served generation(s): one, or one per shard in cluster mode."""
        _, health = self.get("/healthz")
        if "shards" in health:
            return {s["corpus_version"] for s in health["shards"].values()}
        return {health["corpus_version"]}

    def pids(self) -> list[int]:
        """The server process and every descendant (shard workers)."""
        found, queue = [], [self.process.pid]
        while queue:
            pid = queue.pop()
            found.append(pid)
            try:
                for task in Path(f"/proc/{pid}/task").iterdir():
                    queue += [int(c) for c in (task / "children").read_text().split()]
            except OSError:
                continue
        return found

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` (peak resident set) over the process tree."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole tree is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        _kill_group(self.process)


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    # Shard workers share the session; wait until none is left.
    deadline = time.monotonic() + STOP_TIMEOUT
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def connections() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def launch(workload, corpus_path: Path, workdir: Path, index: int,
           warmup, spans_dir: Path | None = None) -> tuple[Server, float]:
    """Start a server and warm it; returns it with the set-up seconds."""
    state_dir = workdir / f"state-{index}"
    began = time.perf_counter()
    server = Server.start(workload.serve_args(str(corpus_path), str(state_dir)),
                          workdir, spans_dir)
    try:
        warm = loadgen.closed_loop(server.host, server.port, warmup,
                                   connections=connections(), tag=f"warm{index}")
        failed = [o for o in warm if not o.ok]
        if failed:
            raise RuntimeError(
                f"warm-up failed: {failed[0].status} {failed[0].error} {failed[0].body[:300]!r}"
            )
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - began


@dataclass
class Pass:
    """One measured schedule against one server."""

    outcomes: list[loadgen.Outcome]
    verdict: verify.Verdict
    rss_mb: float
    window: tuple[float, float]
    steal_share: float | None  # hypervisor steal over the measured schedule


def measure(corpus, plan: workloads.Plan, seed: int, server: Server, tag: str) -> Pass:
    try:
        initial = server.corpus_versions()
        before = envstamp.cpu_ticks()
        outcomes = loadgen.drive(server.host, server.port, plan.schedule,
                                 connections=connections(), tag=tag)
        after = envstamp.cpu_ticks()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    window = (min(o.due for o in outcomes), max(o.done for o in outcomes))
    verdict = verify.check(corpus, outcomes, initial, seed)
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    return Pass(outcomes, verdict, rss, window, steal)


def latencies(outcomes, kind: str) -> list[float]:
    return [o.latency_ms for o in outcomes if o.request.kind == kind]


def failures(one: Pass) -> int:
    wrong = set(one.verdict.wrong)
    return sum(1 for o in one.outcomes if not o.ok or o.rid in wrong)


def end_to_end(one: Pass, setups: list[float]) -> tuple[dict, dict]:
    reads = latencies(one.outcomes, "read")
    values = {
        "setup_s": statistics.median(setups),
        "read_p50_ms": supported_percentile(reads, 50),
        "peak_rss_mb": one.rss_mb,
    }
    counts = {"setup_s": len(setups), "read_p50_ms": len(reads), "peak_rss_mb": 1}
    return values, counts


def report(values: dict, counts: dict, units: dict) -> None:
    for metric, unit in units.items():
        log(f"  {metric:28s} {values[metric]:14.4f} {unit:6s} (n={counts[metric]})")


def report_printed(one: Pass) -> None:
    """The :data:`PRINTED` latencies, each with its sample count; one with
    fewer than 10 samples beyond it is marked as unsupported."""
    for name, kind, q in PRINTED:
        samples = latencies(one.outcomes, kind)
        if not samples:
            continue
        note = "" if is_supported(len(samples), q) else (
            f", unsupported: p{q:g} needs {required_samples(q)}"
        )
        log(f"  {name:28s} {percentile(samples, q):14.4f} ms     (n={len(samples)}{note})")


def run_ladder(workload, corpus, corpus_path, workdir, seed, seconds) -> None:
    rungs = []
    for index, rate in enumerate(workload.ladder):
        plan = workloads.plan(workload, corpus, seed, seconds, read_rate=rate)
        server, _ = launch(workload, corpus_path, workdir, index, plan.warmup)
        one = measure(corpus, plan, seed, server, f"r{index}")
        reads = [o for o in one.outcomes if o.request.kind == "read"]
        read_ms = [o.latency_ms for o in reads]
        rung = Rung(
            rate=rate,
            read_p99_ms=percentile(read_ms, 99) if is_supported(len(read_ms), 99) else None,
            error_ratio=failures(one) / len(one.outcomes),
            backlog_growing=backlog_growing(
                [o.conn_wait_ms for o in reads], workload.latency_limit_ms
            ),
        )
        rungs.append(rung)
        p99 = (f"{rung.read_p99_ms:9.3f} ms" if rung.read_p99_ms is not None else
               f"unsupported ({len(reads)} reads, p99 needs {required_samples(99)})")
        verdict = "meets" if rung_passes(rung, workload.latency_limit_ms) else "misses"
        log(f"  rung {rate:7.1f} rps: read_p99 {p99}, error_ratio {rung.error_ratio:.4f}, "
            f"backlog growing {rung.backlog_growing} -> {verdict}")
    best = max_rate(rungs, workload.latency_limit_ms)
    log(f"max_rate_rps = {best if best is not None else 'none: no ladder rate meets the limit'}"
        f" (limit read_p99 <= {workload.latency_limit_ms} ms: {workload.limit_reason})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder", action="store_true",
                        help="run the workload's ladder of offered rates instead")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.data.io import save_corpus
    from repro.data.synthetic import generate_corpus

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    log(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} connections={connections()}")
    log("env " + json.dumps(envstamp.stamp(ROOT), sort_keys=True))
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        corpus = generate_corpus(workloads.CATEGORY, workloads.SCALE, seed=args.seed)
        corpus_path = workdir / "corpus.jsonl"
        save_corpus(corpus, corpus_path)
        log(f"corpus {workloads.CATEGORY} scale {workloads.SCALE}: "
            f"{len(corpus.products)} products, {len(corpus.reviews)} reviews")
        if args.ladder:
            run_ladder(workload, corpus, corpus_path, workdir, args.seed, args.seconds)
            return 0
        plan = workloads.plan(workload, corpus, args.seed, args.seconds)
        if args.trace:
            result = traced(workload, corpus, corpus_path, workdir, plan, args.seed,
                            args.seconds)
        else:
            result = untraced(workload, corpus, corpus_path, workdir, plan, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def _summary(passes: list[Pass]) -> dict:
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(failures(p) for p in passes)
    checked = sum(p.verdict.checked for p in passes)
    wrong = [note for p in passes for note in p.verdict.notes]
    log(f"correctness: {checked} sampled answers byte-compared with an in-process "
        f"engine, {len(wrong)} wrong" + "".join(f"\n  {note}" for note in wrong[:5]))
    log(f"error_ratio = {failed / attempted:.6f} ({failed} of {attempted} requests: "
        f"non-2xx, transport failures and wrong answers)")
    last = passes[-1].outcomes
    log(f"loadgen: late p50 {percentile([o.late_ms for o in last], 50):.3f} ms, "
        f"p99 {percentile([o.late_ms for o in last], 99):.3f} ms, "
        f"conn wait p50 {percentile([o.conn_wait_ms for o in last], 50):.3f} ms")
    steal = passes[-1].steal_share
    log("host: hypervisor steal " + ("unknown" if steal is None else f"{steal:.2%}")
        + " of CPU time while the schedule ran")
    return {"correct": not wrong, "attempted": attempted, "failed": failed}


def untraced(workload, corpus, corpus_path, workdir, plan, seed) -> dict:
    setups = []
    server = None
    for index in range(SETUP_LAUNCHES):
        if server is not None:
            server.stop()
        server, seconds = launch(workload, corpus_path, workdir, index, plan.warmup)
        setups.append(seconds)
    log(f"set-up launches: {', '.join(f'{s:.3f}' for s in setups)} s")
    one = measure(corpus, plan, seed, server, "m")
    values, counts = end_to_end(one, setups)
    log(f"{workload.name}: end-to-end metrics")
    report(values, counts, END_TO_END)
    log("printed only, not bounded")
    report_printed(one)
    summary = _summary([one])
    return {**summary, "metrics": {
        name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
    }}


def traced(workload, corpus, corpus_path, workdir, plan, seed, seconds) -> dict:
    # The untraced pass only has to give the read p50 that the tracing
    # overhead is judged against, so it sends the first third of the run.
    prefix = workloads.Plan(plan.warmup, [r for r in plan.schedule if r.at < seconds / 3])
    server, _ = launch(workload, corpus_path, workdir, 0, plan.warmup)
    plain = measure(corpus, prefix, seed, server, "u")
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    server, _ = launch(workload, corpus_path, workdir, 1, plan.warmup, spans_dir)
    traced_pass = measure(corpus, plan, seed, server, "t")
    recorded = spans.within(spans.load(spans_dir), *traced_pass.window)
    log(f"trace: {len(recorded)} spans in the measured window")
    # Tracing overhead: read p50 over the same first third, traced vs not.
    same_stretch = [o for o in traced_pass.outcomes if o.request.at < seconds / 3]
    overhead = (
        percentile(latencies(same_stretch, "read"), 50),
        percentile(latencies(plain.outcomes, "read"), 50),
    )
    values, counts = layers.compute(recorded, traced_pass.outcomes, overhead)
    log(f"{workload.name}: per-layer metrics (traced pass)")
    report(values, counts, layers.UNITS)
    summary = _summary([plain, traced_pass])
    return {**summary, "metrics": {
        name: {"value": values[name], "unit": unit} for name, unit in layers.UNITS.items()
    }}


if __name__ == "__main__":
    sys.exit(main())

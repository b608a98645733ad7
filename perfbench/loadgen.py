"""Single-process open-loop HTTP/1.1 load generator (stdlib asyncio).

Requests are sent on a schedule fixed in advance, whatever the server's
speed, over at most ``connections`` persistent keep-alive connections.
A request that finds every connection busy waits for one; that wait is
recorded (``conn_wait_ms``) and, because latency runs from the request's
*intended* send time, counts against the latency too — a stall on one
request delays the ones queued behind it, as it would for independent
users.  How late the generator itself ran is recorded as ``late_ms``.

Each request carries an ``X-Bench-Rid`` header so a traced server can
match its spans to the client's timings; the server ignores the header
otherwise.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field

RID_HEADER = "X-Bench-Rid"
#: Seconds a single response may take before it counts as a transport failure.
REQUEST_TIMEOUT = 30.0


@dataclass(frozen=True)
class Request:
    """One scheduled request; ``at`` is seconds after the schedule starts."""

    at: float
    kind: str  # "read" | "write"
    path: str
    body: dict
    key: tuple = ()


@dataclass
class Outcome:
    request: Request
    rid: str
    due: float = 0.0  # intended send time (perf_counter seconds)
    sent: float = 0.0  # a connection was free and the request went out
    done: float = 0.0
    late_ms: float = 0.0
    conn_wait_ms: float = 0.0
    latency_ms: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    def json(self) -> dict:
        return json.loads(self.body)


def poisson_times(rng: random.Random, count: int, seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process conditioned on ``count`` arrivals.

    Given its count, a Poisson process's arrival times in ``[0, seconds)``
    are independent uniforms; sorting them gives the schedule.  Fixing the
    count (instead of drawing it) guarantees every run the sample size its
    percentiles need.
    """
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def _encode(request: Request, host: str, rid: str) -> bytes:
    body = json.dumps(request.body, separators=(",", ":")).encode()
    head = (
        f"POST {request.path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{RID_HEADER}: {rid}\r\n\r\n"
    )
    return head.encode() + body


async def _exchange(reader, writer, payload: bytes) -> tuple[int, bytes]:
    writer.write(payload)
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


@dataclass
class _Pool:
    host: str
    port: int
    free: asyncio.Queue = field(default_factory=asyncio.Queue)
    opened: list = field(default_factory=list)

    async def open(self, count: int) -> None:
        for _ in range(count):
            self.free.put_nowait(await self._dial())

    async def _dial(self):
        conn = await asyncio.open_connection(self.host, self.port)
        self.opened.append(conn)
        return conn

    async def replace(self) -> None:
        """Swap a broken connection for a fresh one (the count stays fixed)."""
        try:
            self.free.put_nowait(await self._dial())
        except OSError:
            self.free.put_nowait(None)

    async def close(self) -> None:
        for _, writer in self.opened:
            writer.close()
        for _, writer in self.opened:
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _run(
    host: str, port: int, schedule: list[Request], connections: int, tag: str
) -> list[Outcome]:
    pool = _Pool(host, port)
    await pool.open(connections)
    outcomes = [
        Outcome(request=request, rid=f"{tag}-{index}")
        for index, request in enumerate(schedule)
    ]

    async def one(outcome: Outcome, dispatched: float) -> None:
        conn = await pool.free.get()
        outcome.sent = time.perf_counter()
        outcome.conn_wait_ms = (outcome.sent - dispatched) * 1e3
        try:
            if conn is None:
                conn = await pool._dial()
            reader, writer = conn
            outcome.status, outcome.body = await asyncio.wait_for(
                _exchange(reader, writer, _encode(outcome.request, host, outcome.rid)),
                REQUEST_TIMEOUT,
            )
        except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError,
                asyncio.LimitOverrunError, ValueError) as exc:
            outcome.error = type(exc).__name__
            outcome.done = time.perf_counter()
            if conn is not None:
                conn[1].close()
            await pool.replace()
        else:
            outcome.done = time.perf_counter()
            pool.free.put_nowait(conn)
        outcome.latency_ms = (outcome.done - outcome.due) * 1e3

    tasks = []
    start = time.perf_counter() + 0.05
    try:
        for outcome in outcomes:
            outcome.due = start + outcome.request.at
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            dispatched = time.perf_counter()
            outcome.late_ms = max(0.0, (dispatched - outcome.due) * 1e3)
            tasks.append(asyncio.create_task(one(outcome, dispatched)))
        await asyncio.gather(*tasks)
    finally:
        # Close the connections before anyone stops the server: a
        # keep-alive connection left open makes ServingCluster.stop()
        # raise "Event loop is closed" at the seed.
        await pool.close()
    return outcomes


def drive(
    host: str, port: int, schedule: list[Request], *, connections: int, tag: str
) -> list[Outcome]:
    """Send ``schedule`` open-loop; one :class:`Outcome` per request, in order."""
    return asyncio.run(_run(host, port, schedule, connections, tag))


def closed_loop(
    host: str, port: int, requests: list[Request], *, connections: int, tag: str
) -> list[Outcome]:
    """Send ``requests`` as fast as ``connections`` allow (warm-up traffic)."""
    return drive(
        host, port, [Request(0.0, r.kind, r.path, r.body, r.key) for r in requests],
        connections=connections, tag=tag,
    )

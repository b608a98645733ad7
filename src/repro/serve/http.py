"""Dependency-free JSON HTTP API over :class:`SelectionEngine`.

Endpoints
---------
``GET /healthz``
    Liveness + the served corpus version.
``GET /metrics``
    Engine metrics as JSON; ``?format=prometheus`` (or an ``Accept:
    text/plain`` header) switches to the Prometheus text format.
``POST /v1/select``
    Body: ``{"target": ..., "m": 3, "lam": 1.0, "mu": 0.1, "scheme":
    "binary", "algorithm": "CompaReSetS+", "max_comparisons": 10,
    "min_reviews": 3}`` — every field optional.  Returns ``{"result":
    ..., "provenance": ...}``.
``POST /v1/narrow``
    The select body plus ``k``, ``time_limit`` and ``stages``.
``POST /v1/reload``
    Admin: ``{"path": "corpus.jsonl"}`` — validate the new corpus in the
    background (old generation keeps serving) and atomically swap it in.
    409 when validation fails or another reload is running.
``POST /v1/ingest``
    Durable delta ingest: ``{"reviews": [{"review_id": ..., "product_id":
    ..., ...}, ...]}``.  The batch is fsynced to the write-ahead log
    *before* the 200 ack, so an acknowledged delta survives any crash.
    400 for malformed reviews, 409 for duplicate review ids, 503 (with
    ``Retry-After``) when the log cannot be written (disk full).
``POST /v1/snapshot``
    Admin: write an atomic generation snapshot now and compact the WAL.
    409 when the engine has no durable state configured.

Error mapping: malformed JSON or mistyped/unknown fields are 400;
semantically invalid requests (unknown target or algorithm, non-viable
instance) are 422; a request shed by admission control is 429 with a
``Retry-After`` header; a reload conflict is 409; an exhausted deadline,
a draining engine (also ``Retry-After``), or a closed engine is 503.
The full table lives in ``docs/SERVING.md``.  An ``X-Deadline-Ms``
request header installs a per-request deadline that propagates through
the engine into every solver (the PR-1 ambient deadline scope), so a
client-side budget bounds the server-side work.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, which is exactly what the engine's single-flight cache and
micro-batcher are designed to coalesce.
"""

from __future__ import annotations

import json
import math
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.resilience.deadline import DeadlineExceeded, deadline_scope
from repro.serve.admission import Overloaded
from repro.serve.breaker import CircuitOpen
from repro.serve.engine import (
    EngineClosed,
    EngineDraining,
    InvalidRequest,
    NarrowRequest,
    SelectionEngine,
    SelectRequest,
)
from repro.serve.health import DRAINING
from repro.serve.store import (
    CorpusValidationError,
    DeltaValidationError,
    ReloadInProgress,
    UnknownTargetError,
    UnviableTargetError,
)


def encode_json(payload: object) -> bytes:
    """The canonical response encoding (sorted keys, no whitespace).

    Shared by the server and the equivalence tests so "HTTP result ==
    offline selector result" is a plain bytes comparison.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


class _BadRequest(ValueError):
    """Malformed body: not JSON, not an object, or mistyped fields (400)."""


def _refuse_constant(name: str) -> float:
    raise _BadRequest(f"invalid JSON body: {name} is not a JSON number")


def parse_json_body(raw: bytes) -> dict:
    """A request body as a JSON object; anything else is :class:`_BadRequest`.

    Python's ``json`` accepts the non-standard ``NaN`` and ``Infinity``
    literals; they are refused here, at the edge, instead of reaching
    the solver.  Bytes that are not valid UTF-8 are refused too.  Shared
    with the cluster gateway.
    """
    try:
        body = json.loads(raw or b"{}", parse_constant=_refuse_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _BadRequest(f"invalid JSON body: {exc}") from None
    if not isinstance(body, dict):
        raise _BadRequest("request body must be a JSON object")
    return body


_NUMBER = (int, float)
_SELECT_FIELDS: dict[str, tuple[type, ...]] = {
    "target": (str, type(None)),
    "m": (int,),
    "lam": _NUMBER,
    "mu": _NUMBER,
    "scheme": (str,),
    "algorithm": (str,),
    "max_comparisons": (int,),
    "min_reviews": (int,),
}
_NARROW_FIELDS: dict[str, tuple[type, ...]] = {
    **_SELECT_FIELDS,
    "k": (int,),
    "time_limit": _NUMBER,
    "stages": (list,),
}


def _parse_request(body: dict, narrow: bool) -> SelectRequest:
    """Typed field extraction; wrong shapes raise :class:`_BadRequest`."""
    fields = _NARROW_FIELDS if narrow else _SELECT_FIELDS
    unknown = sorted(set(body) - set(fields))
    if unknown:
        raise _BadRequest(f"unknown fields: {unknown}")
    kwargs: dict[str, object] = {}
    for name, value in body.items():
        expected = fields[name]
        if isinstance(value, bool) or not isinstance(value, expected):
            names = "/".join(t.__name__ for t in expected)
            raise _BadRequest(f"field {name!r} must be {names}")
        kwargs[name] = value
    if "stages" in kwargs:
        stages = kwargs["stages"]
        if not all(isinstance(stage, str) for stage in stages):
            raise _BadRequest("field 'stages' must be a list of strings")
        kwargs["stages"] = tuple(stages)
    if narrow:
        return NarrowRequest(**kwargs)
    return SelectRequest(**kwargs)


# Shared with the cluster shard worker (repro.serve.cluster.worker): the
# shard hop reuses the exact body validation, error taxonomy, and
# canonical encoding, so a gateway response is byte-identical to the
# single-process server's for the same request.
BadRequest = _BadRequest
parse_request = _parse_request


class ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the engine for its handlers."""

    daemon_threads = True
    # The stdlib default backlog of 5 drops connections under the very
    # bursts admission control is built to absorb; shedding must happen
    # at the application layer (429), not as kernel connection resets.
    request_queue_size = 256

    def __init__(self, address: tuple[str, int], engine: SelectionEngine) -> None:
        super().__init__(address, ServeHandler)
        self.engine = engine
        self.started_at = time.monotonic()


class ServeHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY, as asyncio sets on the gateway's sockets: a complete
    # response goes out at once instead of waiting on Nagle's algorithm.
    disable_nagle_algorithm = True

    # Typed for handler-side access; set by ServingHTTPServer.__init__.
    server: ServingHTTPServer

    def log_message(self, format: str, *args) -> None:
        # Access logs go to metrics, not stderr (the CLI keeps stdout for
        # the one "serving on ..." line the smoke harness parses).
        pass

    # -- plumbing ------------------------------------------------------------

    def _send(
        self,
        status: int,
        payload: object,
        content_type: str = "application/json",
        headers: dict[str, str] | None = None,
    ) -> None:
        body = (
            payload if isinstance(payload, bytes) else encode_json(payload)
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # Head and body leave in one write: a separate body segment would
        # wait for the client's delayed ACK of the head (Nagle), stalling
        # every back-to-back keep-alive request by about 40 ms.
        # ``end_headers`` would flush the head on its own, so the blank
        # line and the body join the stdlib's header buffer instead.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _send_error_json(
        self,
        status: int,
        message: str,
        retry_after: float | None = None,
        extra: dict[str, object] | None = None,
    ) -> None:
        self.server.engine.metrics.counter(
            "repro_http_errors_total", "error responses by status",
            labels={"status": str(status)},
        ).inc()
        headers = None
        payload: dict[str, object] = {"error": message, "status": status}
        if retry_after is not None:
            # The header wants integer seconds (RFC 9110); the body keeps
            # the precise hint for clients that parse JSON.
            headers = {"Retry-After": str(max(1, math.ceil(retry_after)))}
            payload["retry_after"] = round(retry_after, 3)
        if extra:
            payload.update(extra)
        self._send(status, payload, headers=headers)

    def _deadline_ms(self) -> float | None:
        raw = self.headers.get("X-Deadline-Ms")
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise _BadRequest(f"X-Deadline-Ms must be a number, got {raw!r}") from None
        if value <= 0:
            raise _BadRequest(f"X-Deadline-Ms must be positive, got {raw!r}")
        return value

    def _read_body(self) -> dict:
        length = self.headers.get("Content-Length")
        try:
            size = int(length) if length is not None else 0
        except ValueError:
            raise _BadRequest("invalid Content-Length") from None
        return parse_json_body(self.rfile.read(size) if size else b"{}")

    # -- endpoints -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        if url.path == "/healthz":
            engine = self.server.engine
            health = engine.health.view()
            state = health["state"]
            payload = {
                # "ok" is the legacy healthy value (smoke tests and
                # probes grep for it); degraded/draining name the state.
                "status": "ok" if state == "healthy" else state,
                "corpus_version": engine.store.version,
                "uptime_seconds": round(
                    time.monotonic() - self.server.started_at, 3
                ),
                "inflight": engine.admission.inflight,
            }
            if "reasons" in health:
                payload["reasons"] = health["reasons"]
            if engine.recovery is not None:
                # Recovery provenance: how this process rebuilt its state
                # (snapshot/WAL modes, replay counts, supervisor restarts).
                payload["recovery"] = engine.recovery.as_dict()
            # Draining answers 503 so load balancers stop routing here,
            # while in-flight requests keep completing.  Recovering stays
            # 200: the instance is serving, just rebuilding warmth.
            self._send(503 if state == DRAINING else 200, payload)
        elif url.path == "/metrics":
            query = parse_qs(url.query)
            accept = self.headers.get("Accept", "")
            wants_text = (
                query.get("format", [""])[0] == "prometheus"
                or "text/plain" in accept
            )
            if wants_text:
                self._send(
                    200,
                    self.server.engine.metrics.render_prometheus().encode(),
                    content_type="text/plain; version=0.0.4",
                )
            else:
                self._send(200, self.server.engine.metrics.as_dict())
        elif url.path in (
            "/v1/select", "/v1/narrow", "/v1/reload", "/v1/ingest", "/v1/snapshot"
        ):
            self._send_error_json(405, f"{url.path} requires POST")
        else:
            self._send_error_json(404, f"unknown endpoint {url.path!r}")

    def _do_reload(self) -> None:
        engine = self.server.engine
        previous = engine.store.version
        try:
            body = self._read_body()
            unknown = sorted(set(body) - {"path"})
            if unknown:
                raise _BadRequest(f"unknown fields: {unknown}")
            path = body.get("path")
            if not isinstance(path, str) or not path:
                raise _BadRequest("field 'path' (a corpus file path) is required")
            version = engine.reload_from_path(path)
        except _BadRequest as exc:
            self._send_error_json(400, str(exc))
        except ReloadInProgress as exc:
            self._send_error_json(409, str(exc), extra={"version": previous})
        except CorpusValidationError as exc:
            # Validation failed before any swap: the previous generation
            # is still the one serving (that *is* the rollback).
            self._send_error_json(409, str(exc), extra={"version": previous})
        except Exception as exc:  # pragma: no cover - defensive backstop
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
        else:
            self._send(200, {"version": version, "previous": previous})

    def _do_ingest(self) -> None:
        engine = self.server.engine
        try:
            body = self._read_body()
            unknown = sorted(set(body) - {"reviews"})
            if unknown:
                raise _BadRequest(f"unknown fields: {unknown}")
            reviews = body.get("reviews")
            if not isinstance(reviews, list) or not reviews:
                raise _BadRequest(
                    "field 'reviews' (a non-empty list of review objects) "
                    "is required"
                )
            if not all(isinstance(entry, dict) for entry in reviews):
                raise _BadRequest("every entry in 'reviews' must be an object")
            ack = engine.ingest_reviews(reviews)
        except _BadRequest as exc:
            self._send_error_json(400, str(exc))
        except DeltaValidationError as exc:
            # Duplicate review ids conflict with existing state (409);
            # everything else is a malformed batch (400).
            self._send_error_json(409 if exc.conflict else 400, str(exc))
        except EngineDraining as exc:
            self._send_error_json(
                503, str(exc), retry_after=engine.jitter.apply(1.0)
            )
        except EngineClosed as exc:
            self._send_error_json(503, str(exc))
        except OSError as exc:
            # WAL append failed (disk full, IO error): the delta was
            # neither applied nor acked — safe for the client to retry.
            self._send_error_json(
                503,
                f"cannot persist delta: {exc}",
                retry_after=engine.jitter.apply(2.0),
                extra={"reason": "wal_unavailable"},
            )
        except Exception as exc:  # pragma: no cover - defensive backstop
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
        else:
            self._send(200, ack)

    def _do_snapshot(self) -> None:
        engine = self.server.engine
        try:
            info = engine.snapshot()
        except RuntimeError as exc:
            self._send_error_json(409, str(exc))
        except OSError as exc:
            self._send_error_json(
                503,
                f"snapshot failed: {exc}",
                retry_after=engine.jitter.apply(2.0),
            )
        except Exception as exc:  # pragma: no cover - defensive backstop
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
        else:
            self._send(
                200,
                {
                    "path": str(info.path),
                    "version": info.version,
                    "wal_seq": info.wal_seq,
                    "artifacts": info.artifacts,
                },
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        if url.path == "/v1/reload":
            self._do_reload()
            return
        if url.path == "/v1/ingest":
            self._do_ingest()
            return
        if url.path == "/v1/snapshot":
            self._do_snapshot()
            return
        if url.path not in ("/v1/select", "/v1/narrow"):
            if url.path in ("/healthz", "/metrics"):
                self._send_error_json(405, f"{url.path} requires GET")
            else:
                self._send_error_json(404, f"unknown endpoint {url.path!r}")
            return
        narrow = url.path == "/v1/narrow"
        engine = self.server.engine
        try:
            deadline_ms = self._deadline_ms()
            request = _parse_request(self._read_body(), narrow)
            with deadline_scope(
                None if deadline_ms is None else deadline_ms / 1e3
            ):
                if narrow:
                    response = engine.narrow(request)
                else:
                    response = engine.select(request)
        except _BadRequest as exc:
            self._send_error_json(400, str(exc))
        except TypeError as exc:
            self._send_error_json(400, str(exc))
        except (InvalidRequest, UnknownTargetError, UnviableTargetError) as exc:
            self._send_error_json(422, str(exc))
        except Overloaded as exc:
            self._send_error_json(
                429, str(exc), retry_after=exc.retry_after,
                extra={"reason": exc.reason},
            )
        except EngineDraining as exc:
            self._send_error_json(
                503, str(exc), retry_after=engine.jitter.apply(1.0)
            )
        except CircuitOpen as exc:
            # Every usable backend is breaker-open; hint retry around the
            # breaker's recovery window (jittered against retry herds).
            self._send_error_json(
                503, str(exc), retry_after=engine.jitter.apply(5.0),
                extra={"reason": "circuit_open"},
            )
        except (DeadlineExceeded, EngineClosed) as exc:
            self._send_error_json(503, str(exc))
        except Exception as exc:  # pragma: no cover - defensive backstop
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
        else:
            self._send(200, response.as_dict())


def make_server(
    engine: SelectionEngine, host: str = "127.0.0.1", port: int = 0
) -> ServingHTTPServer:
    """Bind (but do not start) a serving HTTP server.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address`` — the end-to-end tests and the smoke target
    rely on this to avoid port collisions.
    """
    return ServingHTTPServer((host, port), engine)


def run_server(
    engine: SelectionEngine,
    host: str,
    port: int,
    *,
    drain_timeout: float = 30.0,
) -> None:
    """Blocking convenience used by ``repro-cli serve``.

    Installs SIGTERM/SIGINT handlers (when running on the main thread)
    that shut down *gracefully*: the engine enters the draining state —
    new requests get 503 + ``Retry-After`` — in-flight requests finish
    within ``drain_timeout`` seconds, and only then does the process
    exit.  A second signal falls back to the default handler (immediate
    exit) so a hung drain can still be interrupted.
    """
    server = make_server(engine, host, port)
    bound_host, bound_port = server.server_address[:2]
    stopping = threading.Event()

    def _graceful_stop() -> None:
        drained = engine.drain(drain_timeout)
        if not drained:
            print("drain timeout: cancelled remaining in-flight work", flush=True)
        server.shutdown()

    def _handle_signal(signum, frame) -> None:
        if stopping.is_set():
            raise KeyboardInterrupt
        stopping.set()
        print(f"received signal {signum}: draining...", flush=True)
        # Drain off the signal-handler frame so the serve loop keeps
        # completing in-flight responses while we wait.
        threading.Thread(
            target=_graceful_stop, name="repro-serve-drain", daemon=True
        ).start()

    installed: list[int] = []
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, _handle_signal)
                installed.append(signum)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                break
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for signum in installed:
            signal.signal(signum, signal.SIG_DFL)
        server.server_close()
        if not stopping.is_set():
            engine.close()
        print("server stopped", flush=True)

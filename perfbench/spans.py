"""In-memory spans: recorded inside a traced server, analysed by the bench.

A span is ``(name, start, end, id, parent, rid, attrs)``.  Times are
``time.perf_counter()`` seconds, which on Linux is the system-wide
monotonic clock, so spans from the server's processes line up with the
client's own timings.  ``parent`` comes from a context variable, so it
follows a request across ``await`` points, into asyncio tasks and — once
:meth:`Tracer.propagate_into_threads` is installed — into worker-pool
threads.  Spans are kept in a list and written out once, at shutdown.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

# (span id, request id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar[tuple[int, str | None]] = contextvars.ContextVar(
    "perfbench_span", default=(0, None)
)


class Tracer:
    """Collects spans for one process; :meth:`dump` writes them as JSON."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def reset(self) -> None:
        """Forget spans inherited through ``fork`` (the child writes its own)."""
        self.spans = []

    def begin(self, rid: str | None = None):
        parent, inherited = _CURRENT.get()
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, rid or inherited))
        return span_id, parent, rid or inherited, token, time.perf_counter()

    def end(self, name: str, opened, stop: float, attrs: dict | None = None) -> None:
        """Close ``opened`` at ``stop``, a ``perf_counter()`` reading the
        caller takes before it computes ``attrs``, so that work stays
        outside the span."""
        span_id, parent, rid, token, start = opened
        _CURRENT.reset(token)
        self.spans.append((name, start, stop, span_id, parent, rid, attrs or {}))

    def dump(self, directory: str | Path) -> Path:
        path = Path(directory) / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({"pid": os.getpid(), "spans": self.spans}))
        return path

    @staticmethod
    def propagate_into_threads() -> None:
        """Make ``ThreadPoolExecutor.submit`` carry the caller's context.

        The engine solves on a worker pool; without this a solver span
        would lose its parent at the thread hop.
        """
        submit = ThreadPoolExecutor.submit

        def submit_in_context(self, fn, /, *args, **kwargs):
            return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

        ThreadPoolExecutor.submit = submit_in_context


@dataclass
class Span:
    name: str
    start: float
    end: float
    id: int
    parent: int
    rid: str | None
    attrs: dict
    pid: int
    children: list["Span"] = field(default_factory=list)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def load(directory: str | Path) -> list[Span]:
    """Every span written under ``directory``, parents linked per process."""
    spans: list[Span] = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        data = json.loads(path.read_text())
        pid = data["pid"]
        by_id: dict[int, Span] = {}
        for name, start, end, span_id, parent, rid, attrs in data["spans"]:
            span = Span(name, start, end, span_id, parent, rid, attrs, pid)
            by_id[span_id] = span
            spans.append(span)
        for span in by_id.values():
            parent = by_id.get(span.parent)
            if parent is not None:
                parent.children.append(span)
    return spans


def is_transparent(span: Span) -> bool:
    """Spans that only wrap other layers' work, not work of their own.

    A result-cache lookup that misses runs the solve (on the worker
    pool) inside its own span; the lookup itself is charged only on
    hits, and a miss's children count as children of the engine call.
    """
    return span.name == "cache.get_or_compute" and span.attrs.get("source") != "hit"


def effective_children(span: Span) -> list[Span]:
    """Children, looking through transparent spans to their own children."""
    found: list[Span] = []
    for child in span.children:
        if is_transparent(child):
            found.extend(effective_children(child))
        else:
            found.append(child)
    return found


def within(spans: Iterable[Span], start: float, end: float) -> list[Span]:
    """Spans that began inside the measured window ``[start, end]``."""
    return [span for span in spans if start <= span.start <= end]

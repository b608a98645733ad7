"""Pure measurement rules shared by the benchmark and its self-tests.

Nothing here touches a socket, a process or the clock, so every rule the
benchmark reports by can be checked in isolation (``test_perfbench.py``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; p99 therefore needs 1,000 samples and p90 needs 100.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    return n - math.ceil(q * n / 100.0)


def required_samples(q: float) -> int:
    """The smallest sample count whose ``q``-th percentile is supported."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation): a value that was measured."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1]


def is_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least 10 beyond the ``q``-th percentile."""
    return samples_beyond(n, q) >= MIN_BEYOND


def supported_percentile(values: Sequence[float], q: float) -> float:
    """:func:`percentile`, refusing a sample with fewer than 10 beyond it."""
    if not is_supported(len(values), q):
        beyond = samples_beyond(len(values), q)
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"needs >= {MIN_BEYOND} ({required_samples(q)} samples)"
        )
    return percentile(values, q)


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children may overlap each other (concurrent work) or spill past the
    parent; only their union inside the parent's interval is removed.
    """
    return (end - start) - covered(start, end, children)


@dataclass(frozen=True)
class Rung:
    """One offered rate of a ladder and what the client saw at it.

    ``read_p99_ms`` is None when the rung had too few reads to support a
    p99; such a rung cannot show that it meets the limit.
    """

    rate: float
    read_p99_ms: float | None
    error_ratio: float
    backlog_growing: bool


def rung_passes(rung: Rung, limit_ms: float, max_error_ratio: float = 0.01) -> bool:
    return (
        rung.read_p99_ms is not None
        and rung.read_p99_ms <= limit_ms
        and rung.error_ratio <= max_error_ratio
        and not rung.backlog_growing
    )


def max_rate(rungs: Sequence[Rung], limit_ms: float) -> float | None:
    """The highest ladder rate that meets the limit, or None if none does.

    Every rung is judged on its own; a rung that passes above a failing
    one still counts, because the rule asks for the highest rate that
    meets all three conditions, not the first failure.
    """
    passing = [rung.rate for rung in rungs if rung_passes(rung, limit_ms)]
    return max(passing) if passing else None


def backlog_growing(conn_waits_ms: Sequence[float], limit_ms: float) -> bool:
    """Whether the generator's queue for a free connection grew during a run.

    Compares the median wait of the last quarter of requests (in send
    order) with the first quarter: a growth of more than half the
    latency limit means requests arrive faster than they are answered.
    """
    n = len(conn_waits_ms)
    if n < 8:
        return False
    quarter = n // 4
    first = statistics.median(conn_waits_ms[:quarter])
    last = statistics.median(conn_waits_ms[-quarter:])
    return last - first > 0.5 * limit_ms

"""The Integer-Regression algorithm of Lappas, Crovella & Terzi (KDD 2012).

The paper approximates CompaReSetS / CompaReSetS+ per item with this
two-stage scheme (§2.2, Algorithm 1):

1. **Continuous stage** — solve the sparse non-negative regression
   ``min ||W x - target||^2`` with ``||x||_0 <= l`` via Non-negative
   Orthogonal Matching Pursuit (NOMP): greedily add the column with the
   largest positive correlation to the residual, then re-fit non-negative
   least squares on the support.
2. **Discrete stage** — deduplicate identical columns (capacity c_i = group
   size), then find an integer count vector nu with ``nu_i <= c_i``,
   ``||nu||_1 <= m`` whose L1-normalised form is closest to the normalised
   continuous solution.  We use capacity-capped largest-remainder
   apportionment per candidate total s = 1..m, which is optimal for each
   fixed s.
3. Repeat for every sparsity level l = 1..m and keep the candidate whose
   *true* set-level objective (computed by a caller-supplied evaluator on
   the actual normalised pi/phi vectors) is smallest.

The evaluator indirection matters: the regression operates on raw
incidence columns, while the objective is defined on max-normalised
distribution vectors; scoring candidates with the true objective is what
makes the heuristic faithful to Eq. 3 / Eq. 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np
from scipy.optimize import nnls

_CORRELATION_TOLERANCE = 1e-12


@dataclass(frozen=True, slots=True)
class DeduplicatedColumns:
    """Unique columns of a matrix plus the original indices of each group."""

    matrix: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    @property
    def capacities(self) -> np.ndarray:
        """c_i — how many original columns each unique column represents."""
        return np.array([len(group) for group in self.groups], dtype=int)


def deduplicate_columns(matrix: np.ndarray, decimals: int = 12) -> DeduplicatedColumns:
    """Group identical columns of ``matrix`` (D, N) -> (D, q), q <= N.

    Columns are compared after rounding to ``decimals`` places so that
    floating-point noise does not split genuinely identical reviews.
    Group order follows first occurrence, keeping the mapping stable.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    num_columns = matrix.shape[1]
    if num_columns == 0:
        return DeduplicatedColumns(matrix=np.zeros((matrix.shape[0], 0)), groups=())
    rounded = np.round(matrix, decimals)
    # np.round keeps the sign of -0.0, so a column holding -1e-15 and one
    # holding +1e-15 would compare unequal after rounding; adding 0.0 maps
    # -0.0 to +0.0 (IEEE 754) before the columns are keyed.
    rounded += 0.0
    if matrix.shape[0] == 0:
        # Zero-dimensional columns are all identical: one group of everything.
        group_ids = np.zeros(num_columns, dtype=np.intp)
        num_groups = 1
    else:
        _, first_indices, inverse = np.unique(
            np.ascontiguousarray(rounded.T),
            axis=0,
            return_index=True,
            return_inverse=True,
        )
        # np.unique orders lexicographically; remap its ids so groups come
        # out in first-occurrence order, keeping the mapping stable.
        position = np.empty(len(first_indices), dtype=np.intp)
        position[np.argsort(first_indices, kind="stable")] = np.arange(
            len(first_indices)
        )
        group_ids = position[inverse.reshape(-1)]
        num_groups = len(first_indices)
    member_order = np.argsort(group_ids, kind="stable")
    sizes = np.bincount(group_ids, minlength=num_groups)
    group_tuples = tuple(
        tuple(int(i) for i in chunk)
        for chunk in np.split(member_order, np.cumsum(sizes)[:-1])
    )
    firsts = [group[0] for group in group_tuples]
    return DeduplicatedColumns(matrix=matrix[:, firsts], groups=group_tuples)


def nomp_path(matrix: np.ndarray, target: np.ndarray, max_atoms: int) -> list[np.ndarray]:
    """Non-negative OMP, returning the solution after *every* atom.

    OMP's greedy atom choice does not depend on the sparsity budget, so
    the budget-``l`` solution is the ``l``-th point of the budget-``m``
    trajectory; computing the whole path at once saves re-running the
    pursuit per sparsity level (Algorithm 1 loops l = 1..m).  The path
    stops early when no remaining column has positive correlation with
    the residual.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    num_columns = matrix.shape[1]
    if num_columns == 0 or max_atoms <= 0:
        return []

    residual = target.astype(float).copy()
    support: list[int] = []
    in_support = np.zeros(num_columns, dtype=bool)
    path: list[np.ndarray] = []

    for _ in range(min(max_atoms, num_columns)):
        correlations = matrix.T @ residual
        correlations[in_support] = -np.inf
        best = int(np.argmax(correlations))
        if correlations[best] <= _CORRELATION_TOLERANCE:
            break
        support.append(best)
        in_support[best] = True
        coefficients, _ = nnls(matrix[:, support], target)
        residual = target - matrix[:, support] @ coefficients
        x = np.zeros(num_columns)
        x[support] = coefficients
        path.append(x)
    return path


def nomp(matrix: np.ndarray, target: np.ndarray, max_atoms: int) -> np.ndarray:
    """Non-negative Orthogonal Matching Pursuit.

    Returns a non-negative coefficient vector x (len = #columns) with at
    most ``max_atoms`` non-zeros approximating ``matrix @ x ~= target``.
    Stops early when no remaining column has positive correlation with the
    residual (adding it could not reduce the non-negative objective).
    """
    path = nomp_path(matrix, target, max_atoms)
    if not path:
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
        return np.zeros(matrix.shape[1])
    return path[-1]


def _round_robin(
    counts: np.ndarray, slack: np.ndarray, order: np.ndarray, remaining: int
) -> None:
    """Hand out ``remaining`` units in ``order``, one per index per pass.

    Updates ``counts`` and ``slack`` in place.  Passing over the order
    repeatedly keeps the allocation balanced when capacities bind; it
    stops early once no index has slack left.
    """
    while remaining > 0:
        progressed = False
        for index in order:
            if remaining == 0:
                break
            if slack[index] > 0:
                counts[index] += 1
                slack[index] -= 1
                remaining -= 1
                progressed = True
        if not progressed:
            break


def largest_remainder_round(
    ideal: np.ndarray, capacities: np.ndarray, total: int
) -> np.ndarray:
    """Integer apportionment: nu ~= ideal with sum(nu) <= total, nu <= cap.

    Classic largest-remainder method with capacity caps: start from the
    capped floors, then hand out the remaining units in order of largest
    fractional remainder among entries with slack.  If the caps cannot
    absorb ``total`` units the result sums to the total slack instead.
    """
    if np.any(ideal < -1e-12):
        raise ValueError("ideal allocations must be non-negative")
    ideal = np.maximum(ideal, 0.0)
    base = np.minimum(np.floor(ideal + 1e-12), capacities).astype(int)
    remaining = min(int(total) - int(base.sum()), int((capacities - base).sum()))
    if remaining > 0:
        order = np.argsort(base - ideal, kind="stable")
        _round_robin(base, (capacities - base).astype(int), order, remaining)
    return base


#: Upper bound on the elements of one (steps, totals, groups) block in
#: :func:`apportion_path`; longer paths are apportioned a chunk of steps
#: at a time so memory stays at one step's (totals, groups) table.
_APPORTION_ELEMENTS = 1 << 18


def apportion_path(
    path: Sequence[np.ndarray] | np.ndarray,
    capacities: np.ndarray,
    max_total: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Largest-remainder apportionments for every path step and total.

    Returns ``(counts, gaps)`` of shapes ``(L, max_total, q)`` and
    ``(L, max_total)`` for the ``L`` rows of ``path``: ``counts[l, s-1]``
    apportions ``s`` units to ``path[l]`` and ``gaps[l, s-1]`` is its
    L1-normalised distance to ``path[l]``, ``inf`` when the allocation is
    empty (no mass, or no capacity).  Each row depends only on its own
    ``(l, s)``, never on ``max_total``, so a table built at a large budget
    serves every smaller budget as a prefix.

    The round-robin of :func:`largest_remainder_round` gives one unit per
    index with slack, in remainder order, per pass.  When the first pass
    already places every remaining unit, the units go to exactly the first
    ``remaining`` indices with slack in that order, so a rank mask fills
    all such rows at once.  Only rows that need a second pass (a capacity
    binds) run the loop.
    """
    xs = np.asarray(path, dtype=float).reshape(len(path), len(capacities))
    totals = max(int(max_total), 0)
    masses = np.abs(xs).sum(axis=1)
    if not (masses.all() and capacities.any()):
        # A step without mass, or no capacity at all, allocates nothing.
        live = (masses != 0.0) & capacities.any()
        counts = np.zeros((len(xs), totals, len(capacities)), dtype=int)
        gaps = np.full((len(xs), totals), np.inf)
        if live.any():
            counts[live], gaps[live] = apportion_path(xs[live], capacities, totals)
        return counts, gaps
    chunk = max(1, _APPORTION_ELEMENTS // max(1, totals * len(capacities)))
    parts = [
        _apportion_steps(
            xs[start : start + chunk], masses[start : start + chunk],
            capacities, totals,
        )
        for start in range(0, max(len(xs), 1), chunk)
    ]
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([counts for counts, _ in parts]),
        np.concatenate([gaps for _, gaps in parts]),
    )


def _apportion_steps(
    xs: np.ndarray, masses: np.ndarray, capacities: np.ndarray, max_total: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`apportion_path` for one chunk of steps, each with mass."""
    # Every expression below is elementwise or reduces along the last,
    # contiguous axis, so each (step, total) row holds exactly the floats
    # the one-row computation would.
    num_groups = xs.shape[1]
    normalised = xs / masses[:, None]
    scale = np.arange(1, max_total + 1)
    ideals = scale[:, None] * normalised[:, None, :]
    if xs.size and xs.min() < 0.0:
        if ideals.min() < -1e-12:
            raise ValueError("ideal allocations must be non-negative")
        np.maximum(ideals, 0.0, out=ideals)
    # Truncation is the floor here: the ideals are non-negative.
    bases = np.minimum((ideals + 1e-12).astype(int), capacities)
    remaining = np.minimum(scale, capacities.sum()) - bases.sum(axis=2)
    # Remainder order, ties by index; indices without slack sort last,
    # which leaves the order among the others unchanged.
    full = bases == capacities
    keys = bases - ideals
    keys[full] = np.inf
    orders = keys.argsort(axis=2, kind="stable")
    counts = bases + (orders.argsort(axis=2) < remaining[..., None])
    # Where one pass cannot place every unit, the mask also reached
    # indices without slack; the loop redoes those rows.
    binding = (counts > capacities).any(axis=2)
    for step, total in zip(*binding.nonzero()):
        row = counts[step, total]  # a view: the loop fills it in place
        row[:] = bases[step, total]
        _round_robin(
            row, capacities - row, orders[step, total],
            int(remaining[step, total]),
        )
    # Every row holds a unit: with no floor placed, remaining = min(s, sum c)
    # is at least 1 and some index has slack.
    shares = counts / counts.sum(axis=2)[..., None]
    return counts, np.abs(shares - normalised[:, None, :]).sum(axis=2)


def prefix_winners(gaps: np.ndarray) -> list[list[int]]:
    """Winning total per path step and budget, by :func:`round_to_counts`' rule.

    ``gaps`` is :func:`apportion_path`'s ``(L, M)`` table.  Entry
    ``[l][b-1]`` is the row index of the best total among ``1..b`` for
    step ``l`` — strict 1e-12 improvement in total order, so the lowest
    total wins ties — or ``-1`` when no total in ``1..b`` is non-empty.
    The tolerance makes the rule order-dependent, hence the scan.
    """
    winners: list[list[int]] = []
    for row in gaps.tolist():
        best, best_gap, prefix = -1, np.inf, []
        for total, gap in enumerate(row):
            if gap < best_gap - 1e-12:
                best, best_gap = total, gap
            prefix.append(best)
        winners.append(prefix)
    return winners


def round_to_counts(
    x: np.ndarray, capacities: np.ndarray, max_total: int
) -> np.ndarray:
    """Discrete stage: integer counts nu minimising the normalised L1 gap.

    Searches every total s = 1..max_total, apportions s units by largest
    remainder, and keeps the nu whose L1-normalised form is closest to the
    L1-normalised x (the criterion of Algorithm 1, line 8).  Returns the
    zero vector when x is identically zero.
    """
    x = np.asarray(x, dtype=float)
    counts, gaps = apportion_path(x[None, :], capacities, max_total)
    winner = prefix_winners(gaps)[0][-1] if max_total > 0 else -1
    if winner < 0:
        return np.zeros(len(x), dtype=int)
    return counts[0, winner]


def counts_to_selection(
    counts: np.ndarray, groups: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Map group counts nu back to original column (review) indices.

    Members within a group are interchangeable (identical incidence
    vectors); the first ``nu_i`` members are taken, keeping determinism.
    Only the groups with a non-zero count are visited.
    """
    counts = np.asarray(counts)
    selected: list[int] = []
    for group_id in counts.nonzero()[0].tolist():
        group = groups[group_id]
        count = int(counts[group_id])
        if count > len(group):
            raise ValueError(
                f"count {count} exceeds group capacity {len(group)}"
            )
        selected.extend(group[:count])
    return tuple(sorted(selected))


@dataclass(frozen=True, slots=True)
class RegressionSelection:
    """Outcome of one integer-regression run for one item."""

    selected: tuple[int, ...]
    objective: float


def integer_regression_select(
    columns: np.ndarray,
    target: np.ndarray,
    max_reviews: int,
    evaluate: Callable[[tuple[int, ...]], float],
    allow_empty: bool = False,
) -> RegressionSelection:
    """Select at most ``max_reviews`` columns approximating ``target``.

    ``evaluate`` receives a tuple of original column indices and must
    return the true objective value for that selection (lower is better);
    the best candidate across sparsity levels l = 1..m wins.

    With ``allow_empty=False`` (the default — review selection should show
    the user *something*) the empty set is returned only when NOMP produces
    no non-empty candidate at any sparsity level, e.g. when every column is
    zero.  With ``allow_empty=True`` the empty selection competes on
    objective value like any other candidate.
    """
    if columns.shape[0] != target.shape[0]:
        raise ValueError(
            f"column dimension {columns.shape[0]} != target dimension {target.shape[0]}"
        )
    deduplicated = deduplicate_columns(columns)
    capacities = deduplicated.capacities

    best: RegressionSelection | None = (
        RegressionSelection(selected=(), objective=evaluate(())) if allow_empty else None
    )
    seen: set[tuple[int, ...]] = {()}
    for x in nomp_path(deduplicated.matrix, target, max_reviews):
        counts = round_to_counts(x, capacities, max_reviews)
        selection = counts_to_selection(counts, deduplicated.groups)
        if selection in seen:
            continue
        seen.add(selection)
        objective = evaluate(selection)
        if best is None or objective < best.objective - 1e-12:
            best = RegressionSelection(selected=selection, objective=objective)
    if best is None:
        best = RegressionSelection(selected=(), objective=evaluate(()))
    return best

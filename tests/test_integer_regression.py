"""Tests for the Integer-Regression machinery: dedup, NOMP, rounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.integer_regression import (
    apportion_path,
    counts_to_selection,
    deduplicate_columns,
    integer_regression_select,
    largest_remainder_round,
    nomp,
    nomp_path,
    prefix_winners,
    round_to_counts,
)


class TestDeduplicateColumns:
    def test_groups_identical_columns(self):
        matrix = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        result = deduplicate_columns(matrix)
        assert result.groups == ((0, 1), (2,))
        assert result.matrix.shape == (2, 2)
        np.testing.assert_array_equal(result.capacities, [2, 1])

    def test_no_duplicates(self):
        matrix = np.eye(3)
        result = deduplicate_columns(matrix)
        assert len(result.groups) == 3

    def test_empty_matrix(self):
        result = deduplicate_columns(np.zeros((4, 0)))
        assert result.groups == ()
        assert result.matrix.shape == (4, 0)

    def test_float_noise_merged(self):
        matrix = np.array([[1.0, 1.0 + 1e-15]])
        assert len(deduplicate_columns(matrix).groups) == 1

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            deduplicate_columns(np.zeros(3))

    def test_signed_zero_columns_merge(self):
        """-0.0 and +0.0 round to different byte patterns but are the same
        column; regression test for the signed-zero key split."""
        matrix = np.array([[-1e-15, 1e-15, 0.0], [1.0, 1.0, 1.0]])
        result = deduplicate_columns(matrix)
        assert result.groups == ((0, 1, 2),)

    def test_zero_row_matrix_single_group(self):
        result = deduplicate_columns(np.zeros((0, 4)))
        assert result.groups == ((0, 1, 2, 3),)
        assert result.matrix.shape == (0, 1)

    def test_first_occurrence_order_preserved(self):
        matrix = np.array(
            [[3.0, 1.0, 3.0, 2.0, 1.0], [0.0, 1.0, 0.0, 2.0, 1.0]]
        )
        result = deduplicate_columns(matrix)
        assert result.groups == ((0, 2), (1, 4), (3,))
        np.testing.assert_array_equal(result.matrix, matrix[:, [0, 1, 3]])

    @given(
        st.integers(1, 6),
        st.integers(0, 24),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60)
    def test_matches_bytes_key_reference(self, rows, cols, seed):
        """The vectorised grouping equals the original dict-of-bytes walk."""
        rng = np.random.default_rng(seed)
        # Low-cardinality values force plenty of duplicate columns.
        matrix = rng.choice([0.0, 0.5, 1.0], size=(rows, cols))
        result = deduplicate_columns(matrix)

        reference: dict[bytes, list[int]] = {}
        order: list[bytes] = []
        rounded = np.round(matrix, 12) + 0.0
        for column in range(cols):
            key = rounded[:, column].tobytes()
            if key not in reference:
                reference[key] = []
                order.append(key)
            reference[key].append(column)
        assert result.groups == tuple(tuple(reference[key]) for key in order)
        if result.groups:
            np.testing.assert_array_equal(
                result.matrix,
                np.column_stack([matrix[:, g[0]] for g in result.groups]),
            )


class TestNomp:
    def test_exact_recovery_of_sparse_combination(self):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(0, 1, (20, 10))
        true_x = np.zeros(10)
        true_x[[2, 7]] = [1.5, 0.5]
        target = matrix @ true_x
        x = nomp(matrix, target, max_atoms=2)
        np.testing.assert_allclose(matrix @ x, target, atol=1e-8)

    def test_respects_sparsity_budget(self):
        rng = np.random.default_rng(1)
        matrix = rng.uniform(0, 1, (8, 12))
        target = rng.uniform(0, 1, 8)
        x = nomp(matrix, target, max_atoms=3)
        assert np.count_nonzero(x) <= 3

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        matrix = rng.uniform(-1, 1, (6, 9))
        target = rng.uniform(-1, 1, 6)
        assert (nomp(matrix, target, 4) >= 0).all()

    def test_zero_columns(self):
        assert nomp(np.zeros((3, 0)), np.ones(3), 2).shape == (0,)

    def test_zero_budget(self):
        assert not nomp(np.ones((3, 3)), np.ones(3), 0).any()

    def test_orthogonal_target_yields_empty(self):
        # target negatively correlated with every column -> nothing picked
        matrix = np.ones((3, 2))
        target = -np.ones(3)
        assert not nomp(matrix, target, 2).any()

    def test_path_prefix_property(self):
        """nomp(budget=l) equals the l-th point of the budget-m path."""
        rng = np.random.default_rng(7)
        matrix = rng.uniform(0, 1, (12, 9))
        target = rng.uniform(0, 1, 12)
        path = nomp_path(matrix, target, 5)
        for sparsity in range(1, len(path) + 1):
            np.testing.assert_allclose(
                nomp(matrix, target, sparsity), path[sparsity - 1]
            )

    def test_path_support_grows_by_one(self):
        rng = np.random.default_rng(8)
        matrix = rng.uniform(0, 1, (10, 8))
        target = rng.uniform(0, 1, 10)
        path = nomp_path(matrix, target, 6)
        supports = [set(np.flatnonzero(x > 0)) for x in path]
        for previous, current in zip(supports, supports[1:]):
            # NNLS re-fits may zero out an earlier atom, but the selected
            # atom set can never shrink below the previous support size.
            assert len(current) <= len(previous) + 1

    def test_path_empty_for_zero_columns(self):
        assert nomp_path(np.zeros((3, 0)), np.ones(3), 4) == []

    def test_residual_decreases_with_budget(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0, 1, (15, 10))
        target = rng.uniform(0, 1, 15)
        errors = []
        for budget in (1, 3, 5):
            x = nomp(matrix, target, budget)
            errors.append(float(np.linalg.norm(matrix @ x - target)))
        assert errors[0] >= errors[1] >= errors[2]


class TestLargestRemainderRound:
    def test_basic_apportionment(self):
        result = largest_remainder_round(
            np.array([1.6, 1.4, 0.0]), np.array([5, 5, 5]), total=3
        )
        np.testing.assert_array_equal(result, [2, 1, 0])

    def test_respects_capacities(self):
        result = largest_remainder_round(
            np.array([3.0, 0.0]), np.array([1, 5]), total=3
        )
        assert result[0] <= 1
        assert result.sum() == 3  # overflow routed to slack entries

    def test_negative_ideal_rejected(self):
        with pytest.raises(ValueError):
            largest_remainder_round(np.array([-1.0]), np.array([2]), 1)

    @given(
        st.lists(st.floats(0, 5, allow_nan=False), min_size=1, max_size=8),
        st.integers(0, 10),
    )
    def test_invariants(self, ideal, total):
        ideal_array = np.array(ideal)
        capacities = np.full(len(ideal), 3)
        result = largest_remainder_round(ideal_array, capacities, total)
        assert (result >= 0).all()
        assert (result <= capacities).all()
        assert result.sum() <= max(total, 0) or result.sum() <= capacities.sum()
        # When slack allows and total is feasible, the full total is placed.
        if total <= capacities.sum():
            assert result.sum() == min(total, capacities.sum()) or result.sum() >= min(
                int(np.floor(ideal_array.sum())), total
            )


class TestRoundToCounts:
    def test_zero_x(self):
        assert not round_to_counts(np.zeros(3), np.ones(3, dtype=int), 5).any()

    def test_simple_proportions(self):
        x = np.array([2.0, 1.0, 0.0])
        counts = round_to_counts(x, np.array([5, 5, 5]), max_total=3)
        np.testing.assert_array_equal(counts, [2, 1, 0])

    def test_capacity_capped(self):
        x = np.array([1.0, 0.0])
        counts = round_to_counts(x, np.array([1, 4]), max_total=4)
        assert counts[0] <= 1

    def test_total_bounded(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 6)
        counts = round_to_counts(x, np.full(6, 10), max_total=4)
        assert counts.sum() <= 4

    @given(
        st.lists(st.floats(0, 2, allow_nan=False), min_size=1, max_size=8),
        st.integers(1, 8),
        st.integers(1, 4),
    )
    @settings(max_examples=80)
    def test_matches_per_total_reference(self, x_values, max_total, cap):
        """The batched-argsort rewrite returns exactly what the original
        per-total largest_remainder_round loop returned."""
        x = np.array(x_values)
        capacities = np.full(len(x), cap)
        mass = float(np.abs(x).sum())
        expected = np.zeros(len(x), dtype=int)
        if mass > 0.0:
            normalised = x / mass
            best_gap = np.inf
            for s in range(1, max_total + 1):
                counts = largest_remainder_round(normalised * s, capacities, s)
                count_sum = int(counts.sum())
                if count_sum == 0:
                    continue
                gap = float(np.abs(counts / count_sum - normalised).sum())
                if gap < best_gap - 1e-12:
                    best_gap = gap
                    expected = counts
        np.testing.assert_array_equal(
            round_to_counts(x, capacities, max_total), expected
        )

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=6),
        st.integers(1, 6),
    )
    @settings(max_examples=50)
    def test_feasibility(self, x_values, max_total):
        x = np.array(x_values)
        capacities = np.full(len(x), 2)
        counts = round_to_counts(x, capacities, max_total)
        assert (counts >= 0).all()
        assert (counts <= capacities).all()
        assert counts.sum() <= max_total


def _loop_table(x, capacities, max_total):
    """The per-total round-robin apportionment, one row at a time.

    Test-only reference for :func:`apportion_path`: entry ``s - 1`` is
    ``(counts, gap)`` for total ``s``, or ``None`` for an empty allocation.
    """
    x = np.asarray(x, dtype=float)
    mass = float(np.abs(x).sum())
    if mass == 0.0 or max_total <= 0:
        return [None] * max(max_total, 0)
    normalised = x / mass
    table = []
    for s in range(1, max_total + 1):
        ideal = np.maximum(s * normalised, 0.0)
        counts = np.minimum(np.floor(ideal + 1e-12), capacities).astype(int)
        slack = (capacities - counts).astype(int)
        remaining = min(s - int(counts.sum()), int(slack.sum()))
        order = np.argsort(counts - ideal, kind="stable")
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
        count_sum = int(counts.sum())
        if count_sum == 0:
            table.append(None)
        else:
            table.append((counts, float(np.abs(counts / count_sum - normalised).sum())))
    return table


@st.composite
def _sparse_paths(draw):
    """Pursuit-like paths: few non-zeros per step, small capacities (so
    they bind and units spill), some all-zero steps, some integral ideals."""
    groups = draw(st.integers(1, 24))
    steps = draw(st.integers(1, 6))
    rows = []
    for _ in range(steps):
        row = np.zeros(groups)
        for index in draw(st.lists(st.integers(0, groups - 1), max_size=4)):
            row[index] = draw(
                st.one_of(
                    st.floats(1e-6, 3.0, allow_nan=False),
                    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                )
            )
        rows.append(row)
    capacities = np.array(
        draw(st.lists(st.integers(1, 3), min_size=groups, max_size=groups))
    )
    return np.array(rows), capacities, draw(st.integers(1, 8))


class TestApportionPath:
    """The rank-mask apportionment against the per-row loop reference."""

    @given(_sparse_paths())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_reference(self, case):
        path, capacities, max_total = case
        counts, gaps = apportion_path(path, capacities, max_total)
        for step, x in enumerate(path):
            for row, entry in enumerate(_loop_table(x, capacities, max_total)):
                if entry is None:
                    assert gaps[step, row] == np.inf
                else:
                    np.testing.assert_array_equal(counts[step, row], entry[0])
                    assert gaps[step, row] == entry[1]

    @given(
        st.lists(st.floats(0, 2, allow_nan=False), min_size=1, max_size=40),
        st.integers(1, 12),
        st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_dense_rows_match_loop_reference(self, values, max_total, cap):
        x = np.array(values)
        capacities = np.full(len(x), cap)
        counts, gaps = apportion_path(x[None, :], capacities, max_total)
        for row, entry in enumerate(_loop_table(x, capacities, max_total)):
            if entry is None:
                assert gaps[0, row] == np.inf
            else:
                np.testing.assert_array_equal(counts[0, row], entry[0])
                assert gaps[0, row] == entry[1]

    def test_binding_capacity_and_zero_mass_rows(self):
        path = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        capacities = np.array([1, 1, 2])
        counts, gaps = apportion_path(path, capacities, 4)
        assert np.isinf(gaps[0]).all()  # no mass: no allocation
        # One unit fits column 0; the rest spills in index order and binds.
        np.testing.assert_array_equal(counts[1, 3], [1, 1, 2])
        np.testing.assert_array_equal(counts[2, 1], [1, 1, 0])
        for step, x in enumerate(path):
            for row, entry in enumerate(_loop_table(x, capacities, 4)):
                if entry is not None:
                    np.testing.assert_array_equal(counts[step, row], entry[0])
        # No capacity anywhere: every total is empty, as in the loop.
        _, none = apportion_path(path, np.zeros(3, dtype=int), 2)
        assert np.isinf(none).all()

    def test_prefix_winners_follow_the_strict_tolerance_rule(self):
        gaps = np.array([[1.0, 1.0 - 0.5e-12, 1.0 - 1e-12, np.inf, 0.5]])
        # Equal gaps and sub-tolerance gains never displace the earlier total.
        assert prefix_winners(gaps) == [[0, 0, 0, 0, 4]]
        assert prefix_winners(np.full((1, 2), np.inf)) == [[-1, -1]]

    def test_negative_ideals_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            apportion_path(np.array([[1.0, -0.5]]), np.array([2, 2]), 3)


class TestCountsToSelection:
    def test_maps_back_in_group_order(self):
        selection = counts_to_selection(
            np.array([2, 0, 1]), [(0, 3), (1,), (2, 4)]
        )
        assert selection == (0, 2, 3)

    def test_over_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            counts_to_selection(np.array([2]), [(0,)])


class TestIntegerRegressionSelect:
    def _perfect_instance(self):
        """Columns where a known subset reproduces the target exactly."""
        columns = np.array(
            [
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        target = columns[:, 0] + columns[:, 1]  # = columns 0+1 (also column 2)
        return columns, target

    def test_finds_low_objective_selection(self):
        columns, target = self._perfect_instance()

        def evaluate(selection):
            achieved = columns[:, list(selection)].sum(axis=1) if selection else np.zeros(3)
            return float(((achieved - target) ** 2).sum())

        result = integer_regression_select(columns, target, max_reviews=2, evaluate=evaluate)
        assert result.objective == pytest.approx(0.0)
        assert len(result.selected) <= 2

    def test_respects_max_reviews(self):
        rng = np.random.default_rng(5)
        columns = rng.uniform(0, 1, (6, 10))
        target = rng.uniform(0, 2, 6)

        def evaluate(selection):
            achieved = columns[:, list(selection)].sum(axis=1) if selection else np.zeros(6)
            return float(((achieved - target) ** 2).sum())

        result = integer_regression_select(columns, target, max_reviews=3, evaluate=evaluate)
        assert len(result.selected) <= 3

    def test_allow_empty_competes(self):
        columns = np.ones((2, 3))
        target = np.zeros(2)

        def evaluate(selection):
            achieved = columns[:, list(selection)].sum(axis=1) if selection else np.zeros(2)
            return float(((achieved - target) ** 2).sum())

        # Zero target: empty wins when allowed...
        allowed = integer_regression_select(columns, target, 2, evaluate, allow_empty=True)
        assert allowed.selected == ()
        # ...and also when not allowed, because NOMP finds no positive atom.
        forced = integer_regression_select(columns, target, 2, evaluate, allow_empty=False)
        assert forced.selected == ()

    def test_prefers_non_empty_when_disallowed(self):
        columns = np.array([[1.0, 0.2]])
        target = np.array([0.1])  # closest to empty, but empty is disallowed

        def evaluate(selection):
            achieved = columns[:, list(selection)].sum(axis=1) if selection else np.zeros(1)
            return float(((achieved - target) ** 2).sum())

        result = integer_regression_select(columns, target, 1, evaluate, allow_empty=False)
        assert result.selected  # non-empty preferred

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            integer_regression_select(np.ones((2, 2)), np.ones(3), 1, lambda s: 0.0)

    def test_duplicate_columns_select_distinct_reviews(self):
        """Duplicate review groups expand to distinct review indices.

        Two identical [1,0] reviews plus one [0,1] review; the target
        proportion 2:1 requires selecting both duplicates.  The evaluator
        is scale-invariant (L1-normalised) like the real pi/phi vectors,
        since the rounding criterion itself is normalisation-based.
        """
        columns = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        target = np.array([2 / 3, 1 / 3])

        def evaluate(selection):
            if not selection:
                return float((target**2).sum())
            achieved = columns[:, list(selection)].sum(axis=1)
            achieved = achieved / achieved.sum()
            return float(((achieved - target) ** 2).sum())

        result = integer_regression_select(columns, target, 3, evaluate)
        assert len(set(result.selected)) == len(result.selected)
        assert result.objective == pytest.approx(0.0)
        assert set(result.selected) == {0, 1, 2}

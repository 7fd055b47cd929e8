"""Aggregation rules: hand-checked values, brute-force oracles, and algebraic
properties (permutation invariance, bounded output, translation equivariance)."""

import numpy as np
import pytest

from splitfedsim.aggregation import (
    AggregationRule,
    aggregate,
    coordinate_median,
    fed_avg,
    rule_window,
    trimmed_mean,
)


def _mat(*rows):
    return np.array(rows, dtype=np.float64)


# ---------------------------------------------------------------- fed_avg


def test_fed_avg_two_rows():
    out = fed_avg(_mat([0.0, 2.0], [2.0, 0.0]))
    np.testing.assert_array_equal(out, [1.0, 1.0])


def test_fed_avg_single_row_is_identity():
    row = _mat([3.5, -1.0, 0.25])
    np.testing.assert_array_equal(fed_avg(row), row[0])


def test_fed_avg_matches_numpy_mean():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(7, 5))
    np.testing.assert_allclose(fed_avg(u), u.mean(axis=0), rtol=1e-12)


def test_fed_avg_rejects_empty_and_1d():
    with pytest.raises(ValueError):
        fed_avg(np.empty((0, 3)))
    with pytest.raises(ValueError):
        fed_avg(np.zeros(3))


# ---------------------------------------------------------------- trimmed mean


def test_trimmed_mean_column_1_to_5():
    u = _mat([1.0], [2.0], [3.0], [4.0], [5.0])
    np.testing.assert_array_equal(trimmed_mean(u, 1), [3.0])


def test_trimmed_mean_discards_outlier():
    u = _mat([0.0], [0.0], [0.0], [100.0])
    np.testing.assert_array_equal(trimmed_mean(u, 1), [0.0])


def test_trimmed_mean_zero_trim_is_fed_avg():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(6, 4))
    np.testing.assert_array_equal(trimmed_mean(u, 0), fed_avg(u))


def test_trimmed_mean_requires_enough_rows():
    u = _mat([1.0], [2.0], [3.0], [4.0])
    with pytest.raises(ValueError):
        trimmed_mean(u, 2)  # n = 4 is not > 2*2
    trimmed_mean(_mat([1.0], [2.0], [3.0], [4.0], [5.0]), 2)  # n = 5 is fine


def test_trimmed_mean_rejects_negative_trim():
    with pytest.raises(ValueError):
        trimmed_mean(_mat([1.0], [2.0], [3.0]), -1)


# ---------------------------------------------------------------- median


def test_median_odd_count():
    np.testing.assert_array_equal(coordinate_median(_mat([1.0], [2.0], [9.0])), [2.0])


def test_median_even_count_midpoint():
    u = _mat([1.0], [2.0], [3.0], [10.0])
    np.testing.assert_array_equal(coordinate_median(u), [2.5])


def test_median_identical_rows():
    row = [4.0, -2.0, 0.5]
    u = _mat(row, row, row, row, row)
    np.testing.assert_array_equal(coordinate_median(u), row)


def test_median_is_per_dimension():
    u = _mat([1.0, 10.0], [2.0, 30.0], [9.0, 20.0])
    np.testing.assert_array_equal(coordinate_median(u), [2.0, 20.0])


# ---------------------------------------------------------------- rule windows


@pytest.mark.parametrize("rule, n, window", [
    (AggregationRule("fedavg"), 1, (0, 1)),
    (AggregationRule("fedavg"), 6, (0, 6)),
    (AggregationRule("trmean", trim_count=0), 4, (0, 4)),
    (AggregationRule("trmean", trim_count=2), 5, (2, 3)),
    (AggregationRule("trmean", trim_count=2), 7, (2, 5)),
    (AggregationRule("median"), 1, (0, 1)),
    (AggregationRule("median"), 2, (0, 2)),
    (AggregationRule("median"), 5, (2, 3)),
    (AggregationRule("median"), 6, (2, 4)),
])
def test_rule_window_rows(rule, n, window):
    assert rule_window(rule, n) == window


# ---------------------------------------------------------------- dispatch


def test_aggregate_dispatch():
    u = _mat([1.0], [2.0], [3.0], [4.0], [5.0])
    np.testing.assert_array_equal(aggregate(AggregationRule("fedavg"), u), [3.0])
    np.testing.assert_array_equal(
        aggregate(AggregationRule("trmean", trim_count=1), u), [3.0]
    )
    np.testing.assert_array_equal(aggregate(AggregationRule("median"), u), [3.0])


def test_aggregation_rule_validation():
    with pytest.raises(ValueError):
        AggregationRule("mode")
    with pytest.raises(ValueError):
        AggregationRule("trmean", trim_count=-1)


# ---------------------------------------------------------------- properties


def _random_matrices(count, seed, max_n=9, max_d=7):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        d = int(rng.integers(1, max_d + 1))
        yield rng.normal(scale=3.0, size=(n, d)), rng


def test_permutation_invariance():
    for u, rng in _random_matrices(30, seed=3):
        perm = rng.permutation(u.shape[0])
        trim = int(rng.integers(0, max(1, (u.shape[0] - 1) // 2) + 1))
        for rule in (
            AggregationRule("fedavg"),
            AggregationRule("median"),
            AggregationRule("trmean", trim_count=trim),
        ):
            if rule.kind == "trmean" and u.shape[0] <= 2 * trim:
                continue
            np.testing.assert_array_equal(
                aggregate(rule, u), aggregate(rule, u[perm])
            )


def test_output_bounded_by_retained_values():
    for u, rng in _random_matrices(30, seed=4):
        n = u.shape[0]
        lo, hi = u.min(axis=0), u.max(axis=0)
        assert np.all(fed_avg(u) >= lo - 1e-12) and np.all(fed_avg(u) <= hi + 1e-12)
        assert np.all(coordinate_median(u) >= lo) and np.all(coordinate_median(u) <= hi)
        m = int(rng.integers(0, max(1, (n - 1) // 2) + 1))
        if n > 2 * m:
            srt = np.sort(u, axis=0)
            kept_lo = srt[m] if n > 2 * m else lo
            kept_hi = srt[n - 1 - m]
            tm = trimmed_mean(u, m)
            assert np.all(tm >= kept_lo - 1e-12) and np.all(tm <= kept_hi + 1e-12)


def test_brute_force_oracle_equivalence():
    """Sort-based per-dimension oracles reproduce each rule exactly on 100
    random matrices."""
    checked = 0
    for u, rng in _random_matrices(100, seed=5):
        n, d = u.shape
        m = int(rng.integers(0, max(1, (n - 1) // 2) + 1))
        med_oracle = np.array(
            [float(np.median(np.sort(u[:, j]))) for j in range(d)]
        )
        np.testing.assert_allclose(coordinate_median(u), med_oracle, rtol=1e-12, atol=0)
        if n > 2 * m:
            tm_oracle = np.array(
                [float(np.mean(np.sort(u[:, j])[m: n - m])) for j in range(d)]
            )
            np.testing.assert_allclose(trimmed_mean(u, m), tm_oracle, rtol=1e-12, atol=1e-15)
        checked += 1
    assert checked == 100


def test_translation_equivariance():
    for u, rng in _random_matrices(20, seed=6):
        shift = rng.normal(scale=5.0, size=u.shape[1])
        trim = int(rng.integers(0, max(1, (u.shape[0] - 1) // 2) + 1))
        rules = [AggregationRule("fedavg"), AggregationRule("median")]
        if u.shape[0] > 2 * trim:
            rules.append(AggregationRule("trmean", trim_count=trim))
        for rule in rules:
            np.testing.assert_allclose(
                aggregate(rule, u + shift),
                aggregate(rule, u) + shift,
                rtol=1e-12,
                atol=1e-12,
            )

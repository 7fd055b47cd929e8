"""Aggregation rules over an update matrix (one row per client, one column
per parameter).

All three rules sort each column first and reduce in ascending value order
with a sequential accumulator. So reordering the rows leaves every nonzero
finite result bitwise unchanged, not just mathematically, and trimmed_mean
with trim_count 0 is literally the same computation as fedavg. Zeros and
NaNs are the exceptions: +0.0 and -0.0 compare equal, so where both tie at
the edge of a median or trimmed window the sign of a zero result can follow
row order, and a NaN result's sign bit depends on where its column falls in
NumPy's vector loop.

Each rule is defined once, by rule_window (the sorted rows it reads) and
reduce_window (how it reduces them). aggregate and the attacker's gamma
search (attacks.gamma_search) both go through these two functions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RULE_KINDS = ("fedavg", "trmean", "median")


@dataclass(frozen=True)
class AggregationRule:
    kind: str             # one of RULE_KINDS
    trim_count: int = 0   # per-dimension rows dropped from each tail (trmean)

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown aggregation rule {self.kind!r}")
        if self.trim_count < 0:
            raise ValueError("trim_count must be non-negative")


def _check_matrix(updates: np.ndarray) -> np.ndarray:
    updates = np.asarray(updates, dtype=float)
    if updates.ndim != 2:
        raise ValueError(f"update matrix must be 2-D, got shape {updates.shape}")
    if updates.shape[0] == 0:
        raise ValueError("update matrix has no rows")
    return updates


def rule_window(rule: AggregationRule, n: int) -> tuple[int, int]:
    """The rows lo..hi-1 of the column-sorted n-row matrix that the rule
    reads: all of them (fedavg), all but trim_count at each end (trmean), or
    the middle one or two (median)."""
    if rule.kind == "median":
        return (n - 1) // 2, n // 2 + 1
    trim = rule.trim_count if rule.kind == "trmean" else 0
    if n <= 2 * trim:
        raise ValueError(
            f"trimmed mean needs n > 2 * trim_count, got n={n} trim_count={trim}")
    return trim, n - trim


def reduce_window(rule: AggregationRule, win: np.ndarray) -> np.ndarray:
    """The rule's output from the rows of its window, in ascending order:
    the middle value or the midpoint of the middle two (median), the mean
    otherwise."""
    if rule.kind == "median":
        return win[0].copy() if len(win) == 1 else (win[0] + win[1]) / 2.0
    # sequential accumulation in ascending value order, per column
    acc = win[0].copy()
    for row in win[1:]:
        acc += row
    return acc / len(win)


def aggregate(rule: AggregationRule, updates: np.ndarray) -> np.ndarray:
    """Apply a rule to the update matrix: sort every column, then reduce the
    rows of the rule's window."""
    updates = _check_matrix(updates)
    lo, hi = rule_window(rule, updates.shape[0])
    return reduce_window(rule, np.sort(updates, axis=0)[lo:hi])


def trimmed_mean(updates: np.ndarray, trim_count: int) -> np.ndarray:
    """Column-wise mean after dropping the trim_count largest and smallest
    values in each column. Needs more than 2 * trim_count rows."""
    return aggregate(AggregationRule("trmean", trim_count), updates)


def coordinate_median(updates: np.ndarray) -> np.ndarray:
    """Column-wise median; even row counts take the midpoint of the middle two."""
    return aggregate(AggregationRule("median"), updates)

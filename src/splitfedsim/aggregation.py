"""Aggregation rules over an update matrix (one row per client, one column
per parameter).

All three rules sort each column first and reduce in ascending value order
with a sequential accumulator. That makes every rule exactly permutation
invariant (bitwise, not just mathematically) and makes trimmed_mean with
trim_count 0 literally the same computation as fed_avg.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AggregationRule:
    kind: str             # "fedavg" | "trmean" | "median"
    trim_count: int = 0   # per-dimension rows dropped from each tail (trmean)

    def __post_init__(self):
        if self.kind not in ("fedavg", "trmean", "median"):
            raise ValueError(f"unknown aggregation rule {self.kind!r}")
        if self.trim_count < 0:
            raise ValueError("trim_count must be non-negative")


@dataclass(frozen=True)
class UpdateStats:
    mean: np.ndarray
    std: np.ndarray  # population standard deviation


def _check_matrix(updates: np.ndarray) -> np.ndarray:
    updates = np.asarray(updates, dtype=float)
    if updates.ndim != 2:
        raise ValueError(f"update matrix must be 2-D, got shape {updates.shape}")
    if updates.shape[0] == 0:
        raise ValueError("update matrix has no rows")
    return updates


def _sorted_slice_mean(sorted_updates: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # sequential accumulation in ascending value order, per column
    acc = sorted_updates[lo].copy()
    for i in range(lo + 1, hi):
        acc += sorted_updates[i]
    return acc / (hi - lo)


def fed_avg(updates: np.ndarray) -> np.ndarray:
    """Column-wise mean."""
    updates = _check_matrix(updates)
    srt = np.sort(updates, axis=0)
    return _sorted_slice_mean(srt, 0, srt.shape[0])


def trimmed_mean(updates: np.ndarray, trim_count: int) -> np.ndarray:
    """Column-wise mean after dropping the trim_count largest and smallest
    values in each column. Needs more than 2 * trim_count rows."""
    updates = _check_matrix(updates)
    n = updates.shape[0]
    if trim_count < 0:
        raise ValueError("trim_count must be non-negative")
    if n <= 2 * trim_count:
        raise ValueError(
            f"trimmed mean needs n > 2 * trim_count, got n={n} trim_count={trim_count}")
    srt = np.sort(updates, axis=0)
    return _sorted_slice_mean(srt, trim_count, n - trim_count)


def coordinate_median(updates: np.ndarray) -> np.ndarray:
    """Column-wise median; even row counts take the midpoint of the middle two."""
    updates = _check_matrix(updates)
    n = updates.shape[0]
    srt = np.sort(updates, axis=0)
    if n % 2:
        return srt[n // 2].copy()
    return (srt[n // 2 - 1] + srt[n // 2]) / 2.0


def _population_std(updates: np.ndarray, mean: np.ndarray) -> np.ndarray:
    # squared deviations accumulated in row order
    centered = updates - mean
    acc = centered[0] ** 2
    for i in range(1, updates.shape[0]):
        acc += centered[i] ** 2
    return np.sqrt(acc / updates.shape[0])


def update_stats(updates: np.ndarray) -> UpdateStats:
    """Column-wise mean (same computation as fed_avg) and population std."""
    updates = _check_matrix(updates)
    mean = fed_avg(updates)
    return UpdateStats(mean, _population_std(updates, mean))


def aggregate(rule: AggregationRule, updates: np.ndarray) -> np.ndarray:
    """Apply a rule to the update matrix."""
    if rule.kind == "fedavg":
        return fed_avg(updates)
    if rule.kind == "trmean":
        return trimmed_mean(updates, rule.trim_count)
    return coordinate_median(updates)

"""Model-poisoning update crafting.

Two families:

* lie_update: shift the benign mean by z population standard deviations,
  staying inside the benign spread so robust rules keep the row.
* gamma-scaled crafting: malicious = benign_mean + gamma * perturbation, with
  gamma chosen (by a halving search) to maximize how far the deployed
  aggregation rule moves from the benign mean when m copies of the crafted
  row join the benign rows.

The search never sorts the stacked rows. The m crafted rows are identical,
so the benign columns are sorted once per search and each evaluation places
the crafted value into that order. It reduces only the rows of the rule's
window, with the same rule_window and reduce_window that aggregate uses.
Every deviation, and so every gamma, is bit for bit the one that stacking the
rows and calling aggregate gives; agr_deviation still takes that route and is
the reference the tests hold the search to.

All crafting reads only the benign rows it is given; nothing here inspects
malicious clients' own data.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .aggregation import (AggregationRule, _check_matrix, aggregate,
                          reduce_window, rule_window)

PERTURB_KINDS = ("std", "unit", "sign")

# relative slack when comparing a new deviation against the best seen
_SUCCESS_RTOL = 1e-6


@dataclass(frozen=True)
class GammaSearchResult:
    gamma: float
    deviation: float
    evaluations: int


@dataclass(frozen=True)
class AttackSpec:
    """What the malicious coalition does each round.

    kind "none" disables the attack. "lie" uses lie_update(z). "agropt" runs
    the gamma search against the deployed rule. start_round delays the
    attack; before it, malicious clients behave honestly.
    """
    kind: str = "none"            # "none" | "lie" | "agropt"
    z: float = 1.5
    perturb: str = "std"
    gamma_init: float = 10.0
    tau: float = 1e-5
    start_round: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "lie", "agropt"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.perturb not in PERTURB_KINDS:
            raise ValueError(f"unknown perturbation {self.perturb!r}")
        if self.gamma_init <= 0:
            raise ValueError("gamma_init must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.start_round < 0:
            raise ValueError("start_round must be non-negative")


class BenignColumns:
    """The benign rows with every column sorted once, and what the attacker
    derives from them: the benign mean (the sum fed_avg takes), the
    population standard deviation and the perturbation directions.

    gamma_search accepts one in place of the row matrix, so that a caller
    crafting the row afterwards reads the mean and direction of the same sort.
    """

    def __init__(self, benign: np.ndarray):
        self.rows = _check_matrix(benign)
        self.sorted = np.sort(self.rows, axis=0)
        self.mean = reduce_window(AggregationRule("fedavg"), self.sorted)
        self._directions: dict[str, np.ndarray] = {}

    @cached_property
    def std(self) -> np.ndarray:
        """Per-column population standard deviation, the squared deviations
        accumulated in row order."""
        centered = self.rows - self.mean
        acc = centered[0] ** 2
        for row in centered[1:]:
            acc += row ** 2
        return np.sqrt(acc / len(centered))

    def perturbation(self, kind: str) -> np.ndarray:
        """perturbation_vector(kind, rows), computed once per kind."""
        if kind not in self._directions:
            self._directions[kind] = self._direction(kind)
        return self._directions[kind]

    def _direction(self, kind: str) -> np.ndarray:
        if kind == "std":
            return -self.std
        if kind == "unit":
            norm = float(np.linalg.norm(self.mean))
            if norm == 0.0:
                raise ValueError("benign mean is zero, unit perturbation undefined")
            return -self.mean / norm
        if kind == "sign":
            return -np.sign(self.mean)
        raise ValueError(f"unknown perturbation {kind!r}")


def benign_mean(benign: np.ndarray) -> np.ndarray:
    """Mean of the benign rows, the attacker's reference direction."""
    return BenignColumns(benign).mean


def perturbation_vector(kind: str, benign: np.ndarray) -> np.ndarray:
    """Direction the crafted update pushes along.

    "std": negative per-dimension population std of the benign rows.
    "unit": negative unit vector along the benign mean.
    "sign": negative sign pattern of the benign mean.
    """
    return BenignColumns(benign).perturbation(kind)


def craft_malicious(grad_benign: np.ndarray, grad_perturb: np.ndarray,
                    gamma: float) -> np.ndarray:
    """The poisoned update: benign mean plus gamma times the perturbation."""
    if grad_benign.shape != grad_perturb.shape:
        raise ValueError(
            f"perturbation shape {grad_perturb.shape} does not match "
            f"benign mean {grad_benign.shape}")
    return grad_benign + gamma * grad_perturb


def _deviation(benign: np.ndarray, gb: np.ndarray, gp: np.ndarray, m: int,
               gamma: float, rule: AggregationRule) -> float:
    mal = gb + gamma * gp
    rows = np.vstack([benign, np.tile(mal, (m, 1))]) if m else benign
    return float(np.linalg.norm(gb - aggregate(rule, rows)))


def agr_deviation(benign: np.ndarray, m: int, perturb: str, gamma: float,
                  rule: AggregationRule) -> float:
    """L2 distance between the benign mean and what the rule outputs once m
    copies of the crafted row are appended."""
    if m < 0:
        raise ValueError("m must be non-negative")
    cols = BenignColumns(benign)
    return _deviation(cols.rows, cols.mean, cols.perturbation(perturb), m,
                      gamma, rule)


class _CraftedStack:
    """What a rule makes of the benign rows stacked with m copies of one
    crafted row, read off the benign columns sorted once.

    Where k sorted benign values of a column sort before the crafted value v
    (np.sort puts NaN last, so a NaN v has k = n), row j of the sorted stack
    is sorted[j] for j < k, v for k <= j < k + m, and sorted[j - m] above.
    The rule reads only rows lo..hi-1, so `below` holds sorted[j] and `above`
    sorted[j - m] for those j, padded where the row does not exist: a NaN pad
    never sorts before v, and a -inf pad sorts before every v but -inf, which
    it equals. Then j < k exactly where below < v, and j < k + m exactly where
    above < v, except in the NaN columns. Benign values equal to v count as
    after it; they are the same value either way.
    """

    def __init__(self, sorted_benign: np.ndarray, m: int, rule: AggregationRule):
        n, d = sorted_benign.shape
        self.rule = rule
        lo, hi = rule_window(rule, n + m)
        j = np.arange(lo, hi)
        self.below = np.full((hi - lo, d), np.nan)
        self.below[j < n] = sorted_benign[j[j < n]]
        self.above = np.full((hi - lo, d), -np.inf)
        self.above[j >= m] = sorted_benign[j[j >= m] - m]
        self.head = (j < n)[:, None]   # the rows a NaN v has before it

    def aggregate(self, crafted: np.ndarray) -> np.ndarray:
        """aggregate(rule, stack): the same sums in the same order, so the
        same bits, except that where +0.0 and -0.0 tie a zero may take the
        other sign, which no deviation can see."""
        before = self.below < crafted
        inside = self.above < crafted
        nan = np.isnan(crafted)
        if nan.any():
            before[:, nan] = self.head
            inside[:, nan] = True
        win = np.where(inside, crafted, self.above)   # rows lo..hi-1 of the stack
        np.copyto(win, self.below, where=before)
        return reduce_window(self.rule, win)


def gamma_search(benign: np.ndarray | BenignColumns, m: int, perturb: str,
                 rule: AggregationRule, gamma_init: float = 10.0,
                 tau: float = 1e-5) -> GammaSearchResult:
    """Halving search for the gamma that maximizes agr_deviation.

    Start at gamma_init with step gamma_init / 2. Each iteration evaluates the
    deviation at the current gamma: if it is within a 1e-6 relative slack of
    the best seen, the gamma is recorded as successful and the search moves
    up, otherwise it moves down. The step halves every iteration and the
    search stops once it drops below tau, returning the largest successful
    gamma. Gamma stays within [0, 2 * gamma_init] throughout.

    `benign` is the benign row matrix or a BenignColumns built from it. Each
    deviation equals agr_deviation's bit for bit, but costs no sort.
    """
    if gamma_init <= 0:
        raise ValueError("gamma_init must be positive")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if m < 1:
        raise ValueError("need at least one malicious row to search over")
    cols = benign if isinstance(benign, BenignColumns) else BenignColumns(benign)
    gb = cols.mean
    gp = cols.perturbation(perturb)
    stack = _CraftedStack(cols.sorted, m, rule)
    gamma = gamma_init
    step = gamma_init / 2.0
    best = 0.0
    top_gamma = None
    top_dev = 0.0
    evals = 0
    while step >= tau:
        dev = float(np.linalg.norm(gb - stack.aggregate(gb + gamma * gp)))
        evals += 1
        if dev >= (1.0 - _SUCCESS_RTOL) * best:
            if top_gamma is None or gamma > top_gamma:
                top_gamma, top_dev = gamma, dev
            gamma += step
        else:
            gamma -= step
        best = max(best, dev)
        step /= 2.0
    return GammaSearchResult(top_gamma, top_dev, evals)


def lie_update(benign: np.ndarray, z: float) -> np.ndarray:
    """Benign mean shifted by z population standard deviations per dimension."""
    cols = BenignColumns(benign)
    return cols.mean + z * cols.std


def craft_round_update(attack: AttackSpec, benign: np.ndarray, m: int,
                       deployed_rule: AggregationRule):
    """The malicious row all m colluding clients submit this round.

    Returns (vector, gamma, deviation); gamma and deviation are None for lie.
    Raises FloatingPointError when every deviation of the gamma search is NaN,
    which means the benign updates are no longer finite.
    """
    if attack.kind == "lie":
        return lie_update(benign, attack.z), None, None
    if attack.kind == "agropt":
        cols = BenignColumns(benign)
        res = gamma_search(cols, m, attack.perturb, deployed_rule,
                           attack.gamma_init, attack.tau)
        if res.gamma is None:
            raise FloatingPointError("every deviation of the gamma search is "
                                     "NaN: the benign updates are not finite")
        gp = cols.perturbation(attack.perturb)
        return craft_malicious(cols.mean, gp, res.gamma), res.gamma, res.deviation
    raise ValueError(f"attack kind {attack.kind!r} crafts no update")

"""Model-poisoning update crafting.

Two families:

* lie_update: shift the benign mean by z population standard deviations,
  staying inside the benign spread so robust rules keep the row.
* gamma-scaled crafting: malicious = benign mean + gamma * perturbation, with
  gamma chosen (by a halving search) to maximize how far the deployed
  aggregation rule moves from the benign mean when m copies of the crafted
  row join the benign rows.

Nothing here sorts the stacked rows. BenignColumns sorts the benign columns
once per round; the m crafted rows are identical, so row j of the sorted
stack is the crafted value clamped to [sorted[j - m], sorted[j]], and a
_CraftedStack reduces that clamp over the rule's window with the same
rule_window and reduce_window that aggregate uses. The gamma search
evaluates every deviation that way, bit for bit the one that stacking the
rows and calling aggregate gives; agr_deviation still takes that route and
is the reference the tests hold the search to. Once the crafted row is
clamped in every column, past the window on the side gamma pushes it, no
larger gamma can change the window: the search reuses that deviation for
every later probe at or above that gamma instead of aggregating again, which
on a plateau leaves 2 aggregations of the 19 probes. The round loop
(protocol._aggregate_round) takes the attacked round's aggregate from the
same stack and aggregates the stacked rows again only in its zero columns,
where a +0.0/-0.0 tie may have given the other sign.

All crafting reads only the benign rows it is given; nothing here inspects
malicious clients' own data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .aggregation import (AggregationRule, _check_matrix, aggregate,
                          reduce_window, rule_window)

ATTACK_KINDS = ("none", "lie", "agropt")
PERTURB_KINDS = ("std", "unit", "sign")

# relative slack when comparing a new deviation against the best seen
_SUCCESS_RTOL = 1e-6


@dataclass(frozen=True)
class GammaSearchResult:
    """The largest successful gamma and its deviation (gamma None if every
    deviation was NaN), and how many gammas the search probed, whether it
    aggregated at each or reused a clamped deviation."""
    gamma: float
    deviation: float
    evaluations: int


def _check_search(gamma_init: float, tau: float) -> None:
    """A finite positive start and stopping step, so the halving ends, and a
    first step gamma_init / 2 of at least tau, so it evaluates a gamma."""
    for name, v in (("gamma_init", gamma_init), ("tau", tau)):
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    if tau > gamma_init / 2.0:
        raise ValueError(f"tau must be at most gamma_init / 2 = {gamma_init / 2.0}, "
                         f"got {tau}")


@dataclass(frozen=True)
class AttackSpec:
    """What the malicious coalition does each round.

    kind "none" disables the attack. "lie" uses lie_update(z). "agropt" runs
    the gamma search against the deployed rule. start_round delays the
    attack; before it, malicious clients behave honestly.
    """
    kind: str = "none"            # one of ATTACK_KINDS
    z: float = 1.5
    perturb: str = "std"          # one of PERTURB_KINDS
    gamma_init: float = 10.0
    tau: float = 1e-5
    start_round: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.perturb not in PERTURB_KINDS:
            raise ValueError(f"unknown perturbation {self.perturb!r}")
        _check_search(self.gamma_init, self.tau)
        if not math.isfinite(self.z):
            raise ValueError(f"z must be finite, got {self.z}")
        if self.start_round < 0:
            raise ValueError("start_round must be non-negative")


class BenignColumns:
    """The benign rows with every column sorted once, and what the attacker
    derives from them: the benign mean (their fedavg aggregate), the
    population standard deviation and the perturbation directions.

    gamma_search, lie_update and craft_round_update accept one in place of
    the row matrix, so that a caller aggregating the round afterwards reads
    the same sort.
    """

    def __init__(self, benign: np.ndarray):
        self.rows = _check_matrix(benign)
        self.sorted = np.sort(self.rows, axis=0)
        self.mean = reduce_window(AggregationRule("fedavg"), self.sorted)
        self._directions: dict[str, np.ndarray] = {}
        self._stacks: dict[tuple[int, AggregationRule], _CraftedStack] = {}

    def stack(self, m: int, rule: AggregationRule) -> _CraftedStack:
        """The _CraftedStack of these columns with m crafted rows under the
        rule, built once per (m, rule)."""
        if (m, rule) not in self._stacks:
            self._stacks[m, rule] = _CraftedStack(self.sorted, m, rule)
        return self._stacks[m, rule]

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
        """Direction the crafted update pushes along, computed once per kind.

        "std": negative per-dimension population std of the benign rows.
        "unit": negative unit vector along the benign mean.
        "sign": negative sign pattern of the benign mean.
        """
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


def _columns(benign: np.ndarray | BenignColumns) -> BenignColumns:
    return benign if isinstance(benign, BenignColumns) else BenignColumns(benign)


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

    Row j of the column-sorted stack is the crafted value v clamped to
    [sorted[j - m], sorted[j]]. For the rows lo..hi-1 of the rule's window,
    `above` holds sorted[j - m] (-inf where j < m) and `below` sorted[j]
    (NaN where j >= n, which np.fmin passes over). A NaN v sorts last, as
    np.sort puts it: np.maximum keeps the NaN and np.fmin takes sorted[j].
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

    def aggregate(self, crafted: np.ndarray) -> np.ndarray:
        """aggregate(rule, stack): the same sums in the same order, so the
        same bits, except that where +0.0 and -0.0 tie a zero may take the
        other sign, which no deviation can see."""
        return reduce_window(self.rule, np.fmin(np.maximum(crafted, self.above),
                                                self.below))

    def clamped(self, crafted: np.ndarray, gb: np.ndarray, gp: np.ndarray) -> bool:
        """Whether crafted = gb + gamma * gp (gamma > 0) sits strictly past
        the window's outer bound on the side gp pushes it, below above[0]
        where gp < 0 and above below[-1] where gp > 0, in every column that
        moves with gamma. A column does not move if gp is 0 or non-finite or
        gb is non-finite. Each clamp then returns its bound, not the crafted
        value, and fl(gb + fl(gamma * gp)) is monotone in gamma, so every
        larger gamma gives this window bit for bit."""
        past = np.where(gp < 0, crafted < self.above[0], crafted > self.below[-1])
        still = (gp == 0) | ~np.isfinite(gp) | ~np.isfinite(gb)
        return bool(np.all(past | still))


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

    Once the crafted row at some gamma is clamped in every column
    (_CraftedStack.clamped), every probe at that gamma or above reuses its
    deviation instead of evaluating it. That is exact: every gamma probed is
    positive, since the steps down sum to less than gamma_init, and there
    the window, and so the deviation, is the same bits. The check runs only
    after a probe whose deviation equals the previous one bit for bit, so a
    search that never reaches a plateau pays nothing for it. `evaluations`
    counts every gamma probed.
    """
    _check_search(gamma_init, tau)
    if m < 1:
        raise ValueError("need at least one malicious row to search over")
    cols = _columns(benign)
    gb = cols.mean
    gp = cols.perturbation(perturb)
    stack = cols.stack(m, rule)
    gamma = gamma_init
    step = gamma_init / 2.0
    best = 0.0
    top_gamma = None
    top_dev = 0.0
    evals = 0
    dev = None
    # every probe at clamp_gamma or above has the deviation clamp_dev
    clamp_gamma, clamp_dev = math.inf, None
    while step >= tau:
        if gamma >= clamp_gamma:
            dev = clamp_dev
        else:
            crafted = gb + gamma * gp
            prev, dev = dev, float(np.linalg.norm(gb - stack.aggregate(crafted)))
            if dev == prev and stack.clamped(crafted, gb, gp):
                clamp_gamma, clamp_dev = gamma, dev
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


def lie_update(benign: np.ndarray | BenignColumns, z: float) -> np.ndarray:
    """Benign mean shifted by z population standard deviations per dimension."""
    cols = _columns(benign)
    return cols.mean + z * cols.std


def craft_round_update(attack: AttackSpec, benign: np.ndarray | BenignColumns,
                       m: int, deployed_rule: AggregationRule):
    """The malicious row all m colluding clients submit this round, from the
    benign row matrix or a BenignColumns built from it.

    Returns (vector, gamma, deviation); gamma and deviation are None for lie.
    Raises FloatingPointError when every deviation of the gamma search is NaN,
    which means the benign updates are no longer finite.
    """
    if attack.kind == "lie":
        return lie_update(benign, attack.z), None, None
    if attack.kind == "agropt":
        cols = _columns(benign)
        res = gamma_search(cols, m, attack.perturb, deployed_rule,
                           attack.gamma_init, attack.tau)
        if res.gamma is None:
            raise FloatingPointError("every deviation of the gamma search is "
                                     "NaN: the benign updates are not finite")
        gp = cols.perturbation(attack.perturb)
        return cols.mean + res.gamma * gp, res.gamma, res.deviation
    raise ValueError(f"attack kind {attack.kind!r} crafts no update")

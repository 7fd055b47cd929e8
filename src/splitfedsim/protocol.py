"""Round-based training orchestration for plain federated learning and for
split-federated learning.

Each round: sample clients, train them, aggregate the update matrix (one
row per selected client, in slot order), broadcast. Under an active attack
the benign rows form their own matrix, the one the attacker's statistics
read; the submitted matrix is a copy of those rows with the crafted attack
vector in the malicious slots.

Both modes train through local_epoch, which steps a (G, d) stack of whole
models in lockstep, one nn.grad call per batch index and batch size. In fl
mode the stack is the clients that train (every selected one, or the benign
ones under an active attack, when it is the benign matrix the attacker
sorts), and a row is a client's full parameter vector after its epoch. In
splitfed mode every selected client, malicious ones too, trains in turn,
lowest id first (SFLV2), on the SplitModel's one-row view: it starts from
the round's client half, and the server half carries over from client to
client. Only the client halves pass through the aggregation rule, so
poisoning acts on them alone, which is what makes the cut position matter.
The SplitModel is splitfed's only state.

Every random choice comes from a fresh generator seeded from the experiment
seed, so a config determines the full history bit for bit. The keys are not
all distinct: the datasets, the partition and the initial parameters each
open default_rng(seed), and sample_clients opens [seed, round_no], which at
round 1 is pick_malicious's key. So until its attack starts, a run computes
the bits of its attack = none twin: Run.fork copies a run in progress there.
"""
from __future__ import annotations

import copy
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import nn, split
from .aggregation import AggregationRule, aggregate
from .attacks import AttackSpec, BenignColumns, craft_round_update
from .config import malicious_count
from .datasets import Dataset, gen_blobs, load_idx, partition_dirichlet, partition_iid, \
    sample_clients
from .models import build_model

if TYPE_CHECKING:
    from .config import ExperimentConfig

# rng key tags of pick_malicious and client_batches (sample_clients' round 1
# key equals pick_malicious's; see the module docstring)
_TAG_MALICIOUS = 1
_TAG_BATCHES = 2


@dataclass(frozen=True)
class RoundContext:
    """Who participates in one round, and the learning rate they train with."""
    round_no: int
    selected: np.ndarray
    malicious: frozenset[int]
    lr: float

    @cached_property
    def mask(self) -> np.ndarray:
        """Per slot of `selected`, whether that client is malicious."""
        return np.isin(self.selected, list(self.malicious))

    @property
    def m_round(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass
class RoundRecord:
    round_no: int
    test_accuracy: float          # fraction in [0, 1]
    loss: float
    gamma: float | None = None
    deviation: float | None = None
    wall_ms: float = 0.0


@dataclass
class RoundInfo:
    """Internals of one aggregation round, mainly for tests and demos."""
    rows: np.ndarray              # submitted update matrix, selected-id order
    benign_rows: np.ndarray | None  # rows that fed the attacker's statistics;
                                    # None when the attack is not active
    loss: float
    gamma: float | None
    deviation: float | None


def pick_malicious(n_clients: int, fraction: float, seed: int) -> frozenset[int]:
    """Fixed compromised coalition: the first ceil(fraction * n) ids of a
    seeded shuffle of all client ids."""
    m = malicious_count(fraction, n_clients)
    if m == 0:
        return frozenset()
    perm = np.random.default_rng([seed, _TAG_MALICIOUS]).permutation(n_clients)
    return frozenset(int(c) for c in perm[:m])


def client_batches(shard: np.ndarray, batch_size: int, round_no: int,
                   client_id: int, seed: int) -> list[np.ndarray]:
    """Shuffled mini-batches over a client's shard for one round."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    rng = np.random.default_rng([seed, _TAG_BATCHES, round_no, client_id])
    order = shard[rng.permutation(shard.size)]
    return [order[i:i + batch_size] for i in range(0, order.size, batch_size)]


def round_rule(defense: str, m_round: int) -> AggregationRule:
    """The deployed rule for a round; trmean trims the true per-round count."""
    if defense == "trmean":
        return AggregationRule("trmean", trim_count=m_round)
    return AggregationRule(defense)


def local_epoch(spec: nn.ModelSpec, stack: np.ndarray | nn.ParamViews, train: Dataset,
                batches: list[list[np.ndarray]], lr: float) -> list[list[float]]:
    """One epoch of mini-batch SGD for each client of a stack, in lockstep:
    row i of the (G, d) stack, or of ParamViews over it, holds client i's
    parameters, updated in place, and batches[i] its mini-batches. At each
    batch index, the clients with a batch there step in one nn.grad call per
    batch size, on the stack's views when that is every client (one client:
    no grouping), else on their rows gathered and scattered back. train holds
    each sample in spec.input_shape. Returns each client's batch losses, in order."""
    held = stack if isinstance(stack, nn.ParamViews) else nn.ParamViews(spec.layout, stack)
    stack = held.params
    if stack.ndim != 2 or len(stack) != len(batches):
        raise nn.ShapeError(f"stack shape {stack.shape} does not match "
                            f"{len(batches)} clients' batches")
    losses = [[] for _ in batches]
    if held.one_row:   # one client steps its batches in turn: nothing to group
        for idx in batches[0]:
            idx = idx[None]
            g, loss = nn.grad(spec, held, train.features.take(idx, axis=0), train.labels[idx])
            nn.sgd_update(stack, g, lr)
            losses[0] += loss
        return losses
    for t in range(max(map(len, batches), default=0)):
        groups: dict[int, list[int]] = {}
        for i, client in enumerate(batches):
            if t < len(client):
                groups.setdefault(client[t].size, []).append(i)
        for members in groups.values():
            idx = np.array([batches[i][t] for i in members])
            whole = len(members) == len(stack)
            rows = stack if whole else stack[members]
            # take gathers the same rows as fancy indexing, with less dispatch
            g, loss = nn.grad(spec, held if whole else rows,
                              train.features.take(idx, axis=0), train.labels[idx])
            nn.sgd_update(rows, g, lr)
            if not whole:
                stack[members] = rows
            for i, value in zip(members, loss):
                losses[i].append(value)
    return losses


def _active_attack(ctx: RoundContext, attack: AttackSpec) -> AttackSpec | None:
    """The attack if it is active this round, else None."""
    if attack.kind != "none" and ctx.round_no >= attack.start_round and ctx.m_round:
        return attack
    return None


def _row_clients(ctx: RoundContext, attack: AttackSpec | None) -> np.ndarray:
    """The selected clients whose own rows the round aggregates: all of them,
    or only the benign ones under an active attack, whose malicious slots the
    crafted update fills."""
    return ctx.selected if attack is None else ctx.selected[~ctx.mask]


def _aggregate_round(ctx: RoundContext, rows: np.ndarray, current: np.ndarray,
                     losses: list[float], attack: AttackSpec | None, defense: str):
    """Aggregate one round. `attack` is None unless active. Without it, rows
    is the update matrix, slot i holding ctx.selected[i]'s row. With it,
    rows holds the benign slots' rows alone, in slot order, the matrix the
    attacker's statistics read; the crafted update fills the malicious slots
    of the submitted matrix.

    A round whose selected clients are all malicious under an active attack
    leaves nothing to craft from and nothing honest to aggregate, so it
    keeps `current`. Returns (new params, RoundInfo)."""
    loss = float(np.mean(losses)) if losses else 0.0
    rule = round_rule(defense, ctx.m_round)
    if attack is None:
        return aggregate(rule, rows), RoundInfo(rows, None, loss, None, None)
    if ctx.mask.all():
        nothing = np.empty((0, current.size))
        return current, RoundInfo(nothing, nothing, loss, None, None)
    cols = BenignColumns(rows)
    try:
        vec, gamma, deviation = craft_round_update(attack, cols, ctx.m_round, rule)
    except FloatingPointError as e:
        raise FloatingPointError(f"round {ctx.round_no}: {e}") from e
    matrix = np.empty((ctx.selected.size, current.size))
    matrix[~ctx.mask] = rows
    matrix[ctx.mask] = vec
    new = _crafted_aggregate(rule, cols, ctx.m_round, vec, matrix)
    return new, RoundInfo(matrix, cols.rows, loss, gamma, deviation)


def _crafted_aggregate(rule: AggregationRule, cols: BenignColumns, m: int,
                       vec: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """aggregate(rule, matrix) for a matrix of the benign rows and m copies
    of vec, read off the attacker's sort of the benign columns.

    Row j of the sorted matrix is vec clamped between two sorted benign
    rows, so the stack's window holds the same values in the same order and
    every result has the same bits, except that where +0.0 and -0.0 tie a
    zero may take the other sign. The zero columns are therefore aggregated
    again from the matrix itself. A NaN's sign bit depends on where its
    column falls in NumPy's vector loop, so a round with a NaN result, which
    the train loop rejects anyway, aggregates the whole matrix."""
    new = cols.stack(m, rule).aggregate(vec)
    if np.isnan(new).any():
        return aggregate(rule, matrix)
    redo = np.flatnonzero(new == 0.0)
    if redo.size:
        new[redo] = aggregate(rule, matrix[:, redo])
    return new


def run_fl_round(ctx: RoundContext, spec: nn.ModelSpec, global_params: np.ndarray,
                 train: Dataset, part: list[np.ndarray], batch_size: int, seed: int,
                 attack: AttackSpec, defense: str):
    """One fl round: the clients that train (every selected one, or only the
    benign ones under an active attack, whose slots the crafted update
    fills) start as rows of one stack copied from the global params and run
    their local epochs in lockstep. Returns (new global params, RoundInfo)."""
    attack = _active_attack(ctx, attack)
    trained = _row_clients(ctx, attack)
    stack = np.tile(global_params, (trained.size, 1))
    batches = [client_batches(part[cid], batch_size, ctx.round_no, cid, seed)
               for cid in trained.tolist()]
    losses = [float(np.mean(client)) if client else 0.0
              for client in local_epoch(spec, stack, train, batches, ctx.lr)]
    return _aggregate_round(ctx, stack, global_params, losses, attack, defense)


def run_splitfed_round(ctx: RoundContext, model: split.SplitModel, train: Dataset,
                       part: list[np.ndarray], batch_size: int, seed: int,
                       attack: AttackSpec, defense: str) -> RoundInfo:
    """One splitfed round on `model`. Each client, lowest id first, starts
    from the round's client half and trains the whole model through
    local_epoch on model.row, so the server half carries over, and sees the
    malicious clients' batches too. The aggregate of the halves of
    _row_clients becomes the model's; the round's loss is the mean over all
    batches. train holds each sample in the model's input shape."""
    attack = _active_attack(ctx, attack)
    start = model.client_params.copy()
    kept = _row_clients(ctx, attack)
    rows = np.empty((kept.size, start.size))
    row_of = dict(zip(kept.tolist(), rows))
    losses = []
    for cid in ctx.selected.tolist():
        model.client_params[...] = start
        batches = client_batches(part[cid], batch_size, ctx.round_no, cid, seed)
        losses += local_epoch(model.spec, model.row, train, [batches], ctx.lr)[0]
        if cid in row_of:
            row_of[cid][...] = model.client_params
    new, info = _aggregate_round(ctx, rows, start, losses, attack, defense)
    model.client_params[...] = new
    return info


def evaluate(spec: nn.ModelSpec, params: np.ndarray, test: Dataset) -> float:
    """Fraction of the test set classified correctly; test holds each sample
    in spec.input_shape, as train() leaves it."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    logits = nn.forward(spec, params, test.features)
    return float(np.mean(logits.argmax(axis=1) == test.labels))


def build_datasets(config: "ExperimentConfig"):
    if config.dataset == "blobs":
        return gen_blobs(config.seed, config.blob_classes, config.blob_dims,
                         config.blob_per_class, config.blob_spread)
    train = load_idx(config.idx_train_images, config.idx_train_labels)
    test = load_idx(config.idx_test_images, config.idx_test_labels)
    num_classes = max(train.num_classes, test.num_classes)
    train.num_classes = test.num_classes = num_classes
    return train, test


def build_partition(config: "ExperimentConfig", train: Dataset) -> list[np.ndarray]:
    if config.partition == "iid":
        return partition_iid(train, config.n_clients, config.seed)
    return partition_dirichlet(train, config.n_clients, config.dirichlet_alpha,
                               config.seed)


# config field -> AttackSpec field: what build_attack reads besides the start
# round. Runs that differ only in _FORK_EXEMPT agree until the attack starts
_ATTACK_CONFIG = {"attack": "kind", "lie_z": "z", "agropt_perturb": "perturb",
                  "agropt_gamma_init": "gamma_init", "agropt_tau": "tau"}
_FORK_EXEMPT = {*_ATTACK_CONFIG, "attack_start_round"}


def build_attack(config: "ExperimentConfig") -> AttackSpec:
    return AttackSpec(**{f: getattr(config, c) for c, f in _ATTACK_CONFIG.items()},
                      start_round=config.resolved_attack_start())


class Run:
    """One experiment in progress: the constructor does what train() does
    before round 0, step() trains one round into records. Given a fork_plan
    (round, configs), train() forks the run there for each config, into forks."""

    def __init__(self, config: "ExperimentConfig"):
        self.config = config.validate()
        self.train_ds, self.test_ds = build_datasets(config)
        self.spec = build_model(config.model, self.train_ds.features[0].size,
                                self.train_ds.num_classes)
        for ds in (self.train_ds, self.test_ds):   # a view: each sample as the model reads it
            ds.features = ds.features.reshape((-1,) + self.spec.input_shape)
        self.part = build_partition(config, self.train_ds)
        self.malicious = pick_malicious(config.n_clients, config.malicious_fraction,
                                        config.seed)
        self.attack = build_attack(config)
        self.params = nn.init_params(self.spec, config.seed)
        self.model = None
        if config.mode == "splitfed":
            cut = split.CutPoint(self.spec.cut_presets[config.cut])
            self.model = split.split_at(self.spec, self.params, cut)
            self.params = self.model.params   # the rounds update it in place
        self.rounds_done, self.records = 0, []
        self.fork_plan, self.forks = None, []

    def step(self) -> None:
        """Train round rounds_done, and record it if it is evaluated."""
        config, r = self.config, self.rounds_done
        t0 = time.perf_counter()
        selected = sample_clients(config.n_clients, config.clients_per_round,
                                  r, config.seed)
        ctx = RoundContext(r, selected, self.malicious, config.lr)
        if self.model is not None:
            info = run_splitfed_round(ctx, self.model, self.train_ds, self.part,
                                      config.batch_size, config.seed, self.attack,
                                      config.defense)
        else:
            self.params, info = run_fl_round(
                ctx, self.spec, self.params, self.train_ds, self.part,
                config.batch_size, config.seed, self.attack, config.defense)
        if not np.isfinite(self.params).all():
            raise FloatingPointError(
                f"round {r}: the parameters are not finite; the run diverged")
        if (r + 1) % config.eval_every == 0 or r == config.rounds - 1:
            acc = evaluate(self.spec, self.params, self.test_ds)
            self.records.append(RoundRecord(r, acc, info.loss, info.gamma,
                                            info.deviation,
                                            (time.perf_counter() - t0) * 1000.0))
        self.rounds_done = r + 1

    def fork(self, config: "ExperimentConfig") -> "Run":
        """This run at its current round as config's run would stand there, for
        a config that differs only in an attack that has not started. It has
        its own parameters and records (wall_ms kept) and shares the rest;
        every random draw is keyed by (seed, round, client)."""
        differ = [f.name for f in fields(config) if f.name not in _FORK_EXEMPT
                  and getattr(config, f.name) != getattr(self.config, f.name)]
        if differ:
            raise ValueError(f"cannot fork: {', '.join(differ)} differ, not only the attack")
        for c in (self.config, config):
            if c.attack != "none" and self.rounds_done > c.resolved_attack_start():
                raise ValueError(f"cannot fork at round {self.rounds_done}: attack = "
                                 f"{c.attack} starts at round {c.resolved_attack_start()}")
        run = copy.copy(self)
        run.config, run.attack = config.validate(), build_attack(config)
        run.records = [replace(rec) for rec in self.records]
        run.fork_plan, run.forks = None, []
        run.params = self.params.copy()
        if self.model is not None:   # a model over the copy, with its own views
            run.model = split.SplitModel(self.spec, self.model.cut, run.params)
        return run


def train(job: "ExperimentConfig | Run") -> list[RoundRecord]:
    """Run a full experiment, from its config or from a Run, which is stepped
    to its end and forked as its fork_plan asks; one RoundRecord per evaluated
    round.

    Raises FloatingPointError naming the round after which the parameters
    are no longer finite, so that a diverged run never reports accuracy."""
    run = job if isinstance(job, Run) else Run(job)
    while True:
        if run.fork_plan and run.fork_plan[0] == run.rounds_done:
            run.forks = [run.fork(c) for c in run.fork_plan[1]]
        if run.rounds_done == run.config.rounds:
            return run.records
        run.step()

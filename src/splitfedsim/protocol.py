"""Round-based training orchestration for plain federated learning and for
split-federated learning.

Each round: sample clients, train them, aggregate the update matrix (one
row per selected client, in slot order), broadcast. Under an active attack
the benign rows form their own matrix, the one the attacker's statistics
read; the submitted matrix is a copy of those rows with the crafted attack
vector in the malicious slots.

In fl mode a row is the client's full parameter vector after one local epoch.
The clients that train (all selected ones, or only the benign ones under an
active attack) are one (G, d) stack and run their epochs in lockstep: at
each batch index, every client with a batch there steps in one nn.grad call
per batch size, with the bits of training alone. Under an attack that stack
is the benign matrix the attacker sorts.

In splitfed mode clients only hold the portion below the cut; the server
portion trains honestly one client at a time (client_forward -> server_step
-> client_backward per batch), and only the client portions pass through the
aggregation rule. Poisoning therefore acts on the client portion alone, which
is what makes the cut position matter. Every selected client, malicious ones
too, trains; each client whose row the round aggregates (every one, or the
benign ones under an active attack) writes its half straight into that
matrix. The SplitModel is splitfed's only state: every client starts from
its client half, which takes the aggregate.

Every random choice comes from a fresh generator seeded from the experiment
seed, so a config determines the full history bit for bit. The keys are not
all distinct: the datasets, the partition and the initial parameters each
open default_rng(seed), and sample_clients opens [seed, round_no], which at
round 1 is pick_malicious's key.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
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


def local_epoch(spec: nn.ModelSpec, stack: np.ndarray, train: Dataset,
                batches: list[list[np.ndarray]], lr: float) -> list[float]:
    """One epoch of mini-batch SGD for each client of a stack, in lockstep:
    row i of the (G, d) stack holds client i's parameters, updated in place,
    and batches[i] its mini-batches. At each batch index, the clients with a
    batch there step in one nn.grad call per batch size: on the stack itself
    when that is every client, else on their rows gathered and scattered
    back. train holds each sample in spec.input_shape, as train() leaves it.
    Returns each client's mean batch loss (0.0 without batches)."""
    if stack.ndim != 2 or len(stack) != len(batches):
        raise nn.ShapeError(f"stack shape {stack.shape} does not match "
                            f"{len(batches)} clients' batches")
    losses = [[] for _ in batches]
    grad_buf = np.empty_like(stack)
    for t in range(max(map(len, batches), default=0)):
        groups: dict[int, list[int]] = {}
        for i, client in enumerate(batches):
            if t < len(client):
                groups.setdefault(client[t].size, []).append(i)
        for members in groups.values():
            idx = np.stack([batches[i][t] for i in members])
            whole = len(members) == len(stack)
            params = stack if whole else stack[members]
            g, loss = nn.grad(spec, params, train.features[idx], train.labels[idx],
                              out=grad_buf[:len(members)])
            nn.sgd_update(params, g, lr)
            if not whole:
                stack[members] = params
            for i, value in zip(members, loss):
                losses[i].append(value)
    return [float(np.mean(client)) if client else 0.0 for client in losses]


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

    The stack's window holds the same values in the same order as the
    sorted matrix, so every nonzero finite result has the same bits; only
    where +0.0 and -0.0 tie may a zero take the other sign. The columns
    whose result is zero or infinite are therefore aggregated again from
    the matrix itself. A NaN's sign bit depends on where its column falls
    in NumPy's vector loop, so a round with a NaN result, which the train
    loop rejects anyway, aggregates the whole matrix."""
    new = cols.stack(m, rule).aggregate(vec)
    if np.isnan(new).any():
        return aggregate(rule, matrix)
    redo = np.flatnonzero((new == 0.0) | np.isinf(new))
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
    stack = np.empty((trained.size, global_params.size))
    stack[...] = global_params
    batches = [client_batches(part[cid], batch_size, ctx.round_no, cid, seed)
               for cid in trained.tolist()]
    losses = local_epoch(spec, stack, train, batches, ctx.lr)
    return _aggregate_round(ctx, stack, global_params, losses, attack, defense)


def run_splitfed_round(ctx: RoundContext, model: split.SplitModel, train: Dataset,
                       part: list[np.ndarray], batch_size: int, seed: int,
                       attack: AttackSpec, defense: str) -> RoundInfo:
    """One splitfed round on `model`. Each client, lowest id first, starts
    from the round's client half; the server half is updated in place across
    clients. Malicious clients train too: the server half sees their
    batches. The aggregate of the halves of _row_clients becomes the model's.
    train holds each sample in the model's input shape, as train() leaves it."""
    attack = _active_attack(ctx, attack)
    start = model.client_params.copy()
    kept = _row_clients(ctx, attack)
    rows = np.empty((kept.size, start.size))
    row_of = dict(zip(kept.tolist(), rows))
    losses = []
    for cid in ctx.selected.tolist():
        model.client_params[...] = start
        for batch_idx in client_batches(part[cid], batch_size, ctx.round_no,
                                        cid, seed):
            losses.append(split.split_train_step(
                model, train.features[batch_idx], train.labels[batch_idx], ctx.lr))
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


def build_attack(config: "ExperimentConfig") -> AttackSpec:
    return AttackSpec(kind=config.attack, z=config.lie_z,
                      perturb=config.agropt_perturb,
                      gamma_init=config.agropt_gamma_init,
                      tau=config.agropt_tau,
                      start_round=config.resolved_attack_start())


def train(config: "ExperimentConfig") -> list[RoundRecord]:
    """Run a full experiment; one RoundRecord per evaluated round.

    Raises FloatingPointError naming the round after which the parameters
    are no longer finite, so that a diverged run never reports accuracy."""
    config.validate()
    train_ds, test_ds = build_datasets(config)
    spec = build_model(config.model, train_ds.features[0].size, train_ds.num_classes)
    for ds in (train_ds, test_ds):   # a view: each sample as the model reads it
        ds.features = ds.features.reshape((-1,) + spec.input_shape)
    part = build_partition(config, train_ds)
    malicious = pick_malicious(config.n_clients, config.malicious_fraction,
                               config.seed)
    attack = build_attack(config)
    params = nn.init_params(spec, config.seed)
    splitfed = config.mode == "splitfed"
    if splitfed:
        cut = split.CutPoint(spec.cut_presets[config.cut])
        model = split.split_at(spec, params, cut)
        params = model.params   # the rounds update it in place
    records = []
    for r in range(config.rounds):
        t0 = time.perf_counter()
        selected = sample_clients(config.n_clients, config.clients_per_round,
                                  r, config.seed)
        ctx = RoundContext(r, selected, malicious, config.lr)
        if splitfed:
            info = run_splitfed_round(ctx, model, train_ds, part, config.batch_size,
                                      config.seed, attack, config.defense)
        else:
            params, info = run_fl_round(
                ctx, spec, params, train_ds, part,
                config.batch_size, config.seed, attack, config.defense)
        if not np.isfinite(params).all():
            raise FloatingPointError(
                f"round {r}: the parameters are not finite; the run diverged")
        if (r + 1) % config.eval_every == 0 or r == config.rounds - 1:
            acc = evaluate(spec, params, test_ds)
            records.append(RoundRecord(r, acc, info.loss, info.gamma,
                                       info.deviation,
                                       (time.perf_counter() - t0) * 1000.0))
    return records

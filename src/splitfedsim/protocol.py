"""Round-based training orchestration for plain federated learning and for
split-federated learning.

Each round: sample clients, run local training, collect one update row per
selected client, replace malicious rows with the crafted attack vector once
the attack is active, aggregate, broadcast.

In fl mode a row is the client's full parameter vector after one local epoch.
In splitfed mode clients only hold the portion below the cut; the server
portion trains honestly one client at a time (client_forward -> server_step ->
client_backward per batch), and only the client portions pass through the
aggregation rule. Poisoning therefore acts on the client portion alone, which
is what makes the cut position matter.

Every random choice is derived from the experiment seed with a purpose tag,
so a config determines the full history bit for bit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import nn, split
from .aggregation import AggregationRule, aggregate
from .attacks import AttackSpec, craft_round_update
from .config import malicious_count
from .datasets import Dataset, Partition, gen_blobs, load_idx, partition_dirichlet, \
    partition_iid, sample_clients
from .models import build_model

if TYPE_CHECKING:
    from .config import ExperimentConfig

# rng stream tags, so no two purposes share a stream
_TAG_MALICIOUS = 1
_TAG_BATCHES = 2


@dataclass(frozen=True)
class RoundContext:
    """Who participates in one round and under which trim count."""
    round_no: int
    selected: np.ndarray
    malicious: frozenset[int]
    lr: float

    @property
    def m_round(self) -> int:
        return sum(1 for cid in self.selected if cid in self.malicious)


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


def local_epoch(spec: nn.ModelSpec, params: np.ndarray, train: Dataset,
                batches: list[np.ndarray], lr: float):
    """One epoch of mini-batch SGD from the given params. Returns the new
    params and the mean batch loss."""
    losses = []
    for batch_idx in batches:
        x = train.features[batch_idx].reshape((-1,) + spec.input_shape)
        y = train.labels[batch_idx]
        g, loss = nn.grad(spec, params, x, y)
        params = nn.sgd_step(params, g, lr)
        losses.append(loss)
    return params, (float(np.mean(losses)) if losses else 0.0)


def _attack_active(ctx: RoundContext, attack: AttackSpec) -> bool:
    return attack.kind != "none" and ctx.round_no >= attack.start_round \
        and ctx.m_round > 0


def _aggregate_round(ctx: RoundContext, rows: dict[int, np.ndarray],
                     current: np.ndarray, losses: list[float],
                     attack: AttackSpec, defense: str):
    """Replace the malicious rows with the crafted update once the attack is
    active, then aggregate the rows in selected-id order.

    A round whose selected clients are all malicious while the attack is
    active leaves nothing to craft from and nothing honest to aggregate, so
    it keeps `current`. Returns (new params, RoundInfo)."""
    loss = float(np.mean(losses)) if losses else 0.0
    rule = round_rule(defense, ctx.m_round)
    benign = None
    gamma = deviation = None
    if _attack_active(ctx, attack):
        benign_ids = [int(c) for c in ctx.selected if int(c) not in ctx.malicious]
        if not benign_ids:
            nothing = np.empty((0, current.size))
            return current, RoundInfo(nothing, nothing, loss, None, None)
        benign = np.stack([rows[cid] for cid in benign_ids])
        vec, gamma, deviation = craft_round_update(attack, benign, ctx.m_round, rule)
        if vec.shape != current.shape:
            raise nn.ShapeError("crafted update does not match the aggregated parameters")
        for cid in ctx.selected:
            if int(cid) in ctx.malicious:
                rows[int(cid)] = vec
    matrix = np.stack([rows[int(c)] for c in ctx.selected])
    new = aggregate(rule, matrix)
    return new, RoundInfo(matrix, benign, loss, gamma, deviation)


def run_fl_round(ctx: RoundContext, spec: nn.ModelSpec, global_params: np.ndarray,
                 train: Dataset, part: Partition, batch_size: int, seed: int,
                 attack: AttackSpec, defense: str):
    """One fl round. Returns (new global params, RoundInfo)."""
    active = _attack_active(ctx, attack)
    rows = {}
    losses = []
    for cid in ctx.selected:
        cid = int(cid)
        if active and cid in ctx.malicious:
            continue  # their submission is replaced below; local work is moot
        batches = client_batches(part.shard(cid), batch_size, ctx.round_no, cid, seed)
        new_params, loss = local_epoch(spec, global_params, train, batches, ctx.lr)
        rows[cid] = new_params
        losses.append(loss)
    return _aggregate_round(ctx, rows, global_params, losses, attack, defense)


def run_splitfed_round(ctx: RoundContext, model: split.SplitModel,
                       client_global: np.ndarray, train: Dataset,
                       part: Partition, batch_size: int, seed: int,
                       attack: AttackSpec, defense: str):
    """One splitfed round. The server portion inside `model` is updated in
    place across clients (lowest id first); client portions are aggregated.
    Returns (new client globals, RoundInfo)."""
    rows = {}
    losses = []
    for cid in ctx.selected:
        cid = int(cid)
        model.client_params = client_global.copy()
        for batch_idx in client_batches(part.shard(cid), batch_size, ctx.round_no,
                                        cid, seed):
            x = train.features[batch_idx].reshape((-1,) + model.spec.input_shape)
            y = train.labels[batch_idx]
            losses.append(split.split_train_step(model, x, y, ctx.lr))
        rows[cid] = model.client_params
    return _aggregate_round(ctx, rows, client_global, losses, attack, defense)


def evaluate(spec: nn.ModelSpec, params: np.ndarray, test: Dataset) -> float:
    """Fraction of the test set classified correctly."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    x = test.features.reshape((-1,) + spec.input_shape)
    logits = nn.forward(spec, params, x).logits
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


def build_partition(config: "ExperimentConfig", train: Dataset) -> Partition:
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
    feat_dim = int(np.prod(train_ds.features.shape[1:]))
    spec = build_model(config.model, feat_dim, train_ds.num_classes)
    part = build_partition(config, train_ds)
    malicious = pick_malicious(config.n_clients, config.malicious_fraction,
                               config.seed)
    attack = build_attack(config)
    params = nn.init_params(spec, config.seed)
    splitfed = config.mode == "splitfed"
    if splitfed:
        cut = split.CutPoint(spec.cut_presets[config.cut])
        model = split.split_at(spec, params, cut)
        client_global = model.client_params.copy()
    records = []
    for r in range(config.rounds):
        t0 = time.perf_counter()
        selected = sample_clients(config.n_clients, config.clients_per_round,
                                  r, config.seed)
        ctx = RoundContext(r, selected, malicious, config.lr)
        if splitfed:
            client_global, info = run_splitfed_round(
                ctx, model, client_global, train_ds, part,
                config.batch_size, config.seed, attack, config.defense)
            current = np.concatenate([client_global, model.server_params])
        else:
            params, info = run_fl_round(
                ctx, spec, params, train_ds, part,
                config.batch_size, config.seed, attack, config.defense)
            current = params
        if not np.isfinite(current).all():
            raise FloatingPointError(
                f"round {r}: the parameters are not finite; the run diverged")
        if (r + 1) % config.eval_every == 0 or r == config.rounds - 1:
            acc = evaluate(spec, current, test_ds)
            records.append(RoundRecord(r, acc, info.loss, info.gamma,
                                       info.deviation,
                                       (time.perf_counter() - t0) * 1000.0))
    return records

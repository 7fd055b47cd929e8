"""Differential oracle for the sweep engine: train_many, on one process or
two, and a run forked before its attack starts compute the bits of training
each config on its own.

Small grids of valid configs that share a base are drawn with the validity
oracle's draw_config, then varied in mode, cut, defense, attack, malicious
fraction, attack start and partition (Dirichlet shards often give a client
one sample, as partition_dirichlet does when it refills a client that its
draw left empty); one base in five reads IDX data. A grid often holds an
attacked config with its attack = none reference, which train_many trains as
one task that forks there. Records are compared field by field, floats by
float.hex, wall_ms aside; a config that fails must raise the same exception
type both ways.
"""
import dataclasses

import numpy as np
import pytest

from splitfedsim.config import ConfigError, ExperimentConfig
from splitfedsim.experiments import train_many
from splitfedsim.protocol import Run, build_datasets, build_partition, train
from test_validity_oracle import _pick, draw_config

GRIDS = 50
SEED = 20261021

VARIED = {
    "mode": ("fl", "splitfed"),
    "cut": ("v1", "v2", "v3"),
    "defense": ("fedavg", "trmean", "median"),
    "attack": ("none", "lie", "agropt"),
    "malicious_fraction": (0.0, 0.2, 0.5),
    "attack_start_round": (-1, 0, 1, 2, 3, 5),
    "partition": ("iid", "dirichlet"),
    "lr": (0.05, 0.5, 1e4),   # 1e4 diverges now and then, in a few rounds
}


def _valid(config) -> bool:
    try:
        config.validate()
    except ConfigError:
        return False
    return True


def draw_grid(rng, idx_fields) -> list:
    """2 to 6 valid configs: a drawn base, variants of members in one or two
    VARIED fields, and attack = none references of attacked members."""
    base = draw_config(rng, idx_fields)
    while not _valid(base):
        base = draw_config(rng, idx_fields)
    # up to 6 rounds, so that attacks start late and lr = 1e4 can diverge
    grid = [dataclasses.replace(base, rounds=int(rng.integers(0, 7)))]
    size = int(rng.integers(2, 7))
    while len(grid) < size:
        member = _pick(rng, grid)
        if member.attack != "none" and rng.random() < 0.4:
            config = dataclasses.replace(member, attack="none")
        else:
            keys = rng.choice(list(VARIED), size=int(rng.integers(1, 3)), replace=False)
            config = dataclasses.replace(member, **{k: _pick(rng, VARIED[k]) for k in keys})
        if _valid(config):
            grid.append(config)
    return grid


def _bits(records):
    """Every field but wall_ms, floats by float.hex."""
    def h(v):
        return None if v is None else v.hex()
    return [(r.round_no, h(r.test_accuracy), h(r.loss), h(r.gamma), h(r.deviation))
            for r in records]


def _outcome(fn, *args):
    """fn's result as bits, or the type of what it raised."""
    try:
        return fn(*args)
    except (ConfigError, FloatingPointError) as e:
        return type(e)


def _gives_a_client_one_sample(config) -> bool:
    """Whether config's Dirichlet partition gives some client one sample."""
    if config.partition != "dirichlet":
        return False
    try:
        train_ds, _ = build_datasets(config)
    except ConfigError:
        return False
    return min(len(shard) for shard in build_partition(config, train_ds)) == 1


def _run_to_end(run):
    """The bits of a Run trained to its end: its records and final parameters."""
    return _bits(train(run)), run.params.tobytes()


def _fresh(config):
    return _outcome(lambda: _run_to_end(Run(config)))


def _check_fork(rng, config):
    """Fork config's run off a twin that differs only in its attack, at a
    random round no later than either attack's start; both then train to
    their end, the twin first, as train_many trains a task."""
    twin = dataclasses.replace(config, attack=_pick(rng, VARIED["attack"]))
    last = min([c.resolved_attack_start() for c in (config, twin) if c.attack != "none"]
               + [config.rounds])
    at = int(rng.integers(0, last + 1))

    def forked():
        parent = Run(twin)
        for _ in range(at):
            parent.step()
        fork = parent.fork(config)
        return _run_to_end(parent), _run_to_end(fork)

    want = _fresh(twin), _fresh(config)
    got = _outcome(forked)
    if isinstance(got, type):   # the parent failed, before or after the fork
        assert got in want, (at, twin, config)
    else:
        assert got == want, (at, twin, config)


def test_train_many_and_forks_compute_the_bits_of_separate_runs(idx_fields):
    rng = np.random.default_rng(SEED)
    forked = grouped = failed = idx = single = 0
    for _ in range(GRIDS):
        grid = draw_grid(rng, idx_fields)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [_outcome(lambda c=c: _bits(train(c))) for c in grid]
            raised = {w for w in want if isinstance(w, type)}
            for n_jobs in (1, 2):
                got = _outcome(lambda: [_bits(h) for h in train_many(grid, n_jobs)])
                if raised:   # the task that fails first decides which one
                    assert got in raised, (n_jobs, grid)
                else:
                    assert got == want, (n_jobs, grid)
            for config in grid:
                if config.attack != "none" and rng.random() < 0.5:
                    _check_fork(rng, config)
                    forked += 1
        failed += bool(raised)
        idx += grid[0].dataset == "idx"
        single += any(_gives_a_client_one_sample(c) for c in grid)
        grouped += any(dataclasses.replace(c, attack="none") in grid
                       for c in grid if c.attack != "none")
    # the draws must keep reaching the fork paths, failing runs, IDX data
    # and Dirichlet shards of one sample
    counts = forked, grouped, failed, idx, single
    assert (forked >= GRIDS // 2 and grouped >= GRIDS // 4 and failed
            and idx >= GRIDS // 10 and single >= GRIDS // 10), counts


@pytest.mark.parametrize("mode,seed,start", [("fl", 0, 6), ("fl", 0, 2), ("splitfed", 5, 1)])
def test_a_diverging_config_fails_alike_in_train_and_train_many(mode, seed, start):
    """A config that diverges at round 3 or 4, alone and beside an attacked twin
    that forks from it before or after that, raises the same exception type
    from train() and train_many()."""
    config = ExperimentConfig(seed=seed, mode=mode, rounds=8, lr=1e4, blob_per_class=10,
                              n_clients=4, clients_per_round=4, attack_start_round=start)
    grid = [config, dataclasses.replace(config, attack="lie")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert _outcome(train, config) is FloatingPointError
        for n_jobs in (1, 2):
            assert _outcome(train_many, grid[:1], n_jobs) is FloatingPointError
            assert _outcome(train_many, grid, n_jobs) is FloatingPointError

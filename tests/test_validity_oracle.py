"""Validity oracle over the config space: every config that passes
validate() either trains or fails with ConfigError or FloatingPointError,
and a FloatingPointError from crafting means the benign updates really are
not finite.

A seeded generator draws small configs over every field, invalid values
included, so that validate() itself decides which ones run. Each valid one
trains for at most 3 rounds. The draws span mlp and cnn, fl and splitfed,
every cut, every defense and attack, and blob and IDX data, so this also runs
the layer plan over each model, mode and cut.
"""
import collections

import numpy as np
import pytest

from splitfedsim import protocol
from splitfedsim.config import ConfigError, ExperimentConfig
from splitfedsim.protocol import train

DRAWS = 1500
SEED = 20261018


def _pick(rng, values):
    return values[int(rng.integers(len(values)))]


def _count(rng, low, high, bad):
    """Mostly an integer in [low, high]; one draw in ten from `bad`."""
    if rng.random() < 0.1:
        return _pick(rng, bad)
    return int(rng.integers(low, high + 1))


def draw_config(rng, idx_fields) -> ExperimentConfig:
    n_clients = _count(rng, 1, 12, (0, 200))
    fields = dict(
        seed=int(rng.integers(0, 1000)),
        mode=_pick(rng, ("splitfed", "fl")),
        model=_pick(rng, ("mlp", "cnn")),
        cut=_pick(rng, ("v1", "v2", "v3")),
        blob_classes=_count(rng, 2, 5, (0, 1)),
        blob_dims=_pick(rng, (1, 2, 5, 8, 16, 16, 36, 64)),
        blob_per_class=_count(rng, 5, 30, (3, 4)),
        blob_spread=_pick(rng, (0.5, 1.0, 3.0)),
        partition=_pick(rng, ("iid", "dirichlet")),
        dirichlet_alpha=_pick(rng, (0.05, 0.5, 5.0)),
        n_clients=n_clients,
        clients_per_round=_count(rng, 1, max(n_clients, 1), (0, n_clients + 1)),
        malicious_fraction=_pick(rng, (0.0, 0.1, 0.2, 0.34, 0.5, 0.9)),
        rounds=int(rng.integers(0, 4)),
        lr=_pick(rng, (0.01, 0.05, 0.5, 5.0, 1e4)),
        batch_size=_count(rng, 1, 40, (0, -3)),
        defense=_pick(rng, ("fedavg", "trmean", "median")),
        attack=_pick(rng, ("none", "lie", "agropt")),
        lie_z=_pick(rng, (0.5, 1.5, 10.0)),
        agropt_perturb=_pick(rng, ("std", "unit", "sign")),
        agropt_gamma_init=_pick(rng, (1.0, 10.0, 100.0)),
        # one draw in ten above every gamma_init / 2, where the search has no step
        agropt_tau=60.0 if rng.random() < 0.1 else _pick(rng, (1e-5, 1e-2)),
        attack_start_round=int(rng.integers(-1, 4)),
        eval_every=_count(rng, 1, 3, (0,)),
    )
    if rng.random() < 0.2:
        # all-zero images, labels alternating 0 and 1
        train_geom = (int(rng.integers(1, 41)), _pick(rng, (2, 4, 8)), _pick(rng, (4, 8)))
        test_geom = (int(rng.integers(0, 9)),) + (
            train_geom[1:] if rng.random() < 0.8 else (4, 4))
        fields.update(idx_fields(train_geom, test_geom))
    return ExperimentConfig(**fields)


def test_every_valid_config_trains_or_fails_clearly(idx_fields, monkeypatch):
    craft = protocol.craft_round_update

    def craft_or_prove_divergence(attack, cols, m, rule):
        try:
            return craft(attack, cols, m, rule)
        except FloatingPointError:
            assert not np.isfinite(cols.rows).all(), "finite benign rows reported as diverged"
            raise

    monkeypatch.setattr(protocol, "craft_round_update", craft_or_prove_divergence)
    rng = np.random.default_rng(SEED)
    outcomes = collections.Counter()
    covered = set()
    for i in range(DRAWS):
        config = draw_config(rng, idx_fields)
        try:
            config.validate()
        except ConfigError:
            outcomes["invalid"] += 1
            continue
        try:
            # diverging draws overflow on their way to the FloatingPointError
            with np.errstate(over="ignore", invalid="ignore"):
                records = train(config)
        except (ConfigError, FloatingPointError):
            outcomes["failed clearly"] += 1
            continue
        except Exception as e:  # anything else is a defect
            pytest.fail(f"draw {i}: {type(e).__name__}: {e}\n{config}")
        outcomes["finished"] += 1
        covered.add((config.model, config.mode,
                     config.cut if config.mode == "splitfed" else "-"))
        assert [rec.round_no for rec in records] == [
            r for r in range(config.rounds)
            if (r + 1) % config.eval_every == 0 or r == config.rounds - 1]
        for rec in records:
            assert 0.0 <= rec.test_accuracy <= 1.0
            assert np.isfinite(rec.loss)
    # the draws must keep reaching training, over every model, mode and cut
    assert outcomes["finished"] >= DRAWS // 5, outcomes
    assert covered == {(m, "fl", "-") for m in ("mlp", "cnn")} | {
        (m, "splitfed", c) for m in ("mlp", "cnn") for c in ("v1", "v2", "v3")}, covered

"""End-to-end behavioural criteria for the simulator.

Each test here encodes one numbered guarantee about the system as a whole:
exactness of the split pipeline and the numeric kernels (c01-c04), the
qualitative attack/defense orderings the simulator exists to reproduce at
desk scale (c05-c08), the clean-training baseline (c09), bit-level
reproducibility of the command-line entry points (c10), and the wall-clock
budget of this whole suite (c11).  The conftest prints one PASS/FAIL line
per criterion at the end of the run.

The desk-scale experiments (c05-c08) share full training runs through the
session-scoped run cache; every run is deterministic in its config, so
sharing changes nothing but wall time.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from splitfedsim import nn, split
from splitfedsim.aggregation import AggregationRule, aggregate
from splitfedsim.attacks import BenignColumns, agr_deviation, gamma_search
from splitfedsim.cli import main
from splitfedsim.config import ExperimentConfig
from splitfedsim.gradcheck import run_gradient_checks
from splitfedsim.models import build_model

DESK_SEEDS = (42, 43, 44)


def _desk(**overrides) -> ExperimentConfig:
    """Desk-scale attacked configuration; overrides win over the attack dials."""
    fields = dict(defense="trmean", attack="agropt")
    fields.update(overrides)
    return ExperimentConfig(**fields)


# --------------------------------------------------------------------- c01


def test_c01_split_equivalence():
    """Split training must be indistinguishable from whole-model training:
    same parameters, bit for bit, for both architectures, every cut preset,
    and 20 seeds, in under a minute."""
    t0 = time.monotonic()
    for model_name, in_dim, num_classes in (("mlp", 8, 4), ("cnn", 64, 4)):
        spec = build_model(model_name, in_dim, num_classes)
        for cut_name, cut_idx in sorted(spec.cut_presets.items()):
            for seed in range(20):
                rng = np.random.default_rng([seed, cut_idx, in_dim])
                full = nn.init_params(spec, seed)
                model = split.split_at(spec, full.copy(), split.CutPoint(cut_idx))
                for _ in range(3):
                    x = rng.normal(size=(8, *spec.input_shape))
                    y = rng.integers(0, num_classes, size=8)
                    g, _ = nn.grad(spec, full, x, y)
                    full = nn.sgd_step(full, g, 0.05)
                    split.split_train_step(model, x, y, 0.05)
                np.testing.assert_array_equal(model.params, full)
    assert time.monotonic() - t0 < 60.0


# --------------------------------------------------------------------- c02


def test_c02_gradient_oracle():
    """Analytic gradients agree with central finite differences to 1e-4
    relative error across at least 20 random instances covering every layer
    kind, in under a minute."""
    t0 = time.monotonic()
    results = run_gradient_checks(count=24, seed=0)
    assert len(results) >= 20
    assert all(r.passed for r in results)
    assert max(r.max_rel_err for r in results) < 1e-4
    assert time.monotonic() - t0 < 60.0


# --------------------------------------------------------------------- c03


def test_c03_aggregator_oracles():
    """Trimmed mean and coordinate median match brute-force sort oracles
    exactly on 100 random matrices, and zero trimming is plain averaging."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        d = int(rng.integers(1, 8))
        updates = rng.normal(size=(n, d))
        srt = np.sort(updates, axis=0)

        mid = n // 2
        med_oracle = srt[mid] if n % 2 else (srt[mid - 1] + srt[mid]) / 2.0
        np.testing.assert_array_equal(
            aggregate(AggregationRule("median"), updates), med_oracle)

        m = int(rng.integers(0, (n - 1) // 2 + 1))
        tm_oracle = srt[m:n - m].mean(axis=0)
        np.testing.assert_array_equal(
            aggregate(AggregationRule("trmean", trim_count=m), updates), tm_oracle)

        np.testing.assert_array_equal(
            aggregate(AggregationRule("trmean", trim_count=0), updates),
            aggregate(AggregationRule("fedavg"), updates))


# --------------------------------------------------------------------- c04


def test_c04_gamma_search_optimality(grid_deviations):
    """The halving search recovers at least 99% of the best deviation a dense
    gamma grid finds, on 20 random small instances per robust rule; against
    plain averaging the deviation matches its closed form to 1e-9. On the
    first instance the grid's deviations equal agr_deviation's bit for bit."""
    rng = np.random.default_rng(0)
    grid = np.arange(0.0, 10.0 + 1e-3, 1e-3)
    for instance in range(20):
        n = int(rng.integers(4, 10))
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        benign = rng.normal(size=(n, d))
        for rule_kind in ("trmean", "median"):
            trim = m if rule_kind == "trmean" else 0
            if n + m <= 2 * trim:
                trim = (n + m - 1) // 2
            rule = AggregationRule(rule_kind, trim_count=trim)
            res = gamma_search(benign, m, "std", rule, 10.0, 1e-5)
            devs = grid_deviations(benign, m, "std", rule, grid)
            if instance == 0:
                each = [agr_deviation(benign, m, "std", g, rule) for g in grid]
                assert np.array(devs).tobytes() == np.array(each).tobytes()
            assert res.deviation >= 0.99 * max(devs)

    # Closed form under plain averaging: appending m copies of mean + gamma *
    # perturbation moves the average by (m / total rows) * gamma * ||p||.
    rng = np.random.default_rng(5)
    rule = AggregationRule("fedavg")
    for _ in range(20):
        n_benign = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 6))
        benign = rng.normal(size=(n_benign, d))
        gamma = float(rng.uniform(0.1, 9.0))
        gp = BenignColumns(benign).perturbation("std")
        expect = (m / (n_benign + m)) * gamma * float(np.linalg.norm(gp))
        assert agr_deviation(benign, m, "std", gamma, rule) == pytest.approx(
            expect, rel=1e-9)


# --------------------------------------------------------------------- c05


def test_c05_cut_layer_ordering(run_cache):
    """Moving the cut deeper hands the attacker more of the model, so the
    accuracy drop at the deepest preset must beat the shallowest one in every
    seed, with at least a 5-point mean gap, inside a 10-minute budget."""
    t0 = time.monotonic()
    v1 = [run_cache.drop(_desk(seed=s, cut="v1")) for s in DESK_SEEDS]
    v3 = [run_cache.drop(_desk(seed=s, cut="v3")) for s in DESK_SEEDS]
    for shallow, deep in zip(v1, v3):
        assert shallow < deep
    assert float(np.mean(v3)) - float(np.mean(v1)) >= 5.0
    assert time.monotonic() - t0 < 600.0


# --------------------------------------------------------------------- c06


def test_c06_fl_dominance(run_cache):
    """Attacking the whole model (federated mode) should hurt at least as
    much as attacking the deepest client portion, within a 1-point margin."""
    fl = [run_cache.drop(_desk(seed=s, mode="fl")) for s in DESK_SEEDS]
    v3 = [run_cache.drop(_desk(seed=s, cut="v3")) for s in DESK_SEEDS]
    assert float(np.mean(fl)) >= float(np.mean(v3)) - 1.0


# --------------------------------------------------------------------- c07


def test_c07_defense_ordering(run_cache):
    """The coordinate median resists the tailored attack at least as well as
    the trimmed mean at the deepest cut."""
    med = [run_cache.drop(_desk(seed=s, cut="v3", defense="median"))
           for s in DESK_SEEDS]
    tm = [run_cache.drop(_desk(seed=s, cut="v3")) for s in DESK_SEEDS]
    assert float(np.mean(med)) <= float(np.mean(tm))


# --------------------------------------------------------------------- c08


def test_c08_malicious_fraction_monotonicity(run_cache):
    """More attackers, more damage: drops are non-decreasing across the
    fraction grid within a 2-point per-step noise allowance, and an empty
    attacker set changes nothing at all."""
    drops = [run_cache.drop(_desk(seed=42, malicious_fraction=frac))
             for frac in (0.0, 0.02, 0.10, 0.20, 0.30)]
    assert drops[0] == 0.0
    for earlier, later in zip(drops, drops[1:]):
        assert later >= earlier - 2.0


# --------------------------------------------------------------------- c09


def test_c09_no_attack_baseline(run_cache):
    """Without an attack the default configuration trains to a solid model:
    at least 90% test accuracy."""
    assert run_cache.final_acc(ExperimentConfig()) >= 90.0


# --------------------------------------------------------------------- c10


def test_c10_determinism(tmp_path):
    """Identical invocations produce byte-identical CSVs, and a parallel
    sweep matches a serial one byte for byte."""
    sets = ["--set", "rounds=50", "--set", "defense=trmean",
            "--set", "attack=agropt"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["train", *sets, "--out", str(first)]) == 0
    assert main(["train", *sets, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    axis = ["--axis", "seed=42,43"]
    assert main(["sweep", *sets, *axis, "--jobs", "1", "--out", str(serial)]) == 0
    assert main(["sweep", *sets, *axis, "--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


# --------------------------------------------------------------------- c11


def test_c11_wall_clock_budget(session_clock):
    """The whole suite, desk experiments included, fits a 30-minute budget."""
    assert session_clock() < 1800.0

"""The benchmark's workloads: what one pass of each runs and how its output is
checked.

A pass is one closed-loop unit of work a user would start: one `train()` call,
or one `run_sweep()` plus `write_results()`. Every pass reports the rounds it
completed and a SHA-256 digest of its output, which `run.py` compares against
the golden digest (at DEFAULT_SEED) or against the other passes of the run.
Why each workload was chosen is recorded in BENCHMARK.json.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

from splitfedsim import experiments, protocol
from splitfedsim.config import ExperimentConfig

DEFAULT_SEED = 42

SWEEP_JOBS = 2           # sweep worker processes
SWEEP_ROUNDS = 50
WIDE_ROUNDS = 20

# RoundRecord fields in the digest. wall_ms is left out because it is a
# timing; fields added later stay out so that they cannot move the digest.
DIGEST_FIELDS = ("round_no", "test_accuracy", "loss", "gamma", "deviation")


@dataclass(frozen=True)
class PassResult:
    rounds: int      # federated rounds completed, summed over the pass's runs
    digest: str      # SHA-256 hex of the pass's output
    finite: bool     # every reported loss and accuracy is finite


@dataclass(frozen=True)
class Workload:
    name: str
    golden: str                                  # digest at DEFAULT_SEED
    config: Callable[[int], ExperimentConfig]    # the config one run is built from
    run_pass: Callable[[int, str], PassResult]   # (seed, scratch dir) -> result
    runs_per_pass: int
    workers: int                                 # processes the runs go to; 0 = this one
    dominant: tuple[str, float]                  # (share metric, expected minimum)


def records_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        values = []
        for name in DIGEST_FIELDS:
            v = getattr(rec, name)
            values.append(repr(v if v is None or isinstance(v, int) else float(v)))
        h.update((",".join(values) + "\n").encode())
    return h.hexdigest()


def _finite_records(records) -> bool:
    return all(math.isfinite(r.test_accuracy) and math.isfinite(r.loss)
               for r in records)


def _train_pass(config: ExperimentConfig) -> PassResult:
    records = protocol.train(config)
    return PassResult(config.rounds, records_digest(records), _finite_records(records))


# -- sweep_splitfed_mlp ------------------------------------------------------

def sweep_config(seed: int) -> ExperimentConfig:
    """The sweep's base cell; its set-up is the one each run pays."""
    return ExperimentConfig(seed=seed, defense="trmean", attack="agropt",
                            rounds=SWEEP_ROUNDS, cut="v3")


def sweep_axes(seed: int) -> dict[str, list]:
    return {"cut": ["v1", "v3"], "seed": [seed, seed + 1]}


# every attacked cell runs once more as its own attack=none reference
SWEEP_RUNS = 2 * 2 * 2


def sweep_pass(seed: int, scratch: str) -> PassResult:
    result = experiments.run_sweep(sweep_config(seed), sweep_axes(seed),
                                   n_jobs=SWEEP_JOBS)
    path = os.path.join(scratch, "sweep.csv")
    experiments.write_results(result, path)
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    finite = all(math.isfinite(r.acc) and math.isfinite(r.acc_attack)
                 for r in result.rows)
    return PassResult(SWEEP_RUNS * SWEEP_ROUNDS, digest, finite)


# -- fl_wide_agropt ----------------------------------------------------------

def wide_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(seed=seed, mode="fl", model="mlp", blob_dims=256,
                            blob_per_class=100, partition="iid",
                            defense="median", attack="agropt",
                            rounds=WIDE_ROUNDS)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_splitfed_mlp",
        golden="8bf8e0554e744d0dbb1e356082dbe6a82a88b15762df95f71699e19230db91a4",
        config=sweep_config,
        run_pass=sweep_pass,
        runs_per_pass=SWEEP_RUNS,
        workers=SWEEP_JOBS,
        dominant=("split.handoff_share", 0.6)),
    Workload(
        name="fl_wide_agropt",
        golden="888ec7f7043eac7fce0ff3cc451dcb0354c6b3c6d6078a6b3f6e788eb0de7419",
        config=wide_config,
        run_pass=lambda seed, scratch: _train_pass(wide_config(seed)),
        runs_per_pass=1,
        workers=0,
        dominant=("attacks.craft_share", 0.6)),
)}

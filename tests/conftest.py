"""Shared fixtures for the test suite.

Four jobs live here:

* a session-scoped cache of full training runs, so the end-to-end checks in
  test_acceptance.py can share the expensive desk-scale experiments instead of
  re-running identical configurations, and train them as a sweep does,
* hand-written IDX files for the config and CLI checks of `dataset = idx`,
* the dense gamma-grid oracle of the gamma search's optimality checks, and
* a terminal-summary hook that prints one PASS/FAIL line per numbered
  end-to-end criterion (tests named ``test_cNN_*``), so the verdicts are
  readable without scrolling through the full pytest output.
"""
from __future__ import annotations

import dataclasses
import re
import struct
import time

import numpy as np
import pytest

from splitfedsim.aggregation import reduce_window, rule_window
from splitfedsim.attacks import BenignColumns
from splitfedsim.config import ExperimentConfig
from splitfedsim.experiments import accuracy_drop, final_accuracy, train_many
from splitfedsim.protocol import train

_CRITERION_RE = re.compile(r"test_c(\d{2})_")

_session_start = time.monotonic()
_criterion_outcomes: dict[int, str] = {}


def session_elapsed() -> float:
    """Seconds since pytest started; used by the wall-clock budget check."""
    return time.monotonic() - _session_start


class RunCache:
    """Caches train() results keyed by the full config tuple.

    The end-to-end criteria reuse runs heavily (the same no-attack reference
    backs several comparisons), so sharing them keeps the suite fast without
    changing any semantics: train() is deterministic in its config.
    """

    def __init__(self) -> None:
        self._runs: dict[tuple, list] = {}

    def prefetch(self, configs: list[ExperimentConfig]) -> None:
        """Train the configs and their attack = none references that are not
        cached yet, as a sweep does: on two worker processes, each attacked
        run forked from its reference where their rounds agree."""
        todo: dict[tuple, ExperimentConfig] = {}
        for config in configs:
            for c in (config, dataclasses.replace(config, attack="none")):
                key = dataclasses.astuple(c)
                if key not in self._runs:
                    todo.setdefault(key, c.validate())
        if todo:
            self._runs.update(zip(todo, train_many(list(todo.values()), n_jobs=2)))

    def records(self, config: ExperimentConfig):
        key = dataclasses.astuple(config)
        if key not in self._runs:
            self._runs[key] = train(config.validate())
        return self._runs[key]

    def final_acc(self, config: ExperimentConfig) -> float:
        acc = final_accuracy(self.records(config))
        assert acc is not None, "run produced no evaluations"
        return acc

    def drop(self, config: ExperimentConfig) -> float:
        """Accuracy drop of `config` against its own no-attack twin."""
        reference = dataclasses.replace(config, attack="none")
        return accuracy_drop(self.final_acc(reference), self.final_acc(config))


@pytest.fixture(scope="session")
def run_cache() -> RunCache:
    return RunCache()


@pytest.fixture(scope="session")
def session_clock():
    return session_elapsed


@pytest.fixture
def idx_fields(tmp_path):
    """Factory: write an IDX image file (magic 0x803, all-zero pixels, or
    pixels drawn from rng when given, or the 16-byte header alone when body
    is False) and a label file (magic 0x801, labels alternating 0 and 1) for
    the train and the test split, each given as (count, rows, cols); return
    the config fields that name them."""
    def make(train, test, body=True, rng=None):
        fields = {"dataset": "idx"}
        for split, (count, rows, cols) in (("train", train), ("test", test)):
            images = tmp_path / f"{split}-images.idx"
            labels = tmp_path / f"{split}-labels.idx"
            size = count * rows * cols if body else 0
            pixels = bytes(size) if rng is None else \
                rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            images.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + pixels)
            labels.write_bytes(struct.pack(">II", 0x801, count)
                               + bytes(i % 2 for i in range(count)))
            fields[f"idx_{split}_images"] = str(images)
            fields[f"idx_{split}_labels"] = str(labels)
        return fields
    return make


def _grid_deviations(benign, m, perturb, rule, grid):
    """agr_deviation(benign, m, perturb, g, rule) for every g of grid, with
    the same bits: the benign rows and the m crafted rows of every grid point
    are one (n + m, len(grid), d) array, sorted once along its row axis; the
    rule's window of it is reduced by reduce_window, and each point's
    distance is its own np.linalg.norm, as in agr_deviation."""
    cols = BenignColumns(benign)
    mean, direction = cols.mean, cols.perturbation(perturb)
    n, d = cols.rows.shape
    stack = np.empty((n + m, grid.size, d))
    stack[:n] = cols.rows[:, None]
    stack[n:] = mean + grid[:, None] * direction
    lo, hi = rule_window(rule, n + m)
    outputs = reduce_window(rule, np.sort(stack, axis=0)[lo:hi])
    return [float(np.linalg.norm(mean - out)) for out in outputs]


@pytest.fixture(scope="session")
def grid_deviations():
    return _grid_deviations


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.match(report.location[2].split("[")[0].rsplit("::", 1)[-1])
    if match is None:
        return
    num = int(match.group(1))
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup/teardown error
        outcome = "FAIL"
    elif report.skipped:
        outcome = "SKIP"
    else:
        return
    # a later FAIL overrides an earlier PASS, never the other way round
    if _criterion_outcomes.get(num) != "FAIL":
        _criterion_outcomes[num] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.write_sep("-", "end-to-end criteria")
    for num in sorted(_criterion_outcomes):
        terminalreporter.write_line(f"criterion {num:02d}: {_criterion_outcomes[num]}")

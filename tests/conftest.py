"""Shared fixtures for the test suite.

Three jobs live here:

* a session-scoped cache of full training runs, so the end-to-end checks in
  test_acceptance.py can share the expensive desk-scale experiments instead of
  re-running identical configurations,
* hand-written IDX files for the config and CLI checks of `dataset = idx`, and
* a terminal-summary hook that prints one PASS/FAIL line per numbered
  end-to-end criterion (tests named ``test_cNN_*``), so the verdicts are
  readable without scrolling through the full pytest output.
"""
from __future__ import annotations

import dataclasses
import re
import struct
import time

import pytest

from splitfedsim.config import ExperimentConfig
from splitfedsim.experiments import accuracy_drop, final_accuracy
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
    """Factory: write an IDX image file (magic 0x803, all-zero pixels, or the
    16-byte header alone when body is False) and a label file (magic 0x801,
    labels alternating 0 and 1) for the train and the test split, each given
    as (count, rows, cols); return the config fields that name them."""
    def make(train, test, body=True):
        fields = {"dataset": "idx"}
        for split, (count, rows, cols) in (("train", train), ("test", test)):
            images = tmp_path / f"{split}-images.idx"
            labels = tmp_path / f"{split}-labels.idx"
            images.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols)
                               + bytes(count * rows * cols if body else 0))
            labels.write_bytes(struct.pack(">II", 0x801, count)
                               + bytes(i % 2 for i in range(count)))
            fields[f"idx_{split}_images"] = str(images)
            fields[f"idx_{split}_labels"] = str(labels)
        return fields
    return make


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

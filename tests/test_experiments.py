"""Sweep runner, summary metrics, CSV persistence, and the SVG chart."""

import concurrent.futures
import dataclasses
import hashlib
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from splitfedsim import experiments, nn
from splitfedsim.config import ConfigError, ExperimentConfig
from splitfedsim.experiments import (
    CSV_HEADER,
    SweepResult,
    SweepRow,
    accuracy_drop,
    choose_sweep_axis,
    final_accuracy,
    last_gamma,
    plot_drop_curve,
    read_results,
    run_sweep,
    write_results,
)
from splitfedsim.protocol import RoundRecord, train


def _tiny_config(**overrides):
    base = ExperimentConfig(
        seed=2,
        blob_per_class=50,
        n_clients=4,
        clients_per_round=4,
        malicious_fraction=0.25,
        rounds=4,
        batch_size=32,
        partition="iid",
        defense="fedavg",
    )
    return dataclasses.replace(base, **overrides)


def _records(accs, gammas=None):
    gammas = gammas or [None] * len(accs)
    return [
        RoundRecord(i, a, loss=0.1, gamma=g)
        for i, (a, g) in enumerate(zip(accs, gammas))
    ]


# ---------------------------------------------------------------- metrics


def test_accuracy_drop_hand_values():
    assert accuracy_drop(62.4, 13.1) == pytest.approx(49.3)
    assert accuracy_drop(55.5, 55.5) == 0.0
    assert accuracy_drop(87.0, 87.0) == 0.0


def test_accuracy_drop_may_be_negative():
    assert accuracy_drop(80.0, 85.0) == pytest.approx(-5.0)


def test_accuracy_drop_rejects_out_of_range():
    with pytest.raises(ValueError):
        accuracy_drop(101.0, 50.0)
    with pytest.raises(ValueError):
        accuracy_drop(50.0, -0.1)


def test_final_accuracy_empty_is_none():
    assert final_accuracy([]) is None


def test_final_accuracy_last_window_mean():
    accs = [0.1] * 5 + [0.9] * 10
    assert final_accuracy(_records(accs)) == pytest.approx(90.0)
    assert final_accuracy(_records([0.5, 0.7])) == pytest.approx(60.0)


def test_last_gamma_picks_most_recent():
    recs = _records([0.5, 0.6, 0.7], gammas=[None, 3.0, None])
    assert last_gamma(recs) == 3.0
    assert last_gamma(_records([0.5])) is None


# ---------------------------------------------------------------- sweeps


def test_run_sweep_single_cell_matches_direct_pair():
    cfg = _tiny_config(attack="lie")
    result = run_sweep(cfg, {})
    assert len(result.rows) == 1 and not result.skipped
    row = result.rows[0]
    direct_attack = final_accuracy(train(cfg))
    direct_ref = final_accuracy(train(dataclasses.replace(cfg, attack="none")))
    assert row.acc_attack == pytest.approx(direct_attack, abs=1e-12)
    assert row.acc == pytest.approx(direct_ref, abs=1e-12)
    assert row.acc_drop == pytest.approx(row.acc - row.acc_attack, abs=1e-12)


def test_run_sweep_zero_fraction_zero_drop():
    cfg = _tiny_config(attack="agropt", malicious_fraction=0.0)
    result = run_sweep(cfg, {"defense": ["fedavg", "median"]})
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.acc_drop == 0.0
        assert row.acc == row.acc_attack


def test_run_sweep_skips_infeasible_cells_with_reason():
    cfg = _tiny_config(attack="lie", clients_per_round=4, n_clients=4)
    result = run_sweep(cfg, {"defense": ["median", "trmean"], "frac": [0.5]})
    # trmean cannot defend 2-of-4 malicious; median still can
    assert len(result.rows) == 1
    assert result.rows[0].defense == "median"
    assert len(result.skipped) == 1
    desc, reason = result.skipped[0]
    assert "trmean" in desc
    assert "trmean" in reason or "clients_per_round" in reason


def test_run_sweep_pool_has_at_most_one_worker_per_run(monkeypatch):
    """Under fork the pool launches all max_workers at once, so the pool
    is capped at the number of runs. A serial stand-in records the cap;
    no real pool is started."""
    seen = []

    class _SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    cfg = _tiny_config(attack="lie", rounds=1)
    result = run_sweep(cfg, {}, n_jobs=5000)   # one cell and its reference
    assert seen == [2]
    assert result == run_sweep(cfg, {})


class _RecordingPool:
    """A serial stand-in for ProcessPoolExecutor, like the one above, that
    also records the tasks it is given."""
    caps: list = []
    tasks: list = []

    def __init__(self, max_workers):
        self.caps.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.tasks.append(items)
        return map(fn, items)


@pytest.fixture
def serial_pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "caps", [])
    monkeypatch.setattr(_RecordingPool, "tasks", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool


def _dirichlet_config(**overrides):
    """Attack from round 2 of 8 (rounds // 4)."""
    return _tiny_config(**{"partition": "dirichlet", "dirichlet_alpha": 0.5, "rounds": 8,
                           "attack": "agropt", "defense": "trmean", **overrides})


def test_an_attacked_run_trains_its_shared_prefix_once(monkeypatch):
    """A one-cell sweep calls nn.grad for every step of the reference and
    for the attacked run's steps from its fork round on, and no more."""
    calls = []
    grad = nn.grad

    def counted(*args, **kwargs):
        calls.append(1)
        return grad(*args, **kwargs)

    monkeypatch.setattr(nn, "grad", counted)

    def steps(config):
        calls.clear()
        records = train(config)
        return len(calls), records

    cfg = _dirichlet_config(mode="splitfed")
    ref = dataclasses.replace(cfg, attack="none")
    ref_steps, ref_records = steps(ref)
    attacked_steps, attacked_records = steps(cfg)
    prefix_steps, _ = steps(dataclasses.replace(ref, rounds=cfg.resolved_attack_start()))
    calls.clear()
    result = run_sweep(cfg, {})
    assert len(calls) == ref_steps + attacked_steps - prefix_steps
    assert 0 < prefix_steps < attacked_steps
    row, = result.rows
    assert row.acc == final_accuracy(ref_records)
    assert row.acc_attack == final_accuracy(attacked_records)


def _rounds(task):
    """Rounds a task trains: 8 for a run of its own, 8 + 6 for a reference
    with one attacked run forked at round 2."""
    return 8 + 6 * (len(task) - 1)


def test_four_groups_on_two_jobs_are_four_merged_tasks(serial_pool):
    cfg = _dirichlet_config()
    axes = {"cut": ["v1", "v3"], "seed": [2, 3]}
    result = run_sweep(cfg, axes, n_jobs=2)
    tasks, = serial_pool.tasks
    assert serial_pool.caps == [2]
    assert [len(t) for t in tasks] == [2, 2, 2, 2]   # 28 rounds a worker, not 32
    assert all(ref.attack == "none" and run.attack == "agropt" for ref, run in tasks)
    assert result == run_sweep(cfg, axes)


def test_three_groups_on_two_jobs_merge_no_more_than_shortens_the_schedule(serial_pool):
    """Merged, each group is 14 rounds: all three would keep one worker
    busy for 28. Two merged and two lone runs, 14 + 8 a worker, beat both
    that and the unmerged 24."""
    cfg = _dirichlet_config()
    axes = {"cut": ["v1", "v2", "v3"]}
    result = run_sweep(cfg, axes, n_jobs=2)
    tasks, = serial_pool.tasks
    assert [_rounds(t) for t in tasks] == [14, 14, 8, 8]   # longest first
    unmerged = [(c,) for t in tasks for c in t]
    assert experiments._makespan(tasks, 2) < experiments._makespan(unmerged, 2)
    assert result == run_sweep(cfg, axes)


def test_one_job_merges_every_group_and_iid_cells_none(monkeypatch):
    tasks = []
    train_task = experiments._train_task

    def recorded(task):
        tasks.append(task)
        return train_task(task)

    monkeypatch.setattr(experiments, "_train_task", recorded)
    run_sweep(_dirichlet_config(), {"cut": ["v1", "v2", "v3"]}, n_jobs=1)
    assert [len(t) for t in tasks] == [2, 2, 2]
    tasks.clear()
    run_sweep(_dirichlet_config(partition="iid"), {"cut": ["v1", "v2", "v3"]}, n_jobs=1)
    assert [len(t) for t in tasks] == [1] * 6   # the attack starts at round 0


def test_run_sweep_unknown_axis():
    with pytest.raises(ConfigError, match="axis"):
        run_sweep(_tiny_config(), {"momentum": [0.9]})


@pytest.mark.parametrize("overrides,axes,name", [
    ({}, {"frac": ["0.2", "0.20"]}, "frac"),
    ({"mode": "fl"}, {"seed": [42, "42"]}, "seed"),
    ({"mode": "fl"}, {"cut": ["v1", "v2"]}, "cut"),
    ({"mode": "fl"}, {"cut": ["v3"]}, "cut"),
])
def test_run_sweep_axis_that_repeats_a_run(overrides, axes, name):
    """A repeated value, or a cut in fl mode, where the cut is ignored, would
    train the same runs twice and write identical rows."""
    with pytest.raises(ConfigError, match=f"axis '{name}'"):
        run_sweep(_tiny_config(**overrides), axes)


_SETUP_IMPORTS = """
import sys
from splitfedsim import cli, config, experiments, models, nn, protocol, split
POOL = {"multiprocessing", "concurrent.futures.process"}
assert not POOL & sys.modules.keys(), POOL & sys.modules.keys()
base = config.ExperimentConfig(seed=2, blob_per_class=50, n_clients=4,
                               clients_per_round=4, rounds=2, partition="iid",
                               attack="lie")
serial = experiments.run_sweep(base, {"seed": [2, 3]}, n_jobs=1)
assert not POOL & sys.modules.keys(), "a one-process sweep loaded the pool"
assert experiments.run_sweep(base, {"seed": [2, 3]}, n_jobs=2) == serial
assert POOL <= sys.modules.keys()
"""


def test_setup_imports_leave_out_the_process_pool():
    """What one run imports (bench/setup_probe.py, bench/workloads.py, the
    CLI) loads no process pool; only a sweep over two or more processes
    imports it, and that sweep gives the serial result."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _SETUP_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_run_sweep_zero_rounds_yields_no_rows():
    result = run_sweep(_tiny_config(rounds=0), {})
    assert result.rows == []


def test_run_sweep_fl_mode_blanks_cut_column():
    result = run_sweep(_tiny_config(mode="fl", attack="lie"), {})
    assert result.rows[0].cut == ""


# ---------------------------------------------------------------- persistence


def _sample_rows():
    return [
        SweepRow("splitfed", "mlp", "v3", "trmean", "agropt", 0.2, 43, 91.0, 80.5, 10.5, 2.5),
        SweepRow("splitfed", "mlp", "v1", "trmean", "agropt", 0.2, 42, 90.0, 88.25, 1.75, None),
        SweepRow("fl", "mlp", "", "median", "lie", 0.2, 42, 92.0, 91.0, 1.0, None),
    ]


def test_write_results_header_and_sorting(tmp_path):
    path = tmp_path / "out.csv"
    write_results(SweepResult(_sample_rows(), []), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    # fl sorts before splitfed; within splitfed v1 before v3
    assert lines[1].startswith("fl,")
    assert lines[2].startswith("splitfed,mlp,v1")
    assert lines[3].startswith("splitfed,mlp,v3")


def test_write_results_empty_sweep_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_results(SweepResult([], []), str(path))
    assert path.read_text() == CSV_HEADER + "\n"


def test_results_round_trip(tmp_path):
    path = tmp_path / "rt.csv"
    write_results(SweepResult(_sample_rows(), []), str(path))
    rows = read_results(str(path))
    assert len(rows) == 3
    by_cut = {r.cut: r for r in rows}
    assert by_cut["v3"].acc_drop == pytest.approx(10.5)
    assert by_cut["v3"].gamma_last == pytest.approx(2.5)
    assert by_cut["v1"].gamma_last is None
    assert by_cut[""].mode == "fl"


def test_write_results_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(SweepResult(_sample_rows(), []), str(a))
    write_results(SweepResult(list(reversed(_sample_rows())), []), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_read_results_rejects_foreign_file(tmp_path):
    path = tmp_path / "alien.csv"
    path.write_text("time,value\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_results(str(path))


# ---------------------------------------------------------------- plotting


def test_choose_sweep_axis_prefers_variation():
    rows = _sample_rows()
    assert choose_sweep_axis(rows) == "cut"
    flat = [dataclasses.replace(r, cut="v2") for r in rows]
    fracs = [dataclasses.replace(flat[0], frac_malicious=f) for f in (0.1, 0.2)]
    assert choose_sweep_axis(fracs) == "frac"
    defenses = [dataclasses.replace(flat[0], defense=d) for d in ("median", "trmean")]
    assert choose_sweep_axis(defenses) == "defense"
    assert choose_sweep_axis([flat[0]]) == "cut"


def test_plot_drop_curve_emits_valid_svg(tmp_path):
    path = tmp_path / "chart.svg"
    plot_drop_curve(_sample_rows(), "cut", str(path))
    root = ET.parse(str(path)).getroot()
    assert root.tag.endswith("svg")
    body = path.read_text()
    assert "polyline" in body
    assert "circle" in body


def test_plot_drop_curve_groups_means(tmp_path):
    rows = [
        dataclasses.replace(_sample_rows()[0], cut="v1", acc_drop=2.0),
        dataclasses.replace(_sample_rows()[0], cut="v1", acc_drop=4.0),
        dataclasses.replace(_sample_rows()[0], cut="v3", acc_drop=10.0),
    ]
    path = tmp_path / "mean.svg"
    plot_drop_curve(rows, "cut", str(path))
    assert path.exists() and path.stat().st_size > 0


# the plot area of plot_drop_curve's 640 x 420 canvas
_PLOT_X, _PLOT_Y = (60, 620), (40, 370)


def _chart_points(path):
    """(x, y) of every circle and polyline vertex in a chart."""
    root = ET.parse(str(path)).getroot()
    points = []
    for el in root.iter():
        if el.tag.endswith("circle"):
            points.append((float(el.get("cx")), float(el.get("cy"))))
        elif el.tag.endswith("polyline"):
            points += [tuple(map(float, p.split(","))) for p in el.get("points").split()]
    return points


@pytest.mark.parametrize("drops", [(-60.0, 10.0, 35.0), (-2.5, -0.5, -7.0),
                                   (0.0, 80.0, 100.0), (0.0, 0.0, 0.0), (-0.01, 0.0, 0.01)])
def test_plot_drop_curve_draws_every_point_inside_the_plot_area(tmp_path, drops):
    rows = [dataclasses.replace(_sample_rows()[0], cut=cut, acc_drop=d)
            for cut, d in zip(("v1", "v2", "v3"), drops)]
    path = tmp_path / "drops.svg"
    plot_drop_curve(rows, "cut", str(path))
    points = _chart_points(path)
    assert len(points) == 6
    for x, y in points:
        assert _PLOT_X[0] <= x <= _PLOT_X[1] and _PLOT_Y[0] <= y <= _PLOT_Y[1], (x, y)
    # a negative mean brings a dashed zero line inside the plot area
    zero = [el for el in ET.parse(str(path)).getroot().iter()
            if el.get("stroke-dasharray")]
    assert len(zero) == (min(drops) < 0)
    for el in zero:
        assert _PLOT_Y[0] < float(el.get("y1")) < _PLOT_Y[1]


def test_plot_drop_curve_non_negative_chart_is_byte_stable(tmp_path):
    """Taken before negative means got their own y range and zero line."""
    rows = [dataclasses.replace(_sample_rows()[0], cut=cut, acc_drop=d)
            for cut, d in (("", 60.2), ("v1", 12.5), ("v2", 30.0), ("v3", 55.1))]
    path = tmp_path / "stable.svg"
    plot_drop_curve(rows, "cut", str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "978ff2f63d560c7120a212bc1a51ec758c309d3d4833a671c0e1dc8a60428621"


def test_plot_drop_curve_rejects_empty_and_bad_axis(tmp_path):
    with pytest.raises(ValueError):
        plot_drop_curve([], "cut", str(tmp_path / "no.svg"))
    with pytest.raises(ValueError):
        plot_drop_curve(_sample_rows(), "seed", str(tmp_path / "no.svg"))

"""Command-line interface: subcommands, exit codes, config plumbing, and
output files."""

import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splitfedsim.cli import _build_parser, main
from splitfedsim.experiments import CSV_HEADER, read_results

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

TINY = [
    "--set", "blob_per_class=50",
    "--set", "n_clients=4",
    "--set", "clients_per_round=4",
    "--set", "malicious_fraction=0.25",
    "--set", "rounds=3",
    "--set", "partition=iid",
    "--set", "defense=fedavg",
]


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag(capsys):
    assert main(["gradcheck", "--fast"]) == 1
    assert "error" in capsys.readouterr().err


def test_train_zero_rounds_header_only_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(["train", *TINY, "--set", "rounds=0", "--out", str(out)])
    assert code == 0
    assert out.read_text() == CSV_HEADER + "\n"


def test_train_writes_row(tmp_path):
    out = tmp_path / "train.csv"
    code = main(["train", *TINY, "--set", "attack=lie", "--out", str(out)])
    assert code == 0
    rows = read_results(str(out))
    assert len(rows) == 1
    assert rows[0].attack == "lie"
    assert 0.0 <= rows[0].acc <= 100.0


@pytest.mark.parametrize("attack", ["none", "lie", "agropt"])
def test_train_survives_all_malicious_rounds(tmp_path, attack):
    # at seed 42, round 22 selects two of the four malicious clients and no one else
    out = tmp_path / "train.csv"
    code = main(["train", "--set", "mode=fl", "--set", "clients_per_round=2",
                 "--set", "defense=median", "--set", "rounds=40",
                 "--set", f"attack={attack}", "--out", str(out)])
    assert code == 0
    assert len(read_results(str(out))) == 1


def test_train_with_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "blob_per_class = 50\nn_clients = 4\nclients_per_round = 4\n"
        "malicious_fraction = 0.25\nrounds = 2\npartition = iid\n"
        "defense = fedavg\n# trailing comment\n"
    )
    out = tmp_path / "c.csv"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(read_results(str(out))) == 1


def test_malformed_config_key_names_it(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum = 0.9\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "momentum" in capsys.readouterr().err


def test_invalid_set_value_exit_1(capsys):
    assert main(["train", "--set", "rounds=soon"]) == 1
    assert "rounds" in capsys.readouterr().err


def test_validation_failure_exit_1(capsys):
    assert main(["train", *TINY, "--set", "defense=krum"]) == 1
    assert "defense" in capsys.readouterr().err


def test_tau_above_half_gamma_init_exit_1(tmp_path, capsys):
    """Such a tau leaves the gamma search no step to take; it used to pass
    validate() and report every attacked run as diverged (exit 2)."""
    run = ["train", *TINY, "--set", "mode=fl", "--set", "attack=agropt",
           "--out", str(tmp_path / "r.csv")]
    assert main(run + ["--set", "agropt_tau=5.1"]) == 1
    assert "agropt_tau" in capsys.readouterr().err
    assert main(run + ["--set", "agropt_tau=5"]) == 0


@pytest.mark.parametrize("setting", ["blob_classes=1", "blob_dims=1",
                                     "blob_per_class=4"])
def test_blob_sizes_below_gen_blobs_minimum_exit_1(tmp_path, capsys, setting):
    assert main(["train", *TINY, "--set", setting,
                 "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting.split("=")[0] in err


def test_set_overrides_an_invalid_config_file_value(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("cut = v9\n")
    out = tmp_path / "r.csv"
    assert main(["train", "--config", str(cfg), *TINY, "--set", "rounds=1",
                 "--set", "cut=v3", "--out", str(out)]) == 0
    assert read_results(str(out))[0].cut == "v3"


def test_malformed_idx_file_is_a_runtime_failure(tmp_path, capsys):
    images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
    images.write_bytes(struct.pack(">IIII", 0x804, 1, 8, 8) + bytes(64))
    labels.write_bytes(struct.pack(">II", 0x801, 1) + bytes(1))
    assert main(["train", "--set", "dataset=idx",
                 "--set", f"idx_train_images={images}",
                 "--set", f"idx_train_labels={labels}",
                 "--set", f"idx_test_images={images}",
                 "--set", f"idx_test_labels={labels}",
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert "bad magic 0x00000804" in capsys.readouterr().err


def _set_all(fields):
    return [a for k, v in fields.items() for a in ("--set", f"{k}={v}")]


def test_idx_dataset_trains(tmp_path, idx_fields):
    # the cnn reads s x s images as they are, the mlp any image flattened
    for model, rows, cols in (("cnn", 8, 8), ("mlp", 4, 16), ("mlp", 16, 4)):
        out = tmp_path / f"{model}-{rows}x{cols}.csv"
        fields = idx_fields((40, rows, cols), (10, rows, cols))
        assert main(["train", *TINY, *_set_all(fields), "--set", f"model={model}",
                     "--set", "rounds=1", "--out", str(out)]) == 0
        assert read_results(str(out))[0].model == model


@pytest.mark.parametrize("train,test,setting,field", [
    ((40, 6, 6), (10, 6, 6), "model=cnn", "idx_train_images"),  # side 6, not a multiple of 4
    ((3, 8, 8), (10, 8, 8), "model=mlp", "n_clients"),          # 3 images, 20 clients
    ((40, 6, 6), (10, 3, 3), "model=mlp", "idx_test_images"),   # 6x6 against 3x3
    ((40, 8, 8), (0, 8, 8), "model=mlp", "idx_test_images"),    # no test images
    ((40, 4, 16), (10, 4, 16), "model=cnn", "idx_train_images"),  # 64 pixels, not 8x8
    ((40, 16, 4), (10, 16, 4), "model=cnn", "idx_train_images"),
    (None, None, "blob_per_class=5", "n_clients"),   # 4 * 4 training samples, 20 clients
])
def test_config_the_data_cannot_serve_exit_1(tmp_path, capsys, idx_fields,
                                             train, test, setting, field):
    data = _set_all(idx_fields(train, test)) if train else []
    assert main(["train", *TINY, *data, "--set", setting, "--set", "n_clients=20",
                 "--set", "clients_per_round=4", "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "ghost.cfg")]) == 2


def test_sweep_axis_and_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", *TINY, "--set", "attack=lie",
        "--axis", "defense=fedavg,median", "--out", str(out),
    ])
    assert code == 0
    rows = read_results(str(out))
    assert {r.defense for r in rows} == {"fedavg", "median"}


def test_sweep_unknown_axis(capsys):
    assert main(["sweep", *TINY, "--axis", "optimizer=adam,sgd"]) == 1
    assert "axis" in capsys.readouterr().err


@pytest.mark.parametrize("axis,field", [("frac=abc", "malicious_fraction"),
                                        ("seed=1,x", "seed")])
def test_sweep_bad_axis_value_names_the_field(capsys, axis, field):
    assert main(["sweep", *TINY, "--axis", axis]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["frac", "cut=", "seed=,"])
def test_sweep_axis_without_values(capsys, axis):
    assert main(["sweep", *TINY, "--axis", axis]) == 1
    assert "NAME=V1,V2" in capsys.readouterr().err


def test_sweep_repeated_axis_is_an_error(capsys):
    assert main(["sweep", *TINY, "--axis", "seed=1,2", "--axis", "seed=3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'seed'" in err and "more than once" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_usage_error(capsys, jobs):
    assert main(["sweep", *TINY, "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err


def test_sweep_parallel_matches_serial(tmp_path):
    base = [
        "sweep", *TINY, "--set", "attack=lie", "--set", "rounds=2",
        "--axis", "seed=3,4",
    ]
    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--count", "6"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "worst" in out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gradcheck_count_below_one_is_usage_error(capsys, count):
    assert main(["gradcheck", "--count", count]) == 1
    assert "--count" in capsys.readouterr().err


def test_readme_command_lines_parse():
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(),
                      re.S).group(1)
    joined = block.replace("\\\n", " ")   # backslash continuations
    lines = [ln for ln in joined.splitlines() if ln.startswith("splitfedsim ")]
    assert len(lines) >= 5
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_plot_from_csv(tmp_path):
    csv = tmp_path / "drops.csv"
    code = main([
        "sweep", *TINY, "--set", "attack=lie",
        "--axis", "defense=fedavg,median", "--out", str(csv),
    ])
    assert code == 0
    svg = tmp_path / "chart.svg"
    assert main(["plot", "--in", str(csv), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_plot_empty_csv_exit_2(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text(CSV_HEADER + "\n")
    assert main(["plot", "--in", str(csv), "--out", str(tmp_path / "x.svg")]) == 2
    assert "no rows" in capsys.readouterr().err


def test_plot_missing_input_nonzero(tmp_path):
    assert main(["plot", "--in", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "x.svg")]) == 2


def test_plot_requires_in_and_out(capsys):
    assert main(["plot", "--in", "only.csv"]) == 1


def test_train_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["train", *TINY, "--set", "attack=agropt", "--set", "rounds=2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args,code", [(["gradcheck", "--count", "1"], 0),
                                       (["bogus"], 1)])
def test_python_dash_m_runs_the_cli(args, code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "splitfedsim", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr

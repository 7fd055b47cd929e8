"""The benchmark's per-layer trace finds every function it wraps. A boundary
that is renamed or deleted makes bench/tracing.py print "... is gone; ...
reads 0" and report that metric as 0, so a refactor could otherwise zero a
per-layer metric without failing a test."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# bench/run.py runs with bench/ as its script directory and puts src/ first
_IMPORT_AS_RUN_PY = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "bench")!r}]
import tracing
"""


def test_every_trace_hook_finds_its_function():
    proc = subprocess.run([sys.executable, "-c",
                           _IMPORT_AS_RUN_PY + "print(len(tracing._hooks()))"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "is gone" not in proc.stderr, proc.stderr
    assert int(proc.stdout) > 0


# A 2-round train per mode, the attack starting at round 1: round 0
# aggregates the stacked rows, round 1 crafts through the gamma search.
_TRACE_ATTACKED_TRAINS = _IMPORT_AS_RUN_PY + """
import json
from splitfedsim import protocol
from splitfedsim.config import ExperimentConfig
tracer = tracing.Tracer(sys.argv[1])
calls = {}
for mode in ("fl", "splitfed"):
    tracer.pass_no += 1
    config = ExperimentConfig(mode=mode, attack="agropt", attack_start_round=1,
                              rounds=2, blob_per_class=50, n_clients=4,
                              clients_per_round=4, partition="iid", defense="median")
    with tracing.installed(tracer):
        protocol.train(config)
        tracer.flush("parent")
    calls[mode] = tracing.summarize(sys.argv[1], tracer.pass_no).calls
print(json.dumps(calls))
"""

_ROUND_SPANS = ("protocol.client_batches", "aggregation.round", "attacks.craft",
                "attacks.gamma_search", "protocol.evaluate")
_MODE_SPANS = {
    "fl": ("protocol.local_epoch", "nn.grad"),
    "splitfed": ("protocol.local_epoch", "nn.grad"),
}


def test_trace_sees_every_layer_the_round_loop_runs(tmp_path):
    """A round loop that binds a traced name where the wrapper cannot reach
    it would leave that layer without spans, and its metric would read 0."""
    proc = subprocess.run([sys.executable, "-c", _TRACE_ATTACKED_TRAINS, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    for mode, spans in _MODE_SPANS.items():
        assert calls[mode]["protocol.train"] == 1
        missing = [s for s in _ROUND_SPANS + spans if calls[mode].get(s, 0) < 1]
        assert not missing, (mode, missing)


# Two traced passes of a 2-worker sweep over two cuts, each cell with its
# no-attack reference: 4 unique runs, the attack starting at round 1
_TRACE_SWEEP_PASSES = _IMPORT_AS_RUN_PY + """
import json
from splitfedsim import experiments
from splitfedsim.config import ExperimentConfig
tracer = tracing.Tracer(sys.argv[1])
base = ExperimentConfig(mode="splitfed", attack="agropt", attack_start_round=1,
                        rounds=2, blob_per_class=50, n_clients=4,
                        clients_per_round=4, partition="iid", defense="trmean")
passes = []
for _ in range(2):
    tracer.pass_no += 1
    with tracing.installed(tracer):
        result = experiments.run_sweep(base, {"cut": ["v1", "v3"]}, n_jobs=2)
        tracer.flush("parent")
    assert not result.skipped, result.skipped
    summary = tracing.summarize(sys.argv[1], tracer.pass_no)
    passes.append({"runs": summary.calls[tracing.RUN],
                   "metrics": tracing.layer_metrics(summary, 4 * base.rounds, 2)})
print(json.dumps({"exact": tracing.EXACT, "passes": passes}))
"""


def test_traced_sweep_passes_count_one_run_span_per_run_and_repeat_exactly(tmp_path):
    """bench/run.py --trace 1 fails a pass whose run spans do not number the
    sweep's unique runs, or whose exact counts differ from another pass's, so
    a sweep that trains its runs other than one train() call each would fail
    the benchmark."""
    proc = subprocess.run([sys.executable, "-c", _TRACE_SWEEP_PASSES, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    first, second = out["passes"]
    assert first["runs"] == second["runs"] == 4
    assert first["metrics"]["attacks.gamma_search.evals"] > 0
    differ = {key: (first["metrics"][key], second["metrics"][key])
              for key in out["exact"] if first["metrics"][key] != second["metrics"][key]}
    assert not differ, differ


# Two traced passes of a 2-worker Dirichlet sweep over two cuts and two seeds,
# each cell with its no-attack reference: 8 unique runs, which train_many
# steps as two stacks of four (one per seed), the attacks forking at round 2.
# Each pass reports its run spans, its exact counts, and the nn.grad spans
# that no run span encloses.
_TRACE_STACKED_SWEEP = _IMPORT_AS_RUN_PY + """
import json, os
from splitfedsim import experiments
from splitfedsim.config import ExperimentConfig
out = sys.argv[1]
tracer = tracing.Tracer(out)
base = ExperimentConfig(mode="splitfed", attack="agropt", rounds=8, blob_per_class=50,
                        n_clients=4, clients_per_round=4, partition="dirichlet",
                        dirichlet_alpha=0.5, defense="trmean")
passes = []
for _ in range(2):
    tracer.pass_no += 1
    with tracing.installed(tracer):
        result = experiments.run_sweep(base, {"cut": ["v1", "v3"], "seed": [1, 2]},
                                       n_jobs=2)
        tracer.flush("parent")
    assert not result.skipped, result.skipped
    outside = 0
    for name in os.listdir(out):
        if name.startswith(f"pass{tracer.pass_no}-"):
            with open(os.path.join(out, name), encoding="utf-8") as f:
                spans = json.load(f)["spans"]
            for span in spans:
                if span[0] == "nn.grad":
                    parent = span[3]
                    while parent >= 0 and spans[parent][0] != tracing.RUN:
                        parent = spans[parent][3]
                    outside += parent < 0
    summary = tracing.summarize(out, tracer.pass_no)
    passes.append({"runs": summary.calls[tracing.RUN], "outside": outside,
                   "metrics": tracing.layer_metrics(summary, 8 * base.rounds, 2)})
print(json.dumps({"exact": tracing.EXACT, "passes": passes}))
"""


def test_a_traced_stacked_sweep_keeps_the_trace_contract(tmp_path):
    """Stacked runs still end in one train() call each: a traced pass opens
    one run span per unique config, repeats every exact count, and every
    nn.grad span lies inside a run span (the stack's lead's)."""
    proc = subprocess.run([sys.executable, "-c", _TRACE_STACKED_SWEEP, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    first, second = out["passes"]
    for p in (first, second):
        assert p["runs"] == 8 and p["outside"] == 0
        assert p["metrics"]["nn.grad.calls"] > 0
        assert p["metrics"]["attacks.gamma_search.evals"] > 0
    differ = {key: (first["metrics"][key], second["metrics"][key])
              for key in out["exact"] if first["metrics"][key] != second["metrics"][key]}
    assert not differ, differ


# The kernel table of every workload, checked against BENCHMARK.json's
# per-layer kernel names
_KERNEL_TABLES = _IMPORT_AS_RUN_PY + """
import json
import kernels
import workloads
print(json.dumps({name: sorted(kernels.kernel_table(w.config(42), 0))
                  for name, w in workloads.WORKLOADS.items()}))
"""


def test_every_benchmark_entry_point_runs_on_the_current_api():
    """bench/setup_probe.py and bench/kernels.py call nn, split and protocol
    directly; a deleted or renamed name there would fail only at benchmark
    time."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for name in workloads:
        proc = subprocess.run([sys.executable, str(ROOT / "bench" / "setup_probe.py"),
                               name, "42"], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) > 0
    proc = subprocess.run([sys.executable, "-c", _KERNEL_TABLES],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    tables = json.loads(proc.stdout)
    assert sorted(tables) == sorted(workloads)
    wanted = [m["name"] for m in spec["per_layer"] if ".kernel." in m["name"]]
    assert wanted
    for name, table in tables.items():
        missing = [m for m in wanted if m not in table]
        assert not missing, (name, missing)

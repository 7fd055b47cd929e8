"""The splitfedsim benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of the workloads in bench/workloads.py, or `all` to run each in
turn. The benchmark runs the workload closed-loop from this process, one
`train()` or `run_sweep()` in flight at a time (plus the sweep's two worker
processes), for about S seconds, and checks every pass's output digest. It
reads from BENCHMARK.json at the repository root which metrics to print.

--trace 0 prints the end-to-end metrics, measured untraced:
  rounds_per_s  federated rounds per wall second: the rounds of all passes
                over their wall time, scaled to the machine's nominal speed
                by the median speed of a calibration loop timed between the
                passes (bench/calibration.py)
  setup_s       set-up one run pays before round 0, timed in a fresh
                interpreter by bench/setup_probe.py; the median of
                SETUP_PROBES probes spread over the run, scaled to the
                machine's nominal speed like rounds_per_s
  peak_rss_mb   peak resident set of the process that ran the runs; for the
                sweep, the largest of its workers
The error rate is the `failed` over `attempted` runs of the result line.

--trace 1 alternates untraced and traced passes (at least two of each),
derives per-layer busy times and counts from the spans (bench/tracing.py),
fails if a count differs between traced passes, and adds the kernel table
(bench/kernels.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only if every check passed.
"""
import os

# Pin BLAS to one thread before anything imports NumPy: two sweep workers
# with two BLAS threads each would be more threads than a 2-core machine has.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 60


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (SRC / "splitfedsim" / "__init__.py").is_file():
        fail(f"no splitfedsim sources under {SRC}")
    if not path.is_file():
        fail(f"{path} is missing")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class Checker:
    """Runs passes and counts runs. A pass fails if it raises, reports a
    non-finite loss or accuracy, or its digest differs from the golden one
    (at the default seed) or from the first digest of this benchmark run."""

    def __init__(self, workload, seed: int, default_seed: int):
        self.workload = workload
        self.seed = seed
        self.expected = workload.golden if seed == default_seed else None
        self.passes = self.attempted = self.failed = 0

    def run(self, scratch: str):
        """Returns (rounds, seconds) of a good pass, or None."""
        w = self.workload
        self.passes += 1
        self.attempted += w.runs_per_pass
        t0 = time.perf_counter()
        try:
            res = w.run_pass(self.seed, scratch)
        except Exception:  # a failed pass is counted, and the loop goes on
            traceback.print_exc()
            res = None
        seconds = time.perf_counter() - t0
        if res is not None and res.finite:
            if self.expected is None:   # no golden digest: the first pass sets it
                self.expected = res.digest
            if res.digest == self.expected:
                return res.rounds, seconds
        if res is not None:
            print(f"bench: {w.name} pass {self.passes} failed: finite={res.finite} "
                  f"digest={res.digest} expected={self.expected}", file=sys.stderr)
        self.failed += w.runs_per_pass
        return None


def keep_going(elapsed: float, passes: int, seconds: float, at_least: int) -> bool:
    """Another pass fits if the passes so far, on average, leave room for it."""
    return passes < at_least or elapsed + elapsed / passes <= seconds


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.workers else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux reports KiB


def setup_probe(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def end_to_end(w, seed, seconds, scratch, default_seed):
    """Passes for about `seconds` in all, each followed by a sample of the
    machine's speed (bench/calibration.py). The rounds of the good passes
    over their wall time, and the median set-up time, are scaled to the
    machine's nominal speed by the median of the samples. The set-up probes
    are spread between the passes too, so that passes, samples and probes all
    see the same spells of machine load."""
    import calibration

    procs = max(1, w.workers)
    checker = Checker(w, seed, default_seed)
    good, speeds, setups = [], [], []
    rss = slice_s = None
    started, probing = time.perf_counter(), 0.0
    while keep_going(time.perf_counter() - started - probing, checker.passes, seconds, 1):
        t0 = time.perf_counter()
        done = checker.run(scratch)
        if done is not None:
            good.append(done)
        if rss is None:
            # the peak of the first pass, taken before any calibration or
            # probe process, which are children too; it repeats from pass to pass
            rss = peak_rss_mb(w)
            # a tenth of a pass: long enough to sample a spell, short enough
            # to leave the run to the passes
            slice_s = max(calibration.SLICE_S, (time.perf_counter() - t0) / 10)
        speeds.append(calibration.speed(procs, slice_s))
        t0 = time.perf_counter()
        elapsed = t0 - started - probing
        while len(setups) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * elapsed / seconds)):
            setups.append(setup_probe(w.name, seed))
        probing += time.perf_counter() - t0
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(w.name, seed))
    scale = calibration.NOMINAL_UNITS_PER_S / statistics.median(speeds)
    rate = sum(r for r, _ in good) / sum(t for _, t in good) if good else 0.0
    metrics = {
        "rounds_per_s": rate * scale,
        "setup_s": statistics.median(setups) / scale,
        "peak_rss_mb": rss,
    }
    print(f"# {len(good)} good passes, rounds per wall second: "
          + " ".join(f"{r / t:.3f}" for r, t in good) + f"; all together {rate:.4f}")
    print(f"# machine speed, calibration units/s per process in {slice_s:.2f} s slices: "
          + " ".join(f"{s:.1f}" for s in speeds) + f"; median {statistics.median(speeds):.2f}"
          + f" (nominal {calibration.NOMINAL_UNITS_PER_S})")
    print("# setup_s each: " + " ".join(f"{t:.4f}" for t in setups))
    return checker, metrics, []


def per_layer(w, seed, seconds, scratch, default_seed):
    import kernels
    import tracing

    out_dir = ROOT / ".bench_out" / f"{w.name}-seed{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = tracing.Tracer(str(out_dir))
    checker = Checker(w, seed, default_seed)
    untraced, traced, passes = [], [], []
    problems = []
    started = time.perf_counter()
    while keep_going(time.perf_counter() - started, len(passes), seconds, 2):
        done = checker.run(scratch)
        if done is not None:
            untraced.append(done[0] / done[1])
        tracer.pass_no += 1
        with tracing.installed(tracer):
            done = checker.run(scratch)
            tracer.flush("parent")
        if done is None:
            problems.append(f"traced pass {tracer.pass_no} failed")
            break
        traced.append(done[0] / done[1])
        summary = tracing.summarize(str(out_dir), tracer.pass_no)
        if summary.calls[tracing.RUN] != w.runs_per_pass:
            problems.append(f"traced pass {tracer.pass_no} has spans of "
                            f"{summary.calls[tracing.RUN]} runs, expected {w.runs_per_pass}")
        passes.append(tracing.layer_metrics(summary, done[0], w.workers))
    for key in tracing.EXACT:
        values = {p[key] for p in passes}
        if len(values) > 1:
            problems.append(f"count {key} differs between traced passes: {sorted(values)}")
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]} if passes else {}
    metrics.update(kernels.kernel_table(w.config(seed), seed))
    metrics["trace.rounds_per_s"] = statistics.median(traced) if traced else 0.0
    metrics["trace.overhead_rounds_per_s"] = (
        statistics.median(untraced) - metrics["trace.rounds_per_s"] if untraced and traced else 0.0)
    share, floor = w.dominant
    if share in metrics:
        verdict = "confirmed" if metrics[share] >= floor else "WRONG"
        print(f"# dominant layer: {share} = {metrics[share]:.3f} "
              f"(expected >= {floor}): {verdict}")
    if "trace.coverage_share" in metrics:
        print(f"# layer spans cover {metrics['trace.coverage_share']:.3f} of run time "
              "(expected >= 0.9)")
    print(f"# spans written to {out_dir}")
    return checker, metrics, problems


def provenance() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def run_one(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)} or all")
    w = workloads.WORKLOADS[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    info = provenance()
    info["loadavg_before"] = os.getloadavg()
    scratch = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        measure = per_layer if args.trace else end_to_end
        checker, metrics, problems = measure(w, args.seed, args.seconds, scratch,
                                             workloads.DEFAULT_SEED)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    info["loadavg_after"] = os.getloadavg()
    print("# provenance " + json.dumps(info))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    out = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
           for m in wanted}
    for name, v in out.items():
        print(f"{w.name:<20} {name:<40} {v['value']:>16.6g} {v['unit']}")
    rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"{w.name:<20} {'error_rate':<40} {rate:>16.6g} "
          f"({checker.failed} of {checker.attempted} runs failed)")
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    correct = checker.failed == 0 and checker.attempted > 0 and not problems
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": out}))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Each workload in a child process, so that peak RSS stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            fail(f"workload {w['name']} printed no result (exit {proc.returncode})")
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, v in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the calls into each splitfedsim layer, recorded from outside
the package.

`installed(tracer)` replaces the public functions each layer exposes with
wrappers that record a span (name, start, end, parent, run id) and, at a few
boundaries, a count. Everything stays in memory until a run ends; each run's
spans are then written to one JSON file, by the parent process for FL runs
and by the sweep workers, which inherit the wrappers when the pool forks.
`summarize` turns a pass's files into busy times, call counts and counts.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field

from splitfedsim import attacks, experiments, nn, protocol, split

RUN = "protocol.train"   # one span per train() call; its self time is the round loop's

# The active tracer and the unwrapped train() live at module level because
# sweep workers reach the run wrapper by its import path, not through a
# closure (pool.map pickles the function it is given by reference).
_ACTIVE: "Tracer | None" = None
_TRAIN = protocol.train


@dataclass
class Tracer:
    out_dir: str                 # where each run's spans are written
    pass_no: int = 0
    pid: int = field(default_factory=os.getpid)
    spans: list = field(default_factory=list)   # [name, start, end, parent, run]
    counts: collections.Counter = field(default_factory=collections.Counter)
    run_id: str = "parent"
    _stack: list = field(default_factory=list)
    _runs: itertools.count = field(default_factory=itertools.count)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def adopt_fork(self) -> None:
        """In a forked worker, drop the state copied from the parent."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.spans, self._stack = [], []
            self.counts = collections.Counter()

    def flush(self, label: str) -> None:
        """Write the spans and counts recorded so far, then forget them."""
        path = os.path.join(self.out_dir, f"pass{self.pass_no}-{label}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)
        self.spans, self.counts = [], collections.Counter()


def traced_train(config):
    """protocol.train inside a run span; the spans go to one file per run."""
    tracer = _ACTIVE
    if tracer is None:
        return _TRAIN(config)
    tracer.adopt_fork()
    tracer.run_id = f"{os.getpid()}-{next(tracer._runs)}"
    idx = tracer.open(RUN)
    try:
        return _TRAIN(config)
    finally:
        tracer.close(idx)
        tracer.flush(f"run{tracer.run_id}")
        tracer.run_id = "parent"


def _wrap(name, fn, after=None, skip_inside=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None or (skip_inside and tracer.innermost() == skip_inside):
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out
    return traced


def _count_update_bytes(tracer, args, kwargs, out):
    updates = args[1] if len(args) > 1 else kwargs["updates"]
    tracer.counts["aggregation.update_bytes"] += updates.nbytes


def _count_smashed(tracer, args, kwargs, out):
    tracer.counts["split.smashed_bytes"] += out.activations.nbytes


def _count_cut_grad(tracer, args, kwargs, out):
    tracer.counts["split.smashed_bytes"] += out[0].nbytes


_GAMMA_SIG = inspect.signature(attacks.gamma_search)


def _count_gamma(tracer, args, kwargs, out):
    """Evaluations, and whether gamma ended at the 2 * gamma_init ceiling,
    i.e. within twice the search's last step, where every halving succeeded."""
    bound = _GAMMA_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    gamma_init, tau = bound.arguments["gamma_init"], bound.arguments["tau"]
    step = gamma_init / 2.0
    while step / 2.0 >= tau:
        step /= 2.0
    tracer.counts["attacks.gamma_search.evals"] += out.evaluations
    if out.gamma is not None and 2.0 * gamma_init - out.gamma <= 2.0 * step * (1.0 + 1e-9):
        tracer.counts["attacks.gamma_search.ceiling_hits"] += 1


def _hooks():
    """(module, attribute, wrapper) for every traced boundary."""
    table = [
        (protocol, "local_epoch", "protocol.local_epoch", None, None),
        (protocol, "client_batches", "protocol.client_batches", None, None),
        (protocol, "evaluate", "protocol.evaluate", None, None),
        (protocol, "craft_round_update", "attacks.craft", None, None),
        (protocol, "aggregate", "aggregation.round", _count_update_bytes, None),
        (protocol, "gen_blobs", "datasets.gen_blobs", None, None),
        (protocol, "partition_iid", "datasets.partition", None, None),
        (protocol, "partition_dirichlet", "datasets.partition", None, None),
        (protocol, "sample_clients", "datasets.sample_clients", None, None),
        (attacks, "gamma_search", "attacks.gamma_search", _count_gamma, None),
        (attacks, "aggregate", "aggregation.search", None, None),
        (nn, "grad", "nn.grad", None, None),
        # nn.grad runs its own forward; only the others count as nn.forward
        (nn, "forward", "nn.forward", None, "nn.grad"),
        (nn, "init_params", "nn.init_params", None, None),
        (split, "split_at", "split.split_at", None, None),
        (split, "split_train_step", "split.train_step", None, None),
        (split, "client_forward", "split.client_forward", _count_smashed, None),
        (split, "server_step", "split.server_step", _count_cut_grad, None),
        (split, "client_backward", "split.client_backward", None, None),
        (experiments, "run_sweep", "experiments.run_sweep", None, None),
        (experiments, "write_results", "experiments.write_results", None, None),
    ]
    hooks = [(protocol, "train", traced_train), (experiments, "train", traced_train)]
    for module, attr, name, after, skip_inside in table:
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"bench: {module.__name__}.{attr} is gone; {name} reads 0",
                  file=sys.stderr)
        else:
            hooks.append((module, attr, _wrap(name, fn, after, skip_inside)))
    return hooks


@contextlib.contextmanager
def installed(tracer: Tracer):
    global _ACTIVE
    saved = []
    try:
        for module, attr, wrapper in _hooks():
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        _ACTIVE = tracer
        yield tracer
    finally:
        _ACTIVE = None
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@dataclass
class Summary:
    busy: collections.Counter = field(default_factory=collections.Counter)
    calls: collections.Counter = field(default_factory=collections.Counter)
    counts: collections.Counter = field(default_factory=collections.Counter)
    run_busy: float = 0.0        # time inside run spans
    covered: float = 0.0         # time inside the direct children of run spans


def summarize(out_dir: str, pass_no: int) -> Summary:
    """Busy time and calls per span name, and the counts, over one pass.

    No span name nests inside itself, so a name's busy time is the sum of
    its spans' durations.
    """
    s = Summary()
    prefix = f"pass{pass_no}-"
    for fname in sorted(os.listdir(out_dir)):
        if not fname.startswith(prefix):
            continue
        with open(os.path.join(out_dir, fname), encoding="utf-8") as f:
            data = json.load(f)
        spans = data["spans"]
        for name, start, end, parent, _run in spans:
            dur = end - start
            s.busy[name] += dur
            s.calls[name] += 1
            if name == RUN:
                s.run_busy += dur
            elif parent >= 0 and spans[parent][0] == RUN:
                s.covered += dur
        s.counts.update(data["counts"])
    return s


# counts that must repeat exactly from one traced pass to the next
EXACT = ("split.train_step.calls", "split.smashed_bytes", "nn.grad.calls",
         "aggregation.update_bytes", "attacks.gamma_search.evals",
         "experiments.runs")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(s: Summary, rounds: int, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass that completed `rounds` rounds
    over `jobs` worker processes (0 when the runs stayed in this process)."""
    b, c, n = s.busy, s.calls, s.counts
    sweep_wall = b["experiments.run_sweep"]
    return {
        "split.client_forward.busy_s": b["split.client_forward"],
        "split.server_step.busy_s": b["split.server_step"],
        "split.client_backward.busy_s": b["split.client_backward"],
        "split.train_step.calls": c["split.train_step"],
        "split.smashed_bytes": n["split.smashed_bytes"] / rounds,
        "split.handoff_share": _share(b["split.train_step"], s.run_busy),
        "nn.grad.busy_s": b["nn.grad"],
        "nn.grad.calls": c["nn.grad"],
        "nn.forward.busy_s": b["nn.forward"],
        "nn.compute_share": _share(b["nn.grad"] + b["nn.forward"], s.run_busy),
        "attacks.craft.busy_s": b["attacks.craft"],
        "attacks.craft_share": _share(b["attacks.craft"], s.run_busy),
        "attacks.gamma_search.busy_s": b["attacks.gamma_search"],
        "attacks.gamma_search.evals": n["attacks.gamma_search.evals"],
        "attacks.gamma_ceiling_share": _share(n["attacks.gamma_search.ceiling_hits"],
                                              c["attacks.gamma_search"]),
        "aggregation.search.busy_s": b["aggregation.search"],
        "aggregation.search.calls": c["aggregation.search"],
        "aggregation.round.busy_s": b["aggregation.round"],
        "aggregation.round.calls": c["aggregation.round"],
        "aggregation.update_bytes": n["aggregation.update_bytes"] / rounds,
        "protocol.local_training.busy_s": b["protocol.local_epoch"] + b["split.train_step"],
        "protocol.client_batches.busy_s": b["protocol.client_batches"],
        "protocol.evaluate.busy_s": b["protocol.evaluate"],
        "protocol.round.self_s": s.run_busy - s.covered,
        "datasets.gen_blobs.busy_s": b["datasets.gen_blobs"],
        "datasets.partition.busy_s": b["datasets.partition"],
        "datasets.sample_clients.busy_s": b["datasets.sample_clients"],
        "experiments.runs": c[RUN],
        "experiments.worker_idle_share":
            1.0 - _share(s.run_busy, jobs * sweep_wall) if jobs and sweep_wall else 0.0,
        "trace.coverage_share": _share(s.covered, s.run_busy),
    }

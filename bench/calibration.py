"""A fixed calibration loop that measures how fast the machine runs right now.

On a shared host the speed of a core drifts by a third and more, in spells
that last from seconds to minutes, so two runs of the same code on different
minutes disagree by more than a regression the benchmark must catch. Timing
this loop between the passes of a workload, on as many processes as a pass
uses, samples the speed of the machine over the same spells; `run.py` scales
the passes' rounds per second by NOMINAL_UNITS_PER_S over the samples' median
(and set-up times by its inverse), which takes out the drift the workload and
the loop share.

The loop is benchmark code and never calls splitfedsim, so a change to the
program moves the workload's rate and leaves the loop's alone. Its mix
follows the workloads: MLP steps, dense matmuls with a softmax and a ReLU
backward, at the wide workload's width and at the sweep's (where the
interpreter's overhead per numpy call dominates), a column median and sort
over a 20 x 9876 matrix (the robust rules and the gamma search), and a short
interpreted loop.
"""
from __future__ import annotations

import multiprocessing
import time

import numpy as np

# about the calibration units one process completes per second on the 2-vCPU
# Xeon VM the benchmark was defined on; only its ratio to the measured speed
# matters, and it must stay fixed so that runs of different commits compare
NOMINAL_UNITS_PER_S = 125.0
SLICE_S = 0.25      # the shortest time one speed sample runs the loop


def _inputs():
    rng = np.random.default_rng(20221205)
    return (rng.standard_normal((32, 256)), rng.standard_normal((256, 36)),
            rng.standard_normal((36, 4)), rng.standard_normal((20, 9876)),
            rng.standard_normal((32, 8)), rng.standard_normal((8, 32)))


def _mlp_step(x, w1, w2):
    h = x @ w1
    o = np.maximum(h, 0.0) @ w2
    e = np.exp(o - o.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return x.T @ ((p @ w2.T) * (h > 0))


def _unit(x, w1, w2, rows, small_x, small_w1):
    _mlp_step(x, w1, w2)
    for _ in range(10):
        _mlp_step(small_x, small_w1, small_w1.T)
    np.median(rows, axis=0)
    np.sort(rows, axis=0)
    s = 0.0
    for i in range(300):
        s += float(i)
    return s


def _units_per_s(seconds: float) -> float:
    inputs = _inputs()
    _unit(*inputs)   # first calls into numpy are slower
    n, t0 = 0, time.perf_counter()
    while True:
        _unit(*inputs)
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return n / elapsed


def speed(procs: int, seconds: float) -> float:
    """Calibration units per second, per process, with `procs` processes
    running the loop for `seconds` at once. Each runs in a forked child, so
    that neither its memory nor its caches stay with the process that runs
    the workload."""
    pool = multiprocessing.get_context("fork").Pool(procs)
    try:
        rates = pool.map(_units_per_s, [seconds] * procs)
    finally:
        pool.close()
        pool.join()
    return sum(rates) / procs

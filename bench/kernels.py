"""Kernel table at a workload's own shapes.

Times `nn.segment_forward` / `nn.segment_backward` on one-layer segments for
every Dense and ReLU layer of the workload's model at its training batch,
and `aggregation.trimmed_mean` / `coordinate_median` and
`attacks.gamma_search` on a 20 x d update matrix, d being the width of the
rows the workload aggregates. Per layer type the times, flops and bytes are
summed over the model's layers of that type.

Flops and bytes are computed from the array shapes the implementation
touches (float64, every array read or written once), not measured: caches
and sort comparisons are not counted.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from splitfedsim import attacks, nn
from splitfedsim.aggregation import (AggregationRule, coordinate_median,
                                     trimmed_mean)
from splitfedsim.config import malicious_count
from splitfedsim.models import build_model

LAYER_TYPES = ("Dense", "ReLU")   # the layers of the workloads' MLPs
F8 = 8            # bytes per float64
BUDGET_S = 0.05   # timing budget per kernel


def per_call_us(fn, budget_s: float = BUDGET_S, min_calls: int = 5) -> float:
    """Median wall time of one call, in microseconds, after one warm call."""
    fn()
    times = []
    stop = time.perf_counter() + budget_s
    while len(times) < min_calls or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _size(shape) -> int:
    return int(np.prod(shape))


def layer_cost(layer, in_shape, out_shape, b: int):
    """((fwd flops, fwd bytes), (bwd flops, bwd bytes)) for a batch of b."""
    x, y = b * _size(in_shape), b * _size(out_shape)
    if isinstance(layer, nn.Dense):
        w = layer.in_features * layer.out_features
        mac = b * w
        fwd = (2 * mac + y, F8 * (x + w + layer.out_features + y))
        bwd = (4 * mac + y, F8 * (x + y + 2 * w + layer.out_features + x))
        return fwd, bwd
    if isinstance(layer, nn.ReLU):
        return (x, F8 * 2 * x), (2 * x, F8 * 3 * x)
    return (0, 0), (0, 0)


def _layer_metrics(spec: nn.ModelSpec, batch: int, rng) -> dict[str, float]:
    out = {f"nn.kernel.{t}.{d}_{q}": 0.0 for t in LAYER_TYPES
           for d in ("fwd", "bwd") for q in ("us", "flops", "bytes")}
    tensors = nn.unflatten_params(spec, nn.init_params(spec, 0))
    for i, layer in enumerate(spec.layers):
        kind = type(layer).__name__
        if kind not in LAYER_TYPES:
            continue
        seg, params = (layer,), [tensors[i]]
        x = rng.standard_normal((batch,) + spec.shapes[i])
        acts, aux = nn.segment_forward(seg, params, x)
        dout = rng.standard_normal(acts[-1].shape)
        fwd_us = per_call_us(lambda: nn.segment_forward(seg, params, x))
        bwd_us = per_call_us(lambda: nn.segment_backward(seg, params, acts, aux, dout))
        (ff, fb), (bf, bb) = layer_cost(layer, spec.shapes[i], spec.shapes[i + 1], batch)
        for d, us, flops, nbytes in (("fwd", fwd_us, ff, fb), ("bwd", bwd_us, bf, bb)):
            out[f"nn.kernel.{kind}.{d}_us"] += us
            out[f"nn.kernel.{kind}.{d}_flops"] += flops
            out[f"nn.kernel.{kind}.{d}_bytes"] += nbytes
    return out


def _trmean_cost(n, d, t):
    return (n - 2 * t) * d, F8 * (2 * n * d + (n - 2 * t) * d + d)


def _median_cost(n, d):
    return (0 if n % 2 else 2 * d), F8 * (2 * n * d + 3 * d)


def _aggregation_metrics(d: int, n: int, m: int, rule: AggregationRule,
                         rng) -> dict[str, float]:
    updates = rng.standard_normal((n, d))
    benign = updates[:n - m]
    res = attacks.gamma_search(benign, m, "std", rule)
    agg_cost = _trmean_cost(n, d, m) if rule.kind == "trmean" else _median_cost(n, d)
    # benign mean and std once, then per evaluation: craft the row, stack
    # the matrix, aggregate it and take the distance to the mean
    nb = n - m
    setup = (4 * nb * d + d, F8 * (4 * nb * d + 3 * d))
    per_eval = (2 * d + agg_cost[0] + 3 * d,
                F8 * (3 * d + m * d + n * d + 2 * d) + agg_cost[1])
    out = {}
    for name, fn, (flops, nbytes) in (
            ("aggregation.kernel.trimmed_mean",
             lambda: trimmed_mean(updates, m), _trmean_cost(n, d, m)),
            ("aggregation.kernel.coordinate_median",
             lambda: coordinate_median(updates), _median_cost(n, d)),
            ("attacks.kernel.gamma_search",
             lambda: attacks.gamma_search(benign, m, "std", rule),
             (setup[0] + res.evaluations * per_eval[0],
              setup[1] + res.evaluations * per_eval[1]))):
        out[f"{name}.us"] = per_call_us(fn)
        out[f"{name}.flops"] = float(flops)
        out[f"{name}.bytes"] = float(nbytes)
    return out


def kernel_table(config, seed: int) -> dict[str, float]:
    """Every kernel metric for the model and aggregation a config runs."""
    rng = np.random.default_rng(seed)
    spec = build_model(config.model, config.blob_dims, config.blob_classes)
    out = _layer_metrics(spec, config.batch_size, rng)
    if config.mode == "splitfed":
        d = nn.segment_param_count(spec.layers[:spec.cut_presets[config.cut]])
    else:
        d = nn.param_count(spec)
    n = config.clients_per_round
    m = malicious_count(config.malicious_fraction, config.n_clients)
    if config.defense == "trmean":
        rule = AggregationRule("trmean", trim_count=m)
    else:
        rule = AggregationRule(config.defense)
    out.update(_aggregation_metrics(d, n, m, rule, rng))
    return out

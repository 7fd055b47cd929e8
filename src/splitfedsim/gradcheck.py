"""Finite-difference validation of the backward pass.

Builds small random models covering every layer kind, compares analytic
gradients against central differences, and reports the worst relative error.
Test points are resampled when a ReLU input or a pooling-window margin sits
too close to the kink, where the two sides legitimately disagree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

REL_TOL = 1e-4
# stay an order of magnitude above the finite-difference step: a parameter
# nudge of h moves pre-activations by O(h), so margins below that are unsafe
_KINK_EPS = 1e-3


@dataclass(frozen=True)
class CheckResult:
    description: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < REL_TOL


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """|a - n| / max(|a| + |n|, 1e-3), per coordinate."""
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-3)
    return np.abs(analytic - numeric) / denom


def near_kink(spec: nn.ModelSpec, params: np.ndarray, batch: np.ndarray) -> bool:
    """True when any ReLU input or pooling margin is within _KINK_EPS of its
    non-differentiable point for this batch."""
    acts, _ = nn.segment_forward(spec.layers, nn.unflatten_params(spec, params), batch)
    for layer, x in zip(spec.layers, acts):
        if isinstance(layer, nn.ReLU):
            if np.any(np.abs(x) < _KINK_EPS):
                return True
        elif isinstance(layer, nn.MaxPool2d):
            xr = layer.windows(x)
            if xr.shape[-1] > 1:
                srt = np.sort(xr, axis=-1)
                # ties only matter where the max routes a real gradient;
                # all-zero windows after a ReLU stay flat under perturbation
                close = srt[..., -1] - srt[..., -2] < _KINK_EPS
                if np.any(close & (srt[..., -1] > _KINK_EPS)):
                    return True
    return False


_MODEL_POOL = [
    ("dense pair", lambda: nn.ModelSpec(
        (nn.Dense(3, 5), nn.ReLU(), nn.Dense(5, 3)), (3,), 3)),
    ("dense deep", lambda: nn.ModelSpec(
        (nn.Dense(4, 6), nn.ReLU(), nn.Dense(6, 6), nn.ReLU(), nn.Dense(6, 2)),
        (4,), 2)),
    ("conv head", lambda: nn.ModelSpec(
        (nn.Conv2d(1, 2, 3, 1, 1), nn.ReLU(), nn.Flatten(), nn.Dense(32, 3)),
        (1, 4, 4), 3)),
    ("conv pool", lambda: nn.ModelSpec(
        (nn.Conv2d(1, 2, 3, 1, 1), nn.ReLU(), nn.MaxPool2d(2), nn.Flatten(),
         nn.Dense(8, 2)), (1, 4, 4), 2)),
    ("conv stride", lambda: nn.ModelSpec(
        (nn.Conv2d(2, 2, 2, 2, 0), nn.ReLU(), nn.Flatten(), nn.Dense(8, 2)),
        (2, 4, 4), 2)),
    ("conv stack", lambda: nn.ModelSpec(
        (nn.Conv2d(1, 2, 3, 1, 1), nn.ReLU(), nn.MaxPool2d(2),
         nn.Conv2d(2, 3, 3, 1, 1), nn.ReLU(), nn.MaxPool2d(2), nn.Flatten(),
         nn.Dense(3 * 2 * 2, 2)), (1, 8, 8), 2)),
]


def make_instance(index: int, seed: int):
    """Deterministic (description, spec, params, batch, labels) tuple; the
    batch is resampled until it sits away from every kink."""
    name, build = _MODEL_POOL[index % len(_MODEL_POOL)]
    rng = np.random.default_rng([seed, index])
    spec = build()
    bsz = int(rng.integers(2, 5))
    for _ in range(100):
        # jittered biases keep pre-activations off the exact ReLU kink that
        # zero-initialized biases would otherwise pin whole regions to
        params = nn.init_params(spec, int(rng.integers(1 << 31)))
        params = params + 0.1 * rng.standard_normal(params.shape)
        batch = rng.standard_normal((bsz,) + spec.input_shape)
        labels = rng.integers(0, spec.num_classes, size=bsz)
        if not near_kink(spec, params, batch):
            return f"{name} #{index}", spec, params, batch, labels
    raise RuntimeError(f"could not find a kink-free batch for {name}")


def run_gradient_checks(count: int = 24, seed: int = 0) -> list[CheckResult]:
    """Compare analytic and numeric gradients on `count` random models."""
    results = []
    for i in range(count):
        desc, spec, params, batch, labels = make_instance(i, seed)
        analytic, _ = nn.grad(spec, params, batch, labels)
        numeric = nn.finite_diff_grad(spec, params, batch, labels)
        err = float(relative_errors(analytic, numeric).max())
        results.append(CheckResult(desc, err))
    return results

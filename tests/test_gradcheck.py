"""Finite-difference gradient validation harness."""

import numpy as np
import pytest

from splitfedsim import nn
from splitfedsim.gradcheck import (
    REL_TOL,
    CheckResult,
    make_instance,
    near_kink,
    relative_errors,
    run_gradient_checks,
)


def test_relative_errors_uses_guarded_denominator():
    a = np.array([1.0, 0.0, 1e-6])
    b = np.array([1.0, 0.0, -1e-6])
    errs = relative_errors(a, b)
    assert errs[0] == 0.0
    assert errs[1] == 0.0
    # tiny disagreement measured against the 1e-3 floor, not against ~0
    assert errs[2] == pytest.approx(2e-6 / 1e-3)


def test_relative_errors_scale_free():
    a = np.array([100.0])
    b = np.array([100.1])
    assert relative_errors(a, b)[0] == pytest.approx(0.1 / 200.1)


def test_near_kink_flags_relu_at_zero():
    spec = nn.ModelSpec(
        layers=(nn.Dense(2, 3), nn.ReLU(), nn.Dense(3, 2)),
        input_shape=(2,),
        num_classes=2,
    )
    params = np.zeros(nn.param_count(spec))  # all pre-activations exactly 0
    assert near_kink(spec, params, np.ones((1, 2)))
    safe = params.copy()
    safe[:6] = 1.0  # strong positive weights push activations away from 0
    assert not near_kink(spec, safe, np.ones((1, 2)))


def test_near_kink_flags_a_tie_in_a_pooling_window():
    spec = nn.ModelSpec(
        layers=(nn.MaxPool2d(2), nn.Flatten(), nn.Dense(1, 2)),
        input_shape=(1, 2, 2),
        num_classes=2,
    )
    params = np.zeros(nn.param_count(spec))
    assert near_kink(spec, params, np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
    assert not near_kink(spec, params, np.array([[[[1.0, 0.0], [0.0, 0.5]]]]))
    # an all-zero window stays flat under a nudge, so its tie does not count
    assert not near_kink(spec, params, np.zeros((1, 1, 2, 2)))


def test_make_instance_deterministic():
    a = make_instance(3, seed=5)
    b = make_instance(3, seed=5)
    assert a[0] == b[0]
    assert a[1].layers == b[1].layers
    for left, right in zip(a[2:], b[2:]):
        np.testing.assert_array_equal(left, right)


def test_make_instance_avoids_kinks():
    for i in range(6):
        _, spec, params, batch, _ = make_instance(i, seed=0)
        assert not near_kink(spec, params, batch)


def test_check_result_passed_property():
    assert CheckResult("d", REL_TOL / 2).passed
    assert not CheckResult("d", REL_TOL * 2).passed


def test_run_gradient_checks_all_layer_kinds_pass():
    results = run_gradient_checks(count=8, seed=0)
    assert len(results) == 8
    descriptions = " ".join(r.description for r in results)
    assert "conv" in descriptions and "dense" in descriptions
    for r in results:
        assert r.passed, f"{r.description}: {r.max_rel_err}"
        assert r.max_rel_err < REL_TOL

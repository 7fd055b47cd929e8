"""Split engine: parameter partitioning at the cut, the forward/backward
handoff, and the keystone property that the split pipeline reproduces
full-model training bit-exactly."""

import numpy as np
import pytest

from splitfedsim import nn
from splitfedsim.models import build_model, cnn_spec, mlp_spec
from splitfedsim.split import (
    CutPoint,
    SplitModel,
    client_backward,
    client_forward,
    server_step,
    split_at,
    split_offset,
    split_train_step,
)


def _mlp_setup(cut_name="v2", seed=0):
    spec = mlp_spec()
    params = nn.init_params(spec, seed)
    model = split_at(spec, params, CutPoint(spec.cut_presets[cut_name]))
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(6, 8))
    y = rng.integers(0, 4, size=6)
    return spec, params, model, x, y


# ---------------------------------------------------------------- split_at


def test_split_preserves_parameter_mass():
    spec = mlp_spec()
    params = nn.init_params(spec, 1)
    for cut in spec.cut_presets.values():
        model = split_at(spec, params, CutPoint(cut))
        assert model.client_params.size + model.server_params.size == params.size
        np.testing.assert_array_equal(model.params, params)


def test_split_v1_client_owns_first_dense():
    spec = mlp_spec()
    params = nn.init_params(spec, 2)
    model = split_at(spec, params, CutPoint(spec.cut_presets["v1"]))
    assert model.client_params.size == 8 * 32 + 32
    np.testing.assert_array_equal(model.client_params, params[: 8 * 32 + 32])


def test_split_at_halves_do_not_share_memory_with_input():
    for spec in (mlp_spec(), cnn_spec()):
        rng = np.random.default_rng(3)
        params = nn.init_params(spec, 3)
        before = params.copy()
        x = rng.normal(size=(4,) + spec.input_shape)
        y = rng.integers(0, spec.num_classes, size=4)
        for cut in spec.cut_presets.values():
            model = split_at(spec, params, CutPoint(cut))
            assert not np.shares_memory(model.client_params, params)
            assert not np.shares_memory(model.server_params, params)
            split_train_step(model, x, y, 0.1)
            np.testing.assert_array_equal(params, before)


def test_split_offset_monotone_in_cut():
    spec = mlp_spec()
    offsets = [split_offset(spec, CutPoint(c)) for c in sorted(spec.cut_presets.values())]
    assert offsets == sorted(offsets)
    assert offsets[0] < offsets[1] < offsets[2]


def test_split_rejects_out_of_range_cut():
    spec = mlp_spec()
    params = nn.init_params(spec, 0)
    for bad in (0, len(spec.layers), -1):
        with pytest.raises(ValueError):
            split_at(spec, params, CutPoint(bad))


def test_split_rejects_wrong_param_length():
    spec = mlp_spec()
    with pytest.raises(ValueError):
        split_at(spec, np.zeros(10), CutPoint(2))
    with pytest.raises(nn.ShapeError):
        SplitModel(spec, CutPoint(2), np.zeros(nn.param_count(spec) + 1))


# ---------------------------------------------------------------- forward


def test_client_forward_matches_full_model_prefix():
    spec, params, model, x, y = _mlp_setup()
    smashed = client_forward(model, x, y)
    acts, _ = nn.segment_forward(spec.layers, nn.unflatten_params(spec, params), x)
    np.testing.assert_array_equal(smashed.activations, acts[model.cut.layer_index])
    assert smashed.activations.shape[0] == 6


def test_client_forward_shape_checks():
    _, _, model, x, y = _mlp_setup()
    with pytest.raises(nn.ShapeError):
        client_forward(model, x[:, :5], y)
    with pytest.raises(nn.ShapeError):
        client_forward(model, np.zeros((0, 8)), np.zeros(0, dtype=int))
    with pytest.raises(nn.ShapeError):
        client_forward(model, x, y[:-1])


def test_client_forward_checks_label_values():
    _, _, model, x, y = _mlp_setup()
    for bad in (y.astype(float), np.full(6, -1), np.full(6, 4), np.arange(6)):
        with pytest.raises(nn.ShapeError):
            client_forward(model, x, bad)


def test_relu_client_half_passes_nonnegative_input_through():
    spec = nn.ModelSpec(
        layers=(nn.ReLU(), nn.Dense(3, 2)), input_shape=(3,), num_classes=2
    )
    params = nn.init_params(spec, 0)
    model = split_at(spec, params, CutPoint(1))
    x = np.abs(np.random.default_rng(0).normal(size=(4, 3)))
    smashed = client_forward(model, x, np.zeros(4, dtype=int))
    np.testing.assert_array_equal(smashed.activations, x)


# ---------------------------------------------------------------- server


def test_server_loss_equals_full_model_loss():
    spec, params, model, x, y = _mlp_setup()
    smashed = client_forward(model, x, y)
    _, loss = server_step(model, smashed, lr=0.05)
    assert loss == nn.grad(spec, params, x, y)[1]


def test_split_steps_reject_non_positive_lr_and_leave_both_halves():
    _, params, model, x, y = _mlp_setup()
    smashed = client_forward(model, x, y)
    cut_grad = np.ones_like(smashed.activations)
    for lr in (0.0, -0.1):
        with pytest.raises(ValueError, match="learning rate"):
            server_step(model, smashed, lr)
        with pytest.raises(ValueError, match="learning rate"):
            client_backward(model, smashed, cut_grad, lr)
        assert model.params.tobytes() == params.tobytes()


def test_server_step_gradients_computed_before_update():
    _, _, model, x, y = _mlp_setup()
    _, _, twin, _, _ = _mlp_setup()
    before = model.server_params.copy()
    cut_grad_a, _ = server_step(model, client_forward(model, x, y), lr=0.05)
    cut_grad_b, _ = server_step(twin, client_forward(twin, x, y), lr=0.5)
    np.testing.assert_array_equal(cut_grad_a, cut_grad_b)
    assert not np.array_equal(twin.server_params, before)


# ---------------------------------------------------------------- backward


def test_split_gradient_concat_equals_full_gradient():
    for cut_name in ("v1", "v2", "v3"):
        spec, params, model, x, y = _mlp_setup(cut_name)
        full_grad, _ = nn.grad(spec, params, x, y)
        offset = model.client_params.size

        smashed = client_forward(model, x, y)
        cut_grad, _ = server_step(model, smashed, lr=0.05)
        # recover the client grad via a unit-lr step difference
        before = model.client_params.copy()
        client_backward(model, smashed, cut_grad, lr=1.0)
        client_grad = before - model.client_params

        np.testing.assert_allclose(client_grad, full_grad[:offset], rtol=0, atol=1e-15)


def test_client_backward_zero_cut_grad_no_change():
    _, _, model, x, y = _mlp_setup()
    smashed = client_forward(model, x, y)
    before = model.client_params.copy()
    zero = np.zeros_like(smashed.activations)
    client_backward(model, smashed, zero, lr=0.5)
    np.testing.assert_array_equal(model.client_params, before)


def test_client_backward_delta_linear_in_lr():
    _, _, model_a, x, y = _mlp_setup()
    _, _, model_b, _, _ = _mlp_setup()
    smashed = client_forward(model_a, x, y)
    cut_grad, _ = server_step(model_a, smashed, lr=0.05)
    start = model_a.client_params.copy()
    client_backward(model_a, smashed, cut_grad, lr=0.1)
    client_backward(model_b, smashed, cut_grad, lr=0.2)
    d1 = start - model_a.client_params
    d2 = start - model_b.client_params
    np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-12, atol=1e-15)


def test_client_backward_shape_check():
    _, _, model, x, y = _mlp_setup()
    smashed = client_forward(model, x, y)
    with pytest.raises(nn.ShapeError):
        client_backward(model, smashed, np.zeros((6, 999)), lr=0.1)


# ---------------------------------------------------------------- keystone


def _assert_split_equivalent(spec, seed):
    rng = np.random.default_rng(seed)
    params = nn.init_params(spec, seed)
    x = rng.normal(size=(5,) + spec.input_shape)
    y = rng.integers(0, spec.num_classes, size=5)
    lr = 0.05

    g, _ = nn.grad(spec, params, x, y)
    reference = nn.sgd_step(params, g, lr)

    for cut in spec.cut_presets.values():
        model = split_at(spec, params, CutPoint(cut))
        split_train_step(model, x, y, lr)
        np.testing.assert_array_equal(model.params, reference)


def test_split_equivalence_mlp_all_cuts():
    _assert_split_equivalent(mlp_spec(), seed=0)


def test_split_equivalence_cnn_all_cuts():
    _assert_split_equivalent(cnn_spec(), seed=1)


def test_multi_step_split_equivalence():
    spec = mlp_spec()
    rng = np.random.default_rng(7)
    params = nn.init_params(spec, 7)
    batches = [
        (rng.normal(size=(4, 8)), rng.integers(0, 4, size=4)) for _ in range(5)
    ]
    reference = params
    for x, y in batches:
        g, _ = nn.grad(spec, reference, x, y)
        reference = nn.sgd_step(reference, g, 0.05)
    model = split_at(spec, params, CutPoint(spec.cut_presets["v2"]))
    for x, y in batches:
        split_train_step(model, x, y, 0.05)
    np.testing.assert_array_equal(model.params, reference)


def test_half_views_cannot_be_reassigned():
    _, _, model, _, _ = _mlp_setup("v2")
    for name in ("client_params", "server_params"):
        with pytest.raises(AttributeError):
            setattr(model, name, np.zeros(getattr(model, name).size))


def test_copying_into_the_half_views_restarts_both_halves():
    """The halves are fixed views of one buffer that every step reads; copying
    a fresh split's vectors into them makes the next steps those of the fresh
    split, bit for bit."""
    for spec in (mlp_spec(), cnn_spec()):
        rng = np.random.default_rng(5)
        params = nn.init_params(spec, 5)
        x = rng.normal(size=(4,) + spec.input_shape)
        y = rng.integers(0, spec.num_classes, size=4)
        for cut in spec.cut_presets.values():
            model = split_at(spec, params, CutPoint(cut))
            buffer = model.params
            split_train_step(model, x, y, 0.05)
            fresh = split_at(spec, params, CutPoint(cut))
            model.client_params[...] = fresh.client_params
            model.server_params[...] = fresh.server_params
            for _ in range(2):
                split_train_step(model, x, y, 0.05)
                split_train_step(fresh, x, y, 0.05)
            assert model.params is buffer
            assert model.params.tobytes() == fresh.params.tobytes()

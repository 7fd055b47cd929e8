"""Network engine: layer arithmetic, initialization, backprop vs the
finite-difference oracle, and the flat parameter-vector layout."""

import hashlib
import re

import numpy as np
import pytest

from splitfedsim.models import cnn_spec, mlp_spec
from splitfedsim.nn import (
    BuildError,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2d,
    ModelSpec,
    ReLU,
    ShapeError,
    finite_diff_grad,
    forward,
    grad,
    infer_shapes,
    init_params,
    param_count,
    segment_backward,
    segment_forward,
    segment_layout,
    segment_param_count,
    sgd_step,
    sgd_update,
    softmax_cross_entropy,
    unflatten_params,
)


def _dense_spec(in_dim=2, out_dim=2):
    return ModelSpec(
        layers=(Dense(in_dim, out_dim),),
        input_shape=(in_dim,),
        num_classes=out_dim,
    )


def _small_mlp():
    return ModelSpec(
        layers=(Dense(3, 5), ReLU(), Dense(5, 4)),
        input_shape=(3,),
        num_classes=4,
    )


# ---------------------------------------------------------------- build/shape


def test_infer_shapes_dense_chain():
    spec = _small_mlp()
    assert spec.shapes == [(3,), (5,), (5,), (4,)]


def test_build_error_names_offending_layer():
    with pytest.raises(BuildError, match="layer 1"):
        ModelSpec(layers=(Dense(3, 5), Dense(4, 2)), input_shape=(3,), num_classes=2)


@pytest.mark.parametrize("layers,bad", [
    (("relu", Dense(3, 2)), "layer 0 (str): unknown layer type str"),
    ((Dense(3, 5), object(), Dense(5, 2)), "layer 1 (object): unknown layer type object"),
])
def test_non_layer_in_stack_names_it(layers, bad):
    with pytest.raises(BuildError) as err:
        ModelSpec(layers=layers, input_shape=(3,), num_classes=2)
    assert str(err.value) == bad


def test_final_shape_must_match_num_classes():
    with pytest.raises(BuildError):
        ModelSpec(layers=(Dense(3, 5),), input_shape=(3,), num_classes=4)


def test_cut_presets_validated():
    with pytest.raises(BuildError):
        ModelSpec(
            layers=(Dense(3, 5), ReLU(), Dense(5, 4)),
            input_shape=(3,),
            num_classes=4,
            cut_presets={"v1": 0},  # 0 would leave an empty client half
        )


def test_conv_pool_shape_chain():
    layers = (Conv2d(1, 4, 3, 1, 1), ReLU(), MaxPool2d(2), Flatten(), Dense(64, 3))
    shapes = infer_shapes(layers, (1, 8, 8))
    assert shapes == [(1, 8, 8), (4, 8, 8), (4, 8, 8), (4, 4, 4), (64,), (3,)]


def test_flatten_takes_feature_maps_only():
    # a stack's client axis leads the batch axis, so Flatten keeps every axis
    # before the (C, H, W) it flattens
    with pytest.raises(BuildError, match=re.escape("Flatten expects (C,H,W) input")):
        infer_shapes((Dense(3, 4), Flatten()), (3,))
    x = np.arange(2 * 3 * 24.0).reshape(2, 3, 2, 3, 4)
    acts, _ = segment_forward((Flatten(),), [[]], x)
    assert acts[-1].shape == (2, 3, 24)
    np.testing.assert_array_equal(acts[-1][1, 2], x[1, 2].ravel())


# ---------------------------------------------------------------- params


def test_dense_param_count_and_zero_biases():
    spec = ModelSpec(layers=(Dense(2, 3),), input_shape=(2,), num_classes=3)
    assert param_count(spec) == 9  # 6 weights + 3 biases
    p = init_params(spec, seed=0)
    assert p.shape == (9,)
    np.testing.assert_array_equal(p[6:], [0.0, 0.0, 0.0])


def test_init_params_deterministic():
    spec = _small_mlp()
    np.testing.assert_array_equal(init_params(spec, 42), init_params(spec, 42))
    assert not np.array_equal(init_params(spec, 42), init_params(spec, 43))


def test_init_params_glorot_bound():
    spec = ModelSpec(layers=(Dense(100, 100),), input_shape=(100,), num_classes=100)
    p = init_params(spec, seed=7)
    bound = np.sqrt(6.0 / 200.0)
    assert np.abs(p).max() <= bound + 1e-12
    assert np.abs(p[:10000]).max() > 0.8 * bound  # the draw actually fills the range


def test_flatten_unflatten_round_trip_bit_exact():
    spec = _small_mlp()
    p = init_params(spec, seed=3)
    again = np.empty(p.size)
    for dst, src in zip(segment_layout(spec.layers).views(again),
                        unflatten_params(spec, p)):
        for d, t in zip(dst, src):
            d[...] = t
    assert again.tobytes() == p.tobytes()


def test_layer_param_count_conv():
    assert segment_param_count((Conv2d(3, 8, 3, 1, 1),)) == 8 * 3 * 3 * 3 + 8
    assert segment_param_count((ReLU(),)) == 0
    assert segment_param_count((MaxPool2d(2),)) == 0


def _walk_slots(layers):
    """(start, stop, shape) of every tensor, by a plain walk over
    param_shapes(); the oracle for the cached layout."""
    slots, off = [], 0
    for layer in layers:
        group = []
        for shape in layer.param_shapes():
            n = int(np.prod(shape))
            group.append((off, off + n, tuple(shape)))
            off += n
        slots.append(group)
    return slots, off


@pytest.mark.parametrize("spec", [mlp_spec(), cnn_spec(), cnn_spec((1, 16, 16))],
                         ids=["mlp", "cnn", "cnn16"])
def test_layout_matches_walk_on_every_prefix_and_suffix(spec):
    n = len(spec.layers)
    for seg in [spec.layers[:k] for k in range(n + 1)] + \
               [spec.layers[k:] for k in range(n + 1)]:
        slots, size = _walk_slots(seg)
        assert segment_param_count(seg) == size
        vec = np.arange(size, dtype=float)
        views = segment_layout(seg).views(vec)
        assert [len(g) for g in views] == [len(g) for g in slots]
        for group, expect in zip(views, slots):
            for t, (a, b, shape) in zip(group, expect):
                assert t.shape == shape
                assert np.shares_memory(t, vec)
                np.testing.assert_array_equal(t.ravel(), vec[a:b])
    size = _walk_slots(spec.layers)[1]
    assert param_count(spec) == size
    for bad in (np.zeros(size + 1), np.zeros((1, size)), np.zeros(size - 1)):
        msg = f"parameter vector has shape {bad.shape}, expected ({size},)"
        with pytest.raises(ShapeError, match=re.escape(msg)):
            unflatten_params(spec, bad)
    for layer in spec.layers:
        assert segment_param_count((layer,)) == _walk_slots((layer,))[1]


# ---------------------------------------------------------------- forward


def test_forward_dense_hand_value():
    spec = ModelSpec(layers=(Dense(2, 1),), input_shape=(2,), num_classes=1)
    params = np.array([1.0, 1.0, 0.0])  # weights (2x1) then bias
    logits = forward(spec, params, np.array([[1.0, 2.0]]))
    assert type(logits) is np.ndarray
    np.testing.assert_array_equal(logits, [[3.0]])


def test_maxpool_hand_value():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    acts, _ = segment_forward((MaxPool2d(2),), [[]], x)
    np.testing.assert_array_equal(acts[-1], [[[[4.0]]]])


def test_conv_hand_value():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    kernel = np.ones((1, 1, 2, 2))
    bias = np.zeros(1)
    acts, _ = segment_forward((Conv2d(1, 1, 2, 1, 0),), [[kernel, bias]], x)
    np.testing.assert_array_equal(acts[-1], [[[[10.0]]]])


def test_relu_clips_negative():
    acts, _ = segment_forward((ReLU(),), [[]], np.array([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(acts[-1], [[0.0, 0.0, 2.0]])


def test_forward_rejects_bad_shape_and_empty_batch():
    spec = _dense_spec()
    p = init_params(spec, 0)
    with pytest.raises(ShapeError):
        forward(spec, p, np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        forward(spec, p, np.zeros((0, 2)))


def test_forward_deterministic():
    spec = _small_mlp()
    p = init_params(spec, 1)
    x = np.random.default_rng(1).normal(size=(5, 3))
    np.testing.assert_array_equal(forward(spec, p, x), forward(spec, p, x))


# ---------------------------------------------------------------- loss/backward


def test_zero_weight_net_uniform_loss():
    spec = _dense_spec(2, 2)
    params = np.zeros(param_count(spec))
    x = np.array([[0.3, -0.1], [1.0, 2.0]])
    labels = np.array([0, 1])
    assert grad(spec, params, x, labels)[1] == pytest.approx(np.log(2.0), rel=1e-12)


def test_loss_nonnegative_and_finite():
    spec = _small_mlp()
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = init_params(spec, int(rng.integers(1 << 30)))
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 4, size=6)
        _, loss = grad(spec, p, x, y)
        assert np.isfinite(loss) and loss >= 0.0


def test_confident_correct_logits_vanishing_loss_and_grad():
    spec = _dense_spec(2, 2)
    # weights that push class 0 far above class 1 for x = [1, 0]
    params = np.array([50.0, -50.0, 0.0, 0.0, 0.0, 0.0])
    x = np.array([[1.0, 0.0]])
    labels = np.array([0])
    g, loss = grad(spec, params, x, labels)
    assert loss < 1e-9
    assert np.linalg.norm(g) < 1e-9


def test_softmax_cross_entropy_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    _, dlogits = softmax_cross_entropy(logits, labels)
    np.testing.assert_allclose(dlogits.sum(axis=1), np.zeros(5), atol=1e-12)


def test_backward_rejects_label_problems():
    spec = _dense_spec(2, 2)
    p = init_params(spec, 0)
    x = np.zeros((2, 2))
    for bad in (np.array([0]),          # batch-size mismatch
                np.array([0.0, 1.0]),   # non-integer
                np.array([0, 2])):      # out of range
        with pytest.raises(ShapeError):
            grad(spec, p, x, bad)
        with pytest.raises(ShapeError):
            finite_diff_grad(spec, p, x, bad)


# ---------------------------------------------------------------- grad oracle


def test_backward_matches_finite_difference_mlp():
    spec = _small_mlp()
    rng = np.random.default_rng(11)
    p = init_params(spec, 11) + 0.05 * rng.normal(size=param_count(spec))
    x = rng.normal(size=(4, 3))
    y = rng.integers(0, 4, size=4)
    analytic, _ = grad(spec, p, x, y)
    numeric = finite_diff_grad(spec, p, x, y, h=1e-4)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-3)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_backward_matches_finite_difference_conv():
    spec = ModelSpec(
        layers=(Conv2d(1, 2, 3, 1, 1), ReLU(), MaxPool2d(2), Flatten(), Dense(8, 3)),
        input_shape=(1, 4, 4),
        num_classes=3,
    )
    rng = np.random.default_rng(12)
    p = init_params(spec, 12) + 0.05 * rng.normal(size=param_count(spec))
    x = rng.normal(size=(2, 1, 4, 4))
    y = rng.integers(0, 3, size=2)
    analytic, _ = grad(spec, p, x, y)
    numeric = finite_diff_grad(spec, p, x, y, h=1e-4)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-3)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_dense_1x1_analytic_vs_numeric_tight():
    spec = ModelSpec(layers=(Dense(1, 2),), input_shape=(1,), num_classes=2)
    p = np.array([0.7, -0.4, 0.1, -0.2])
    x = np.array([[1.3]])
    y = np.array([1])
    analytic, _ = grad(spec, p, x, y)
    numeric = finite_diff_grad(spec, p, x, y, h=1e-5)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


def test_finite_diff_requires_positive_h():
    spec = _dense_spec()
    p = init_params(spec, 0)
    for h in (0.0, -1e-4, np.nan, np.inf):
        with pytest.raises(ValueError, match="step size h"):
            finite_diff_grad(spec, p, np.zeros((1, 2)), np.array([0]), h=h)


def _backward_to_input(spec, p, x, y):
    """(flat gradient, gradient wrt x, loss) by segment_backward with
    input_grad=True, the path server_step runs at the cut."""
    tensors = unflatten_params(spec, p)
    acts, aux = segment_forward(spec.layers, tensors, x)
    loss, dlogits = softmax_cross_entropy(acts[-1], y)
    g = np.empty(param_count(spec))
    _, dx = segment_backward(spec.layers, tensors, acts, aux, dlogits,
                             segment_layout(spec.layers).views(g))
    return g, dx, loss


def test_input_gradient_shape_matches_batch():
    spec = _small_mlp()
    p = init_params(spec, 5)
    x = np.random.default_rng(5).normal(size=(3, 3))
    _, dx, _ = _backward_to_input(spec, p, x, np.array([0, 1, 2]))
    assert dx.shape == x.shape


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


# SHA-256 of init_params(spec, 42), of the flat gradient and of the input
# gradient on a fixed batch of 32, as produced before each layer kind became
# one class; on x86-64 with OpenBLAS (another BLAS may round matmuls apart)
PRESET_DIGESTS = {
    "mlp": ("0024f9b305605d828e7e1274f1688d1a2c971d2410dc7fbe570f03af362e6199",
            "4ef442e099a739e1f2a7986a825c011aff8282954cb7fcc699bb1689ed798867",
            "8d886bfdbcd2a81f32ec40f3da8908db6298f27467eddb171cce132f633de07f"),
    "cnn": ("df08fd323ba751fe51bd7a8ba364e7e408547dd90f79e0722baeee00ae914318",
            "f6f4e5366b6b310714838a3abeec2a616883fa9ff48ae6d8e148bac56760c07b",
            "57a779ddc449daca5b2bcf909678b6bf629c5119d48617738a53cf53ef9ceda8"),
}


@pytest.mark.parametrize("name,build", [("mlp", mlp_spec), ("cnn", cnn_spec)])
def test_preset_params_and_gradients_are_pinned(name, build):
    spec = build()
    p = init_params(spec, 42)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32,) + spec.input_shape)
    y = rng.integers(0, spec.num_classes, size=32)
    g, dx, _ = _backward_to_input(spec, p, x, y)
    np.testing.assert_array_equal(grad(spec, p, x, y)[0], g)
    assert (_sha256(p), _sha256(g), _sha256(dx)) == PRESET_DIGESTS[name]


@pytest.mark.parametrize("build", [mlp_spec, cnn_spec], ids=["mlp", "cnn"])
def test_successive_grads_do_not_share_memory(build):
    spec = build()
    rng = np.random.default_rng(5)
    p = init_params(spec, 5)
    x = rng.normal(size=(4,) + spec.input_shape)
    y = rng.integers(0, spec.num_classes, size=4)
    g1, _ = grad(spec, p, x, y)
    kept = g1.copy()
    g2, _ = grad(spec, p, x, y)
    assert not np.shares_memory(g1, g2)
    assert not np.shares_memory(g1, p)
    np.testing.assert_array_equal(g1, kept)
    np.testing.assert_array_equal(g2, kept)


def _relu_first():
    return ModelSpec(layers=(ReLU(), Dense(3, 5), ReLU(), Dense(5, 4)),
                     input_shape=(3,), num_classes=4)


@pytest.mark.parametrize("build", [mlp_spec, cnn_spec, _relu_first, _dense_spec],
                         ids=["mlp", "cnn", "relu_first", "single_dense"])
def test_grad_stops_at_layer_0_with_the_bits_of_backward(build):
    spec = build()
    rng = np.random.default_rng(8)
    p = init_params(spec, 8)
    for bsz in (1, 6):
        x = rng.normal(size=(bsz,) + spec.input_shape)
        y = rng.integers(0, spec.num_classes, size=bsz)
        g, loss = grad(spec, p, x, y)
        want, dx, want_loss = _backward_to_input(spec, p, x, y)
        assert g.tobytes() == want.tobytes()
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert dx.shape == x.shape
        tensors = unflatten_params(spec, p)
        acts, aux = segment_forward(spec.layers, tensors, x)
        _, dlogits = softmax_cross_entropy(acts[-1], y)
        flat = np.empty(param_count(spec))
        _, none = segment_backward(spec.layers, tensors, acts, aux, dlogits,
                                   segment_layout(spec.layers).views(flat),
                                   input_grad=False)
        assert none is None
        assert flat.tobytes() == want.tobytes()


def _stack(spec, g, rng):
    """g distinct parameter vectors of spec, stacked (g, d)."""
    return np.stack([init_params(spec, seed) + 0.01 * rng.normal(size=param_count(spec))
                     for seed in range(g)])


# B = 1 takes NumPy's gemv path and a view for Conv2d's window matrix; B >= 8
# takes the pairwise sum in the loss
@pytest.mark.parametrize("build", [mlp_spec, cnn_spec], ids=["mlp", "cnn"])
@pytest.mark.parametrize("g", [1, 3])
@pytest.mark.parametrize("bsz", [1, 5, 16, 32])
def test_stacked_grad_is_each_clients_own_grad_byte_for_byte(build, g, bsz):
    spec = build()
    rng = np.random.default_rng(100 * g + bsz)
    stack = _stack(spec, g, rng)
    kept = stack.copy()
    x = rng.normal(size=(g, bsz) + spec.input_shape)
    y = rng.integers(0, spec.num_classes, size=(g, bsz))
    grads, losses = grad(spec, stack, x, y)
    assert grads.shape == stack.shape and len(losses) == g
    buf = np.full(stack.shape, np.nan)
    again, again_losses = grad(spec, stack, x, y, out=buf)
    assert again is buf
    assert again.tobytes() == grads.tobytes() and again_losses == losses
    for i in range(g):
        want, want_loss = grad(spec, stack[i].copy(), x[i], y[i])
        assert grads[i].tobytes() == want.tobytes()
        assert type(losses[i]) is float
        assert np.float64(losses[i]).tobytes() == np.float64(want_loss).tobytes()
    assert stack.tobytes() == kept.tobytes()


def test_stacked_grad_rejects_shapes_that_do_not_match():
    spec = mlp_spec()
    rng = np.random.default_rng(3)
    stack = _stack(spec, 3, rng)
    x = rng.normal(size=(3, 5) + spec.input_shape)
    y = rng.integers(0, spec.num_classes, size=(3, 5))
    cases = [
        (stack, x[:2], y[:2], [stack.shape, (2, 5, 8)]),         # G differs
        (stack[:2], x, y, [(2, param_count(spec)), x.shape]),    # G differs
        (stack, x, y[:, :4], [(3, 4), (3, 5)]),                  # B differs
        (stack, x[0], y[0], [stack.shape, (5, 8)]),              # no client axis
        (stack[:, :-1], x, y, [(3, param_count(spec) - 1)]),     # width
        (stack[0, :-1], x[0], y[0], [(param_count(spec) - 1,)]), # one vector's width
        (stack[None], x[None], y[None], [(1,) + stack.shape]),   # 3-D params
    ]
    for params, batch, labels, shapes in cases:
        with pytest.raises(ShapeError) as err:
            grad(spec, params, batch, labels)
        for shape in shapes:
            assert str(shape) in str(err.value)
    with pytest.raises(ShapeError, match="gradient buffer"):
        grad(spec, stack, x, y, out=np.empty((2, param_count(spec))))


def _softmax_cross_entropy_reference(logits, labels):
    """The formula softmax_cross_entropy keeps to the bit."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    logp = z - logsumexp[:, None]
    rows = np.arange(n)
    loss = float(-logp[rows, labels].mean())
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return loss, dlogits


@pytest.mark.parametrize("n", [1, 2, 32, 33])
def test_softmax_cross_entropy_keeps_the_bits_of_its_formula(n):
    rng = np.random.default_rng(n)
    cases = [rng.normal(size=(n, 4)),
             rng.integers(-2, 3, size=(n, 4)).astype(float),   # ties in a row
             np.full((n, 4), 0.25),
             rng.normal(size=(n, 4)) * 1e3,
             rng.choice([-1e3, 1e3, 0.0], size=(n, 10)),
             rng.normal(size=(n, 2)) + 1e3]
    for logits in cases:
        labels = rng.integers(0, logits.shape[1], size=n)
        kept = logits.copy()
        loss, dlogits = softmax_cross_entropy(logits, labels)
        want_loss, want = _softmax_cross_entropy_reference(logits, labels)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert dlogits.tobytes() == want.tobytes()
        assert logits.tobytes() == kept.tobytes()


# ---------------------------------------------------------------- sgd


def test_sgd_step_hand_value():
    out = sgd_step(np.array([1.0, 1.0]), np.array([1.0, -1.0]), lr=0.5)
    np.testing.assert_array_equal(out, [0.5, 1.5])


def test_sgd_zero_grad_no_change():
    p = np.array([2.0, -3.0])
    np.testing.assert_array_equal(sgd_step(p, np.zeros(2), lr=0.1), p)


def test_sgd_two_half_steps_equal_one_full():
    p = np.array([1.0, 2.0, 3.0])
    g = np.array([0.5, -1.0, 0.25])
    twice = sgd_step(sgd_step(p, g, 0.1), g, 0.1)
    np.testing.assert_allclose(twice, sgd_step(p, g, 0.2), rtol=1e-15)


def test_sgd_rejects_mismatch_and_bad_lr():
    with pytest.raises(ShapeError):
        sgd_step(np.zeros(3), np.zeros(2), 0.1)
    for lr in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning rate"):
            sgd_step(np.zeros(2), np.ones(2), lr)


def test_sgd_update_in_place_matches_sgd_step_bits():
    rng = np.random.default_rng(0)
    p = rng.normal(size=100)
    g = rng.normal(size=100)
    expect = sgd_step(p, g, 0.05)
    q = p.copy()
    sgd_update(q, g, 0.05)
    np.testing.assert_array_equal(q, expect)
    with pytest.raises(ShapeError):
        sgd_update(q, np.zeros(3), 0.1)
    for lr in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="learning rate"):
            sgd_update(q, g, lr)
    np.testing.assert_array_equal(q, expect)

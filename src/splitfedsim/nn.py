"""Small feedforward network engine on float64 numpy.

Each layer kind (Dense, Conv2d, MaxPool2d, ReLU, Flatten) is a frozen
dataclass that defines its own shape rule, parameter shapes, initialization
fans, forward and backward (see Layer). Parameters live in a single flat
float64 vector so that federated code can treat a model as one array.
Where each tensor sits in that vector is a Layout, built once per layer
tuple by segment_layout and cached; every parameter count and every view
of a flat vector reads it, and ParamViews keeps a buffer's views. Backward
writes each parameter gradient into its slice of one flat gradient vector,
so no step concatenates tensors. Running the layer chain in two pieces gives
the bits of running it whole: split.py's handoff shows it.

Every layer kind also takes a stack of models: a leading client axis on x,
on its tensors and on its gradients, each client computing with its own
tensors on its own batch. Dense and Conv2d run one stacked matmul per
product, which gives each client the bits of its own 2-D product; ReLU is
elementwise; MaxPool2d folds the client axis into the batch and Flatten
keeps it. So grad steps a (G, d) stack of G clients in one call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import functools
import math

import numpy as np


class BuildError(ValueError):
    """Layer stack is internally inconsistent (shape chain broken)."""


class ShapeError(ValueError):
    """Runtime input does not match the declared input shape."""


# ---------------------------------------------------------------------------
# layer kinds

class Layer:
    """Base of the layer kinds. Each kind defines, on its own class:

    out_shape(in_shape): per-sample output shape, or BuildError if the input
        does not fit;
    param_shapes(): shapes of its tensors in the flat vector (default: none),
        plus fans() -> (fan_in, fan_out) for kinds with a weight;
    forward(tensors, x) -> (y, aux), aux being what backward needs;
    backward(tensors, x, aux, dout, grads, input_grad) -> gradient wrt x,
        after writing each parameter gradient into the matching array of
        grads; a kind with parameters returns None when input_grad is False
        (a first layer whose input gradient nobody reads), and the others
        ignore it.

    x may carry a leading client axis before the batch axis; the tensors and
    grads then carry it too (Layout.views of a stack).
    """

    def param_shapes(self) -> list[tuple[int, ...]]:
        return []


@dataclass(frozen=True)
class Dense(Layer):
    in_features: int
    out_features: int

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.in_features:
            raise BuildError(
                f"Dense expects flat input of {self.in_features}, got {in_shape}")
        return (self.out_features,)

    def param_shapes(self):
        # the bias is one row: it broadcasts over the batch, and in a stack
        # over each client's batch, without reshaping on every call
        return [(self.in_features, self.out_features), (1, self.out_features)]

    def fans(self):
        return self.in_features, self.out_features

    def forward(self, tensors, x):
        w, b = tensors
        y = x @ w
        y += b   # the bits of x @ w + b, without a second array
        return y, None

    def backward(self, tensors, x, aux, dout, grads, input_grad):
        np.matmul(x.swapaxes(-1, -2), dout, out=grads[0])
        np.add.reduce(dout, axis=-2, keepdims=True, out=grads[1])   # what .sum runs
        return dout @ tensors[0].swapaxes(-1, -2) if input_grad else None


@dataclass(frozen=True)
class Conv2d(Layer):
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise BuildError(
                f"Conv2d expects (C,H,W) input with C={self.in_channels}, got {in_shape}")
        _, h, w = in_shape
        k, s, p = self.kernel, self.stride, self.padding
        if k < 1 or s < 1 or p < 0:
            raise BuildError(f"Conv2d has invalid geometry k={k} s={s} p={p}")
        ho = (h + 2 * p - k) // s + 1
        wo = (w + 2 * p - k) // s + 1
        if h + 2 * p < k or w + 2 * p < k or ho < 1 or wo < 1:
            raise BuildError(f"Conv2d kernel {k} does not fit input {in_shape} with padding {p}")
        return (self.out_channels, ho, wo)

    def param_shapes(self):
        k = self.kernel
        return [(self.out_channels, self.in_channels, k, k), (self.out_channels,)]

    def fans(self):
        k2 = self.kernel * self.kernel
        return self.in_channels * k2, self.out_channels * k2

    def forward(self, tensors, x):
        """aux is the k*k sliding windows as a (B*Ho*Wo, C*k*k) matrix, one
        row per output pixel, laid out as np.tensordot lays out its operand
        (a copy, or for B = 1 a view), so that each product has its bits."""
        w, b = tensors
        k, s, p = self.kernel, self.stride, self.padding
        if p:
            x = np.pad(x, ((0, 0),) * (x.ndim - 2) + ((p, p), (p, p)))
        *lead, bsz, c, h, wd = x.shape
        ho = (h - k) // s + 1
        wo = (wd - k) // s + 1
        patches = np.empty((*lead, bsz, c, k, k, ho, wo))
        for i in range(k):
            for j in range(k):
                patches[..., i, j, :, :] = \
                    x[..., i:i + (ho - 1) * s + 1:s, j:j + (wo - 1) * s + 1:s]
        patches = np.moveaxis(patches, (-2, -1), (-5, -4)).reshape(
            (*lead, bsz * ho * wo, c * k * k))
        # (B*Ho*Wo, C*k*k) x (C*k*k, O) -> (B,Ho,Wo,O) -> (B,O,Ho,Wo)
        y = np.matmul(patches, self._matrix(w).swapaxes(-1, -2))
        y = np.moveaxis(y.reshape((*lead, bsz, ho, wo, self.out_channels)), -1, -3)
        return y + b[..., None, :, None, None], patches

    def _matrix(self, w):
        """The (O, C*k*k) view of a weight tensor."""
        return w.reshape(w.shape[:-3] + (-1,))

    def backward(self, tensors, x, aux, dout, grads, input_grad):
        gw, gb = grads
        # dout (O, B*Ho*Wo) x patches (B*Ho*Wo, C*k*k) -> (O,C,k,k)
        dmat = dout.swapaxes(-4, -3).reshape(dout.shape[:-4] + (self.out_channels, -1))
        gw[...] = np.matmul(dmat, aux).reshape(gw.shape)
        gb[...] = dout.sum(axis=(-4, -2, -1))
        if not input_grad:
            return None
        k, s, p = self.kernel, self.stride, self.padding
        *lead, bsz, c, hin, win = x.shape
        ho, wo = dout.shape[-2:]
        # dout (B*Ho*Wo, O) x w (O, C*k*k) -> (B,Ho,Wo,C,k,k)
        dmat = np.moveaxis(dout, -3, -1).reshape((*lead, -1, self.out_channels))
        dpatches = np.matmul(dmat, self._matrix(tensors[0]))
        dpatches = dpatches.reshape((*lead, bsz, ho, wo, c, k, k))
        dxp = np.zeros((*lead, bsz, c, hin + 2 * p, win + 2 * p))
        for i in range(k):
            for j in range(k):
                dxp[..., i:i + (ho - 1) * s + 1:s, j:j + (wo - 1) * s + 1:s] += \
                    np.moveaxis(dpatches[..., i, j], -1, -3)
        return dxp[..., p:p + hin, p:p + win] if p else dxp


@dataclass(frozen=True)
class MaxPool2d(Layer):
    window: int

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise BuildError(f"MaxPool2d expects (C,H,W) input, got {in_shape}")
        c, h, w = in_shape
        if self.window < 1 or h % self.window or w % self.window:
            raise BuildError(
                f"MaxPool2d window {self.window} must divide spatial dims of {in_shape}")
        return (c, h // self.window, w // self.window)

    def windows(self, x):
        """(B, C, H, W) -> (B, C, Ho, Wo, window**2), one pooling window per
        row of the last axis in row-major order; a client axis in front is
        folded into the batch and back."""
        n = self.window
        *lead, c, h, w = x.shape
        xr = x.reshape(-1, c, h // n, n, w // n, n).transpose(0, 1, 2, 4, 3, 5)
        return xr.reshape((*lead, c, h // n, w // n, n * n))

    def forward(self, tensors, x):
        xr = self.windows(x)
        idx = xr.argmax(axis=-1)  # ties break to the first (row-major) element
        return np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0], idx

    def backward(self, tensors, x, aux, dout, grads, input_grad):
        n = self.window
        dxr = np.zeros(aux.shape + (n * n,))
        np.put_along_axis(dxr, aux[..., None], dout[..., None], axis=-1)
        dx = dxr.reshape((-1,) + aux.shape[-3:] + (n, n)).transpose(0, 1, 2, 4, 3, 5)
        return dx.reshape(x.shape)


@dataclass(frozen=True)
class ReLU(Layer):
    def out_shape(self, in_shape):
        return in_shape

    def forward(self, tensors, x):
        return np.maximum(x, 0.0), None

    def backward(self, tensors, x, aux, dout, grads, input_grad):
        # gradient at exactly 0 is 0; a float mask spares a buffered cast
        return dout * (x > 0).astype(float)


@dataclass(frozen=True)
class Flatten(Layer):
    """(C, H, W) feature maps to vectors; the batch and client axes stay."""

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise BuildError(f"Flatten expects (C,H,W) input, got {in_shape}")
        return (math.prod(in_shape),)

    def forward(self, tensors, x):
        return x.reshape(x.shape[:-3] + (-1,)), None

    def backward(self, tensors, x, aux, dout, grads, input_grad):
        return dout.reshape(x.shape)


def infer_shapes(layers: tuple[Layer, ...], input_shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Shape chain through the stack: shapes[i] is the input of layer i."""
    shapes = [tuple(input_shape)]
    for i, layer in enumerate(layers):
        try:
            if not isinstance(layer, Layer):
                raise BuildError(f"unknown layer type {type(layer).__name__}")
            shapes.append(layer.out_shape(shapes[-1]))
        except BuildError as e:
            raise BuildError(f"layer {i} ({type(layer).__name__}): {e}") from None
    return shapes


@dataclass
class ModelSpec:
    """A validated layer stack with named cut presets.

    cut_presets maps names like "v1" to a layer index i, meaning the first i
    layers form the client portion when the model is split there. shapes[i]
    is the per-sample input shape of layer i (shapes[-1] the logits'), and
    layout the flat vector's layout; both are derived once, at construction.
    """
    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]
    num_classes: int
    cut_presets: dict[str, int] = field(default_factory=dict)
    shapes: list[tuple[int, ...]] = field(init=False, repr=False)
    layout: Layout = field(init=False, repr=False)

    def __post_init__(self):
        self.layers = tuple(self.layers)
        self.input_shape = tuple(self.input_shape)
        if not self.layers:
            raise BuildError("model needs at least one layer")
        shapes = infer_shapes(self.layers, self.input_shape)
        if shapes[-1] != (self.num_classes,):
            raise BuildError(
                f"final layer produces {shapes[-1]}, expected ({self.num_classes},) logits")
        for name, idx in self.cut_presets.items():
            if not 1 <= idx <= len(self.layers) - 1:
                raise BuildError(f"cut preset {name!r}={idx} outside [1, {len(self.layers) - 1}]")
        self.shapes = shapes
        self.layout = segment_layout(self.layers)


# ---------------------------------------------------------------------------
# flat parameter vector layout

@dataclass(frozen=True)
class Layout:
    """Where the tensors of a layer run sit in its flat parameter vector:
    slots[i] holds (start, stop, shape) for each tensor of layers[i]."""
    layers: tuple[Layer, ...]
    slots: tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]
    size: int

    def views(self, vec: np.ndarray) -> list[list[np.ndarray]]:
        """Per-layer tensors as views of vec (no copies, no length check).
        Each row of a (G, size) stack gives its client's tensors, stacked
        on a leading axis."""
        lead = vec.shape[:-1]
        return [[vec[..., a:b].reshape(lead + shape) for a, b, shape in layer]
                for layer in self.slots]


@functools.lru_cache(maxsize=None)
def segment_layout(layers: tuple[Layer, ...]) -> Layout:
    """The layout of a layer tuple, built once per distinct tuple."""
    slots = []
    off = 0
    for layer in layers:
        tensors = []
        for shape in layer.param_shapes():
            n = math.prod(shape)
            tensors.append((off, off + n, tuple(shape)))
            off += n
        slots.append(tuple(tensors))
    return Layout(layers, tuple(slots), off)


class ParamViews:
    """A flat parameter buffer, one model's (d,) or a (G, d) stack, with fixed
    tensor views of it and a gradient buffer whose fixed views each backward
    overwrites: a buffer that steps many times builds its views once. The
    views of a one-row stack (one_row) are its model's, without the client
    axis: the same bits, with less dispatch in every layer. Built from a
    Layout, such as ModelSpec.layout, they hash no layer tuple."""

    def __init__(self, layout: Layout, params: np.ndarray):
        if params.ndim not in (1, 2) or params.shape[-1] != layout.size:
            raise ShapeError(f"parameters have shape {params.shape}, "
                             f"expected ({layout.size},) or (G, {layout.size})")
        self.layout, self.params = layout, params
        self.grad = np.empty(params.shape)
        self.one_row = params.shape[:-1] == (1,)
        model, grad = (params[0], self.grad[0]) if self.one_row else (params, self.grad)
        self.tensors, self.grads = layout.views(model), layout.views(grad)


def segment_param_count(layers: tuple[Layer, ...]) -> int:
    return segment_layout(tuple(layers)).size


def param_count(spec: ModelSpec) -> int:
    return spec.layout.size


def unflatten_params(spec: ModelSpec, vec: np.ndarray) -> list[list[np.ndarray]]:
    """Views of the flat vector as per-layer tensors (no copies)."""
    size = spec.layout.size
    if vec.shape != (size,):
        raise ShapeError(f"parameter vector has shape {vec.shape}, expected ({size},)")
    return spec.layout.views(vec)


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Glorot-uniform weights with bound sqrt(6/(fan_in+fan_out)), zero biases.

    Draw order is fixed by layer order, so the same seed always yields the
    same vector.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for layer in spec.layers:
        shapes = layer.param_shapes()
        if shapes:
            w_shape, b_shape = shapes
            fan_in, fan_out = layer.fans()
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            parts.append(rng.uniform(-bound, bound, size=w_shape).ravel())
            parts.append(np.zeros(math.prod(b_shape)))
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# forward / backward over a layer segment

def segment_forward(layers: tuple[Layer, ...], tensors: list[list[np.ndarray]],
                    x: np.ndarray):
    """Run a contiguous run of layers. Returns (activations, aux) where
    activations[i] is the input of layer i and activations[-1] the output."""
    acts = [x]
    aux: dict[int, object] = {}
    for i, layer in enumerate(layers):
        x, a = layer.forward(tensors[i], x)
        if a is not None:
            aux[i] = a
        acts.append(x)
    return acts, aux


def segment_backward(layers: tuple[Layer, ...], tensors: list[list[np.ndarray]],
                     acts: list[np.ndarray], aux: dict, dout: np.ndarray,
                     grads: list[list[np.ndarray]] | None = None,
                     input_grad: bool = True):
    """Backward through a segment. Returns (grad tensors, gradient wrt input).

    The parameter gradients are written into grads, the segment's layout
    views of one flat gradient vector; without it a fresh vector is used.
    With input_grad False the gradient wrt the input is None: layer 0 only
    writes its parameter gradients, which are the same bits."""
    if grads is None:
        layout = segment_layout(tuple(layers))
        grads = layout.views(np.empty(layout.size))
    for i in reversed(range(len(layers))):
        dout = layers[i].backward(tensors[i], acts[i], aux.get(i), dout, grads[i],
                                  input_grad or i > 0)
    return grads, dout if input_grad else None


def forward(spec: ModelSpec, params: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Full forward pass; batch is (B, *input_shape). Returns the logits."""
    batch = _check_batch(batch, spec.input_shape)
    tensors = unflatten_params(spec, params)
    acts, _ = segment_forward(spec.layers, tensors, batch)
    return acts[-1]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient wrt logits (the 1/B is folded in).
    Logits (G, B, classes) and labels (G, B) of a stack give G mean losses,
    as a list, each with the bits of its client's own call. The reductions
    are called as ufunc reductions, the ones the array methods dispatch to,
    the mean is the sum over n, as .mean() takes it, and the label entries
    are read and written through one flat index: the same bits at less
    overhead per call, for logits of any layout. Labels of any other shape
    than the logits' leading one are a ShapeError."""
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"labels shape {labels.shape} does not match logits {logits.shape}")
    n = logits.shape[-2]
    logp = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True),
                       order="C")
    logp -= np.log(np.add.reduce(np.exp(logp), axis=-1, keepdims=True))
    # one flat intp index into the C-ordered logp picks every label entry
    flat = logp.ravel()
    picks = np.arange(0, flat.size, logp.shape[-1]) + labels.ravel().astype(np.intp, copy=False)
    loss = -(np.add.reduce(flat[picks].reshape(logp.shape[:-1]), axis=-1) / n)
    dlogits = np.exp(logp, out=logp)
    flat[picks] -= 1.0
    dlogits /= n
    return loss.tolist(), dlogits


def _check_batch(batch: np.ndarray, input_shape: tuple[int, ...],
                 lead: tuple[int, ...] = ()) -> np.ndarray:
    """The batch as float, (B, *input_shape) with B >= 1, after the leading
    client axis of a stack when lead is (G,)."""
    batch = np.asarray(batch, dtype=float)
    k = len(lead)
    if batch.ndim != k + 1 + len(input_shape) or batch.shape[k + 1:] != input_shape:
        raise ShapeError(f"batch shape {batch.shape} does not match input shape {input_shape}")
    if batch.shape[k] == 0:
        raise ShapeError("empty batch")
    return batch


def _check_labels(labels: np.ndarray, num_classes: int,
                  shape: tuple[int, ...]) -> np.ndarray:
    """Integer labels in [0, num_classes), one per sample of a batch whose
    leading shape is `shape`: (B,), or (G, B) for a stack."""
    labels = np.asarray(labels)
    if labels.shape != shape:
        raise ShapeError(f"labels shape {labels.shape} does not match batch shape {shape}")
    if labels.dtype.kind not in "iu":   # np.integer's kinds, not bool
        raise ShapeError("labels must be integers")
    # one reduction checks both ends: a negative label wraps past 2**63 in uint64
    if labels.size and np.maximum.reduce(labels.astype(np.uint64, copy=False),
                                         axis=None) >= num_classes:
        raise ShapeError(f"labels outside [0, {num_classes})")
    return labels


def grad(spec: ModelSpec, params: np.ndarray | ParamViews, batch: np.ndarray,
         labels: np.ndarray):
    """forward + backward on params. Returns (flat gradient, loss); each layer
    writes its slice of the gradient, and layer 0 stops at its parameter
    gradients (nobody reads the input gradient). params is one flat vector,
    or a stack (G, d) of G models with batch (G, B, *input_shape) and labels
    (G, B), each model on its own batch, the gradient (G, d) and the G losses
    with the bits of G separate calls. ParamViews lend their views and
    gradient buffer, which the next call overwrites; an array gets its own,
    from spec.layout. Each call checks the views' layout (identity first),
    the batch, and the labels' shape, dtype kind and range in one reduction."""
    held = params if isinstance(params, ParamViews) else ParamViews(spec.layout, params)
    if held.layout is not spec.layout and held.layout != spec.layout:
        raise ShapeError("parameter views were built for other layers than the model's")
    lead = held.params.shape[:-1]
    if np.shape(batch)[:len(lead)] != lead:
        raise ShapeError(f"batch shape {np.shape(batch)} does not match "
                         f"parameter stack shape {held.params.shape}")
    batch = _check_batch(batch, spec.input_shape, lead)
    labels = _check_labels(labels, spec.num_classes, batch.shape[:len(lead) + 1])
    if held.one_row:
        batch, labels = batch[0], labels[0]
    acts, aux = segment_forward(spec.layers, held.tensors, batch)
    loss, dlogits = softmax_cross_entropy(acts[-1], labels)
    segment_backward(spec.layers, held.tensors, acts, aux, dlogits, held.grads,
                     input_grad=False)
    return held.grad, [loss] if held.one_row else loss


def finite_diff_grad(spec: ModelSpec, params: np.ndarray, batch: np.ndarray,
                     labels: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of the loss, one coordinate at a time."""
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"step size h must be positive and finite, got {h}")
    batch = _check_batch(batch, spec.input_shape)
    labels = _check_labels(labels, spec.num_classes, batch.shape[:1])
    g = np.zeros_like(params)
    for i in range(params.size):
        p = params.copy()
        p[i] = params[i] + h
        lp, _ = softmax_cross_entropy(forward(spec, p, batch), labels)
        p[i] = params[i] - h
        lm, _ = softmax_cross_entropy(forward(spec, p, batch), labels)
        g[i] = (lp - lm) / (2 * h)
    return g


def _check_sgd(params: np.ndarray, grad_vec: np.ndarray, lr: float) -> None:
    if params.shape != grad_vec.shape:
        raise ShapeError(
            f"gradient shape {grad_vec.shape} does not match params {params.shape}")
    if not (lr > 0 and math.isfinite(lr)):
        raise ValueError(f"learning rate must be positive and finite, got {lr}")


def sgd_step(params: np.ndarray, grad_vec: np.ndarray, lr: float) -> np.ndarray:
    """One vanilla SGD step on the flat vector; returns a new vector."""
    _check_sgd(params, grad_vec, lr)
    return params - lr * grad_vec


def sgd_update(params: np.ndarray, grad_vec: np.ndarray, lr: float) -> None:
    """sgd_step in place: params -= lr * grad_vec gives the same bits as
    params - lr * grad_vec."""
    _check_sgd(params, grad_vec, lr)
    params -= lr * grad_vec

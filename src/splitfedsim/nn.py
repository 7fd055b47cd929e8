"""Small feedforward network engine on float64 numpy.

Each layer kind (Dense, Conv2d, MaxPool2d, ReLU, Flatten) is a frozen
dataclass that defines its own shape rule, parameter shapes, initialization
fans, forward and backward (see Layer). Parameters live in a single flat
float64 vector so that federated code can treat a model as one array.
Where each tensor sits in that vector is a Layout, built once per layer
tuple by segment_layout and cached; every parameter count and every view
of a flat vector reads it. Backward writes each parameter gradient into its
slice of one flat gradient vector, so no step concatenates tensors.
Forward/backward are written so that running the layer chain in two pieces
produces bit-identical results to running it whole: the split training
engine reuses segment_forward/segment_backward directly.
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
    backward(tensors, x, aux, dout, grads) -> gradient wrt x, after writing
        each parameter gradient into the matching array of grads;
    param_grads(tensors, x, aux, dout, grads): only the writes of backward
        (default: nothing to write), for a first layer whose input gradient
        nobody reads.
    """

    def param_shapes(self) -> list[tuple[int, ...]]:
        return []

    def param_grads(self, tensors, x, aux, dout, grads) -> None:
        pass


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
        return [(self.in_features, self.out_features), (self.out_features,)]

    def fans(self):
        return self.in_features, self.out_features

    def forward(self, tensors, x):
        w, b = tensors
        return x @ w + b, None

    def param_grads(self, tensors, x, aux, dout, grads):
        gw, gb = grads
        np.matmul(x.T, dout, out=gw)
        dout.sum(axis=0, out=gb)

    def backward(self, tensors, x, aux, dout, grads):
        self.param_grads(tensors, x, aux, dout, grads)
        return dout @ tensors[0].T


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
        """aux is the k*k sliding windows, gathered into (B, C, k, k, Ho, Wo)."""
        w, b = tensors
        k, s, p = self.kernel, self.stride, self.padding
        if p:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        bsz, c, h, wd = x.shape
        ho = (h - k) // s + 1
        wo = (wd - k) // s + 1
        patches = np.empty((bsz, c, k, k, ho, wo))
        for i in range(k):
            for j in range(k):
                patches[:, :, i, j] = x[:, :, i:i + (ho - 1) * s + 1:s, j:j + (wo - 1) * s + 1:s]
        # (B,C,k,k,Ho,Wo) x (O,C,k,k) -> (B,Ho,Wo,O)
        y = np.tensordot(patches, w, axes=([1, 2, 3], [1, 2, 3]))
        return y.transpose(0, 3, 1, 2) + b[None, :, None, None], patches

    def param_grads(self, tensors, x, aux, dout, grads):
        gw, gb = grads
        # dout (B,O,Ho,Wo) x patches (B,C,k,k,Ho,Wo) -> (O,C,k,k)
        gw[...] = np.tensordot(dout, aux, axes=([0, 2, 3], [0, 4, 5]))
        gb[...] = dout.sum(axis=(0, 2, 3))

    def backward(self, tensors, x, aux, dout, grads):
        self.param_grads(tensors, x, aux, dout, grads)
        # dout (B,O,Ho,Wo) x w (O,C,k,k) -> (B,Ho,Wo,C,k,k)
        dpatches = np.tensordot(dout, tensors[0], axes=([1], [0]))
        k, s, p = self.kernel, self.stride, self.padding
        bsz, c, hin, win = x.shape
        ho, wo = dout.shape[2], dout.shape[3]
        dxp = np.zeros((bsz, c, hin + 2 * p, win + 2 * p))
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + (ho - 1) * s + 1:s, j:j + (wo - 1) * s + 1:s] += \
                    dpatches[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        return dxp[:, :, p:p + hin, p:p + win] if p else dxp


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
        row of the last axis in row-major order."""
        n = self.window
        b, c, h, w = x.shape
        xr = x.reshape(b, c, h // n, n, w // n, n).transpose(0, 1, 2, 4, 3, 5)
        return xr.reshape(b, c, h // n, w // n, n * n)

    def forward(self, tensors, x):
        xr = self.windows(x)
        idx = xr.argmax(axis=-1)  # ties break to the first (row-major) element
        return np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0], idx

    def backward(self, tensors, x, aux, dout, grads):
        n = self.window
        dxr = np.zeros(aux.shape + (n * n,))
        np.put_along_axis(dxr, aux[..., None], dout[..., None], axis=-1)
        dx = dxr.reshape(aux.shape + (n, n)).transpose(0, 1, 2, 4, 3, 5)
        return dx.reshape(x.shape)


@dataclass(frozen=True)
class ReLU(Layer):
    def out_shape(self, in_shape):
        return in_shape

    def forward(self, tensors, x):
        return np.maximum(x, 0.0), None

    def backward(self, tensors, x, aux, dout, grads):
        return dout * (x > 0)  # gradient at exactly 0 is 0


@dataclass(frozen=True)
class Flatten(Layer):
    def out_shape(self, in_shape):
        return (math.prod(in_shape),)

    def forward(self, tensors, x):
        return x.reshape(x.shape[0], -1), None

    def backward(self, tensors, x, aux, dout, grads):
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
    layers form the client portion when the model is split there.
    """
    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]
    num_classes: int
    cut_presets: dict[str, int] = field(default_factory=dict)

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
        self._shapes = shapes
        self._layout = segment_layout(self.layers)

    @property
    def shapes(self) -> list[tuple[int, ...]]:
        return self._shapes

    @property
    def layout(self) -> Layout:
        return self._layout


# ---------------------------------------------------------------------------
# flat parameter vector layout

@dataclass(frozen=True)
class Layout:
    """Where a layer run's tensors sit in its flat parameter vector:
    slots[i] holds (start, stop, shape) for each tensor of layer i."""
    slots: tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]
    size: int

    def views(self, vec: np.ndarray) -> list[list[np.ndarray]]:
        """Per-layer tensors as views of vec (no copies, no length check)."""
        return [[vec[a:b].reshape(shape) for a, b, shape in layer]
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
    return Layout(tuple(slots), off)


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
            parts.append(np.zeros(b_shape))
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
    for i in reversed(range(0 if input_grad else 1, len(layers))):
        dout = layers[i].backward(tensors[i], acts[i], aux.get(i), dout, grads[i])
    if not input_grad:
        layers[0].param_grads(tensors[0], acts[0], aux.get(0), dout, grads[0])
        dout = None
    return grads, dout


def forward(spec: ModelSpec, params: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Full forward pass; batch is (B, *input_shape). Returns the logits."""
    batch = _check_batch(batch, spec.input_shape)
    tensors = unflatten_params(spec, params)
    acts, _ = segment_forward(spec.layers, tensors, batch)
    return acts[-1]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient wrt logits (the 1/B is folded in).

    The reductions are called as ufunc reductions, the ones the array
    methods dispatch to, and the mean is the sum over n, as .mean() takes
    it: the same bits at less overhead per call."""
    n = logits.shape[0]
    logp = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    logp -= np.log(np.add.reduce(np.exp(logp), axis=1, keepdims=True))
    rows = np.arange(n)
    loss = float(-(np.add.reduce(logp[rows, labels]) / n))
    dlogits = np.exp(logp, out=logp)
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def _check_batch(batch: np.ndarray, input_shape: tuple[int, ...]) -> np.ndarray:
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != len(input_shape) + 1 or tuple(batch.shape[1:]) != input_shape:
        raise ShapeError(f"batch shape {batch.shape} does not match input shape {input_shape}")
    if batch.shape[0] == 0:
        raise ShapeError("empty batch")
    return batch


def _check_labels(labels: np.ndarray, num_classes: int, batch_size: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (batch_size,):
        raise ShapeError(
            f"labels shape {labels.shape} does not match batch size {batch_size}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError("labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError(f"labels outside [0, {num_classes})")
    return labels


def grad(spec: ModelSpec, params: np.ndarray, batch: np.ndarray,
         labels: np.ndarray):
    """forward + backward on one view of params. Returns (flat gradient, loss);
    each layer writes its slice of the fresh gradient, and layer 0 stops at
    its parameter gradients (nobody reads the input gradient)."""
    batch = _check_batch(batch, spec.input_shape)
    tensors = unflatten_params(spec, params)
    acts, aux = segment_forward(spec.layers, tensors, batch)
    labels = _check_labels(labels, spec.num_classes, batch.shape[0])
    loss, dlogits = softmax_cross_entropy(acts[-1], labels)
    g = np.empty(spec.layout.size)
    segment_backward(spec.layers, tensors, acts, aux, dlogits,
                     spec.layout.views(g), input_grad=False)
    return g, loss


def finite_diff_grad(spec: ModelSpec, params: np.ndarray, batch: np.ndarray,
                     labels: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of the loss, one coordinate at a time."""
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"step size h must be positive and finite, got {h}")
    batch = _check_batch(batch, spec.input_shape)
    labels = _check_labels(labels, spec.num_classes, batch.shape[0])
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

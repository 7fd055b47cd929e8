"""Small feedforward network engine on float64 numpy.

Layers are declarative specs (Dense, Conv2d, MaxPool2d, ReLU, Flatten);
parameters live in a single flat float64 vector so that federated code can
treat a model as one array. Forward/backward are written so that running the
layer chain in two pieces produces bit-identical results to running it whole:
the split training engine reuses segment_forward/segment_backward directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np


class BuildError(ValueError):
    """Layer stack is internally inconsistent (shape chain broken)."""


class ShapeError(ValueError):
    """Runtime input does not match the declared input shape."""


# ---------------------------------------------------------------------------
# layer specs

@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int


@dataclass(frozen=True)
class Conv2d:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class MaxPool2d:
    window: int


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


Layer = Dense | Conv2d | MaxPool2d | ReLU | Flatten


def layer_output_shape(layer: Layer, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per-sample output shape of one layer, or BuildError if incompatible."""
    if isinstance(layer, Dense):
        if len(in_shape) != 1 or in_shape[0] != layer.in_features:
            raise BuildError(
                f"Dense expects flat input of {layer.in_features}, got {in_shape}")
        return (layer.out_features,)
    if isinstance(layer, Conv2d):
        if len(in_shape) != 3 or in_shape[0] != layer.in_channels:
            raise BuildError(
                f"Conv2d expects (C,H,W) input with C={layer.in_channels}, got {in_shape}")
        _, h, w = in_shape
        k, s, p = layer.kernel, layer.stride, layer.padding
        if k < 1 or s < 1 or p < 0:
            raise BuildError(f"Conv2d has invalid geometry k={k} s={s} p={p}")
        ho = (h + 2 * p - k) // s + 1
        wo = (w + 2 * p - k) // s + 1
        if h + 2 * p < k or w + 2 * p < k or ho < 1 or wo < 1:
            raise BuildError(f"Conv2d kernel {k} does not fit input {in_shape} with padding {p}")
        return (layer.out_channels, ho, wo)
    if isinstance(layer, MaxPool2d):
        if len(in_shape) != 3:
            raise BuildError(f"MaxPool2d expects (C,H,W) input, got {in_shape}")
        c, h, w = in_shape
        if layer.window < 1 or h % layer.window or w % layer.window:
            raise BuildError(
                f"MaxPool2d window {layer.window} must divide spatial dims of {in_shape}")
        return (c, h // layer.window, w // layer.window)
    if isinstance(layer, ReLU):
        return in_shape
    if isinstance(layer, Flatten):
        return (int(np.prod(in_shape)),)
    raise BuildError(f"unknown layer type {type(layer).__name__}")


def infer_shapes(layers: tuple[Layer, ...], input_shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Shape chain through the stack: shapes[i] is the input of layer i."""
    shapes = [tuple(input_shape)]
    for i, layer in enumerate(layers):
        try:
            shapes.append(layer_output_shape(layer, shapes[-1]))
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

    @property
    def shapes(self) -> list[tuple[int, ...]]:
        return self._shapes

    def __len__(self) -> int:
        return len(self.layers)


# ---------------------------------------------------------------------------
# flat parameter vector layout

def layer_param_shapes(layer: Layer) -> list[tuple[int, ...]]:
    if isinstance(layer, Dense):
        return [(layer.in_features, layer.out_features), (layer.out_features,)]
    if isinstance(layer, Conv2d):
        return [(layer.out_channels, layer.in_channels, layer.kernel, layer.kernel),
                (layer.out_channels,)]
    return []


def layer_param_count(layer: Layer) -> int:
    return sum(int(np.prod(s)) for s in layer_param_shapes(layer))


def segment_param_count(layers: tuple[Layer, ...]) -> int:
    return sum(layer_param_count(l) for l in layers)


def param_count(spec: ModelSpec) -> int:
    return segment_param_count(spec.layers)


def unflatten_segment(layers: tuple[Layer, ...], vec: np.ndarray) -> list[list[np.ndarray]]:
    """Views of the flat vector as per-layer tensors (no copies)."""
    need = segment_param_count(layers)
    if vec.shape != (need,):
        raise ShapeError(f"parameter vector has shape {vec.shape}, expected ({need},)")
    out = []
    off = 0
    for layer in layers:
        tensors = []
        for shape in layer_param_shapes(layer):
            n = int(np.prod(shape))
            tensors.append(vec[off:off + n].reshape(shape))
            off += n
        out.append(tensors)
    return out


def flatten_tensors(tensors: list[list[np.ndarray]]) -> np.ndarray:
    flat = [t.ravel() for group in tensors for t in group]
    if not flat:
        return np.zeros(0)
    return np.concatenate(flat)


def unflatten_params(spec: ModelSpec, vec: np.ndarray) -> list[list[np.ndarray]]:
    return unflatten_segment(spec.layers, vec)


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Glorot-uniform weights with bound sqrt(6/(fan_in+fan_out)), zero biases.

    Draw order is fixed by layer order, so the same seed always yields the
    same vector.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for layer in spec.layers:
        if isinstance(layer, Dense):
            fan_in, fan_out = layer.in_features, layer.out_features
            b = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-b, b, size=(fan_in, fan_out))
            parts.append(w.ravel())
            parts.append(np.zeros(fan_out))
        elif isinstance(layer, Conv2d):
            k = layer.kernel
            fan_in = layer.in_channels * k * k
            fan_out = layer.out_channels * k * k
            b = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-b, b, size=(layer.out_channels, layer.in_channels, k, k))
            parts.append(w.ravel())
            parts.append(np.zeros(layer.out_channels))
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# forward / backward over a layer segment

def _conv_patches(layer: Conv2d, x: np.ndarray) -> np.ndarray:
    """Gather k*k sliding windows into (B, C, k, k, Ho, Wo)."""
    k, s, p = layer.kernel, layer.stride, layer.padding
    if p:
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    b, c, h, w = x.shape
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1
    patches = np.empty((b, c, k, k, ho, wo))
    for i in range(k):
        for j in range(k):
            patches[:, :, i, j] = x[:, :, i:i + (ho - 1) * s + 1:s, j:j + (wo - 1) * s + 1:s]
    return patches


def _layer_forward(layer: Layer, tensors: list[np.ndarray], x: np.ndarray):
    """Returns (output, aux) where aux carries what backward needs."""
    if isinstance(layer, Dense):
        w, b = tensors
        return x @ w + b, None
    if isinstance(layer, Conv2d):
        w, b = tensors
        patches = _conv_patches(layer, x)
        # (B,C,k,k,Ho,Wo) x (O,C,k,k) -> (B,Ho,Wo,O)
        y = np.tensordot(patches, w, axes=([1, 2, 3], [1, 2, 3]))
        y = y.transpose(0, 3, 1, 2) + b[None, :, None, None]
        return y, patches
    if isinstance(layer, MaxPool2d):
        wlen = layer.window
        b, c, h, w = x.shape
        ho, wo = h // wlen, w // wlen
        xr = x.reshape(b, c, ho, wlen, wo, wlen).transpose(0, 1, 2, 4, 3, 5)
        xr = xr.reshape(b, c, ho, wo, wlen * wlen)
        idx = xr.argmax(axis=-1)  # ties break to the first (row-major) element
        y = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
        return y, idx
    if isinstance(layer, ReLU):
        return np.maximum(x, 0.0), None
    if isinstance(layer, Flatten):
        return x.reshape(x.shape[0], -1), None
    raise BuildError(f"unknown layer type {type(layer).__name__}")


def _layer_backward(layer: Layer, tensors: list[np.ndarray], x: np.ndarray,
                    aux, dout: np.ndarray):
    """Returns (grad tensors for this layer, gradient wrt the layer input)."""
    if isinstance(layer, Dense):
        w, _ = tensors
        dw = x.T @ dout
        db = dout.sum(axis=0)
        dx = dout @ w.T
        return [dw, db], dx
    if isinstance(layer, Conv2d):
        w, _ = tensors
        patches = aux
        # dout (B,O,Ho,Wo) x patches (B,C,k,k,Ho,Wo) -> (O,C,k,k)
        dw = np.tensordot(dout, patches, axes=([0, 2, 3], [0, 4, 5]))
        db = dout.sum(axis=(0, 2, 3))
        # dout (B,O,Ho,Wo) x w (O,C,k,k) -> (B,Ho,Wo,C,k,k)
        dpatches = np.tensordot(dout, w, axes=([1], [0]))
        k, s, p = layer.kernel, layer.stride, layer.padding
        bsz, _, hin, win = x.shape
        ho, wo = dout.shape[2], dout.shape[3]
        dxp = np.zeros((bsz, x.shape[1], hin + 2 * p, win + 2 * p))
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + (ho - 1) * s + 1:s, j:j + (wo - 1) * s + 1:s] += \
                    dpatches[:, :, :, :, i, j].transpose(0, 3, 1, 2)
        dx = dxp[:, :, p:p + hin, p:p + win] if p else dxp
        return [dw, db], dx
    if isinstance(layer, MaxPool2d):
        idx = aux
        wlen = layer.window
        bsz, c, hin, win = x.shape
        ho, wo = hin // wlen, win // wlen
        dxr = np.zeros((bsz, c, ho, wo, wlen * wlen))
        np.put_along_axis(dxr, idx[..., None], dout[..., None], axis=-1)
        dx = dxr.reshape(bsz, c, ho, wo, wlen, wlen).transpose(0, 1, 2, 4, 3, 5)
        dx = dx.reshape(bsz, c, hin, win)
        return [], dx
    if isinstance(layer, ReLU):
        return [], dout * (x > 0)  # gradient at exactly 0 is 0
    if isinstance(layer, Flatten):
        return [], dout.reshape(x.shape)
    raise BuildError(f"unknown layer type {type(layer).__name__}")


def segment_forward(layers: tuple[Layer, ...], tensors: list[list[np.ndarray]],
                    x: np.ndarray):
    """Run a contiguous run of layers. Returns (activations, aux) where
    activations[i] is the input of layer i and activations[-1] the output."""
    acts = [x]
    aux: dict[int, object] = {}
    for i, layer in enumerate(layers):
        x, a = _layer_forward(layer, tensors[i], x)
        if a is not None:
            aux[i] = a
        acts.append(x)
    return acts, aux


def segment_backward(layers: tuple[Layer, ...], tensors: list[list[np.ndarray]],
                     acts: list[np.ndarray], aux: dict, dout: np.ndarray):
    """Backward through a segment. Returns (grad tensors, gradient wrt input)."""
    grads: list[list[np.ndarray]] = [[] for _ in layers]
    for i in reversed(range(len(layers))):
        grads[i], dout = _layer_backward(layers[i], tensors[i], acts[i], aux.get(i), dout)
    return grads, dout


@dataclass
class ForwardCache:
    """Activations and pooling/conv scratch kept for the backward pass."""
    activations: list[np.ndarray]
    aux: dict[int, object]

    @property
    def logits(self) -> np.ndarray:
        return self.activations[-1]

    @property
    def batch_size(self) -> int:
        return self.activations[0].shape[0]


def forward(spec: ModelSpec, params: np.ndarray, batch: np.ndarray) -> ForwardCache:
    """Full forward pass; batch is (B, *input_shape)."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != len(spec.input_shape) + 1 or tuple(batch.shape[1:]) != spec.input_shape:
        raise ShapeError(
            f"batch shape {batch.shape} does not match input shape {spec.input_shape}")
    if batch.shape[0] == 0:
        raise ShapeError("empty batch")
    tensors = unflatten_params(spec, params)
    acts, aux = segment_forward(spec.layers, tensors, batch)
    return ForwardCache(acts, aux)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient wrt logits (the 1/B is folded in)."""
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


def backward(spec: ModelSpec, params: np.ndarray, cache: ForwardCache,
             labels: np.ndarray):
    """Returns (flat gradient, gradient wrt the input batch, loss)."""
    labels = _check_labels(labels, spec.num_classes, cache.batch_size)
    tensors = unflatten_params(spec, params)
    loss, dlogits = softmax_cross_entropy(cache.logits, labels)
    grads, dx = segment_backward(spec.layers, tensors, cache.activations, cache.aux, dlogits)
    return flatten_tensors(grads), dx, loss


def loss_value(spec: ModelSpec, params: np.ndarray, batch: np.ndarray,
               labels: np.ndarray) -> float:
    cache = forward(spec, params, batch)
    labels = _check_labels(labels, spec.num_classes, cache.batch_size)
    loss, _ = softmax_cross_entropy(cache.logits, labels)
    return loss


def grad(spec: ModelSpec, params: np.ndarray, batch: np.ndarray,
         labels: np.ndarray):
    """Convenience: forward + backward. Returns (flat gradient, loss)."""
    cache = forward(spec, params, batch)
    g, _, loss = backward(spec, params, cache, labels)
    return g, loss


def finite_diff_grad(spec: ModelSpec, params: np.ndarray, batch: np.ndarray,
                     labels: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of the loss, one coordinate at a time."""
    if h <= 0:
        raise ValueError("step size h must be positive")
    g = np.zeros_like(params)
    for i in range(params.size):
        p = params.copy()
        p[i] = params[i] + h
        lp = loss_value(spec, p, batch, labels)
        p[i] = params[i] - h
        lm = loss_value(spec, p, batch, labels)
        g[i] = (lp - lm) / (2 * h)
    return g


def sgd_step(params: np.ndarray, grad_vec: np.ndarray, lr: float) -> np.ndarray:
    """One vanilla SGD step on the flat vector."""
    if params.shape != grad_vec.shape:
        raise ShapeError(
            f"gradient shape {grad_vec.shape} does not match params {params.shape}")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    return params - lr * grad_vec

"""Split execution engine: run one model as a client half and a server half.

The client owns layers [0, cut) and the server layers [cut, L). A training
step moves one batch through client_forward -> server_step -> client_backward.
Every per-layer float operation is the same code path as the unsplit model
(segment_forward/segment_backward), so training a model split at any cut
produces bit-identical parameters to training it whole.

Each half keeps its parameter views across steps: they are rebuilt only when
a new vector is assigned to client_params or server_params, which the round
loop does once per client. Backward writes the gradient into a flat buffer
the half owns, and SGD updates the parameter vector in place. The client's
backward stops at layer 0's parameter gradients: the gradient wrt the input
batch has no reader.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn


@dataclass(frozen=True)
class CutPoint:
    """Split boundary: the first layer_index layers belong to the client."""
    layer_index: int


@dataclass
class SmashedBatch:
    """Cut-layer activations plus what the client needs for its backward."""
    activations: np.ndarray
    labels: np.ndarray
    client_acts: list[np.ndarray]
    client_aux: dict[int, object]

    @property
    def batch_size(self) -> int:
        return self.activations.shape[0]


class _Half:
    """One half's layers, views of its current parameter vector, and a flat
    gradient buffer whose fixed views every backward overwrites."""

    def __init__(self, layers: tuple[nn.Layer, ...]):
        self.layers = layers
        layout = nn.segment_layout(layers)
        self.grad = np.empty(layout.size)
        self.grads = layout.views(self.grad)
        self._vec = None
        self._tensors = None

    def tensors(self, vec: np.ndarray) -> list[list[np.ndarray]]:
        """Views of vec, rebuilt (and length-checked) only for a new vector."""
        if vec is not self._vec:
            self._tensors = nn.unflatten_segment(self.layers, vec)
            self._vec = vec
        return self._tensors


@dataclass
class SplitModel:
    """One model held as two flat parameter vectors. Training updates them
    in place; assign a new vector to start a half from other parameters."""
    spec: nn.ModelSpec
    cut: CutPoint
    client_params: np.ndarray
    server_params: np.ndarray
    _client: _Half = field(init=False, repr=False, compare=False)
    _server: _Half = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._client = _Half(self.spec.layers[:self.cut.layer_index])
        self._server = _Half(self.spec.layers[self.cut.layer_index:])

    @property
    def client_layers(self) -> tuple[nn.Layer, ...]:
        return self._client.layers

    @property
    def server_layers(self) -> tuple[nn.Layer, ...]:
        return self._server.layers

    @property
    def cut_shape(self) -> tuple[int, ...]:
        return self.spec.shapes[self.cut.layer_index]


def split_offset(spec: nn.ModelSpec, cut: CutPoint) -> int:
    """Index in the flat parameter vector where the server portion starts."""
    if not 1 <= cut.layer_index <= len(spec.layers) - 1:
        raise ValueError(
            f"cut layer_index {cut.layer_index} outside [1, {len(spec.layers) - 1}]")
    return nn.segment_param_count(spec.layers[:cut.layer_index])


def split_at(spec: nn.ModelSpec, params: np.ndarray, cut: CutPoint) -> SplitModel:
    """Partition a flat parameter vector at the cut. Copies both halves."""
    if params.shape != (nn.param_count(spec),):
        raise nn.ShapeError(
            f"params shape {params.shape} does not match model ({nn.param_count(spec)},)")
    off = split_offset(spec, cut)
    return SplitModel(spec, cut, params[:off].copy(), params[off:].copy())


def full_params(model: SplitModel) -> np.ndarray:
    """Concatenate the halves back into one vector."""
    return np.concatenate([model.client_params, model.server_params])


def client_forward(model: SplitModel, batch: np.ndarray,
                   labels: np.ndarray) -> SmashedBatch:
    """Client half forward; returns the smashed batch sent to the server."""
    batch = nn._check_batch(batch, model.spec.input_shape)
    labels = np.asarray(labels)
    if labels.shape != (batch.shape[0],):
        raise nn.ShapeError(
            f"labels shape {labels.shape} does not match batch size {batch.shape[0]}")
    half = model._client
    acts, aux = nn.segment_forward(half.layers, half.tensors(model.client_params), batch)
    return SmashedBatch(acts[-1], labels, acts, aux)


def server_step(model: SplitModel, smashed: SmashedBatch, lr: float):
    """Finish the forward, take the loss, update server params.

    Returns (cut_grad, server_params, loss). cut_grad is the loss gradient at
    the cut activations, evaluated at the pre-update server parameters.
    """
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    expect = (smashed.batch_size,) + model.cut_shape
    if tuple(smashed.activations.shape) != expect:
        raise nn.ShapeError(
            f"smashed activations {smashed.activations.shape} do not match cut shape {expect}")
    labels = nn._check_labels(smashed.labels, model.spec.num_classes, smashed.batch_size)
    half = model._server
    tensors = half.tensors(model.server_params)
    acts, aux = nn.segment_forward(half.layers, tensors, smashed.activations)
    loss, dlogits = nn.softmax_cross_entropy(acts[-1], labels)
    _, cut_grad = nn.segment_backward(half.layers, tensors, acts, aux, dlogits, half.grads)
    if lr > 0:
        model.server_params -= lr * half.grad
    return cut_grad, model.server_params, loss


def client_backward(model: SplitModel, smashed: SmashedBatch,
                    cut_grad: np.ndarray, lr: float) -> np.ndarray:
    """Backward through the client half using the server's cut gradient."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    if cut_grad.shape != smashed.activations.shape:
        raise nn.ShapeError(
            f"cut gradient shape {cut_grad.shape} does not match "
            f"activations {smashed.activations.shape}")
    half = model._client
    nn.segment_backward(half.layers, half.tensors(model.client_params),
                        smashed.client_acts, smashed.client_aux, cut_grad, half.grads,
                        input_grad=False)
    if lr > 0:
        model.client_params -= lr * half.grad
    return model.client_params


def split_train_step(model: SplitModel, batch: np.ndarray, labels: np.ndarray,
                     lr: float) -> float:
    """One full split training step on one batch. Returns the loss."""
    smashed = client_forward(model, batch, labels)
    cut_grad, _, loss = server_step(model, smashed, lr)
    client_backward(model, smashed, cut_grad, lr)
    return loss

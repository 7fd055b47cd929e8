"""Split execution engine: run one model as a client half and a server half.

The client owns layers [0, cut) and the server layers [cut, L). A training
step moves one batch through client_forward -> server_step -> client_backward.
Every per-layer float operation is the same code path as the unsplit model
(segment_forward/segment_backward), so training a model split at any cut
produces bit-identical parameters to training it whole.

So a SplitFed round trains each client's whole model through
protocol.local_epoch and nn.grad, and these steps are the oracle that shows
that the handoff computes the same bits. A SplitModel holds the model as one
flat buffer with a fixed view of each half, which a caller starts from other
parameters by copying into it. Each half is an nn.ParamViews, built once, whose
views and gradient buffer every step reuses; nn.sgd_update updates the half in
place. The client's backward stops at layer 0's parameter gradients: the input
gradient has no reader.

Each input is checked once, where it enters the step: the batch and labels
in client_forward, the cut gradient in client_backward, the learning rate in
nn.sgd_update. server_step trusts the SmashedBatch that client_forward made.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn


@dataclass(frozen=True)
class CutPoint:
    """Split boundary: the first layer_index layers belong to the client."""
    layer_index: int


@dataclass
class SmashedBatch:
    """client_forward's output for one model: the cut-layer activations, the
    checked labels, and what the client needs for its backward."""
    activations: np.ndarray
    labels: np.ndarray
    client_acts: list[np.ndarray]
    client_aux: dict[int, object]


class SplitModel:
    """One model held as one flat parameter vector, split at the cut.
    client_params and server_params are its two slices, each the buffer of a
    half's nn.ParamViews, and row holds fixed views of the whole vector as a
    one-row (1, d) stack, the form protocol.local_epoch trains; training
    updates them in place."""

    def __init__(self, spec: nn.ModelSpec, cut: CutPoint, params: np.ndarray):
        if params.shape != (nn.param_count(spec),):
            raise nn.ShapeError(
                f"params shape {params.shape} does not match model ({nn.param_count(spec)},)")
        off, k = split_offset(spec, cut), cut.layer_index
        self.spec, self.cut, self.params = spec, cut, params
        self._client = nn.ParamViews(nn.segment_layout(spec.layers[:k]), params[:off])
        self._server = nn.ParamViews(nn.segment_layout(spec.layers[k:]), params[off:])
        self.row = nn.ParamViews(spec.layout, params[None])

    @property
    def client_params(self) -> np.ndarray:
        return self._client.params

    @property
    def server_params(self) -> np.ndarray:
        return self._server.params


def split_offset(spec: nn.ModelSpec, cut: CutPoint) -> int:
    """Index in the flat parameter vector where the server portion starts."""
    if not 1 <= cut.layer_index <= len(spec.layers) - 1:
        raise ValueError(
            f"cut layer_index {cut.layer_index} outside [1, {len(spec.layers) - 1}]")
    return nn.segment_param_count(spec.layers[:cut.layer_index])


def split_at(spec: nn.ModelSpec, params: np.ndarray, cut: CutPoint) -> SplitModel:
    """Partition a copy of a flat parameter vector at the cut."""
    return SplitModel(spec, cut, params.copy())


def client_forward(model: SplitModel, batch: np.ndarray,
                   labels: np.ndarray) -> SmashedBatch:
    """Client half forward; returns the smashed batch sent to the server."""
    batch = nn._check_batch(batch, model.spec.input_shape)
    labels = nn._check_labels(labels, model.spec.num_classes, batch.shape[:1])
    half = model._client
    acts, aux = nn.segment_forward(half.layout.layers, half.tensors, batch)
    return SmashedBatch(acts[-1], labels, acts, aux)


def server_step(model: SplitModel, smashed: SmashedBatch, lr: float):
    """Finish the forward, take the loss, update the server half in place.

    Returns (cut_grad, loss). cut_grad is the loss gradient at the cut
    activations, evaluated at the pre-update server parameters.
    """
    half = model._server
    acts, aux = nn.segment_forward(half.layout.layers, half.tensors, smashed.activations)
    loss, dlogits = nn.softmax_cross_entropy(acts[-1], smashed.labels)
    _, cut_grad = nn.segment_backward(half.layout.layers, half.tensors, acts, aux, dlogits,
                                      half.grads)
    nn.sgd_update(half.params, half.grad, lr)
    return cut_grad, loss


def client_backward(model: SplitModel, smashed: SmashedBatch,
                    cut_grad: np.ndarray, lr: float) -> None:
    """Backward through the client half using the server's cut gradient;
    updates the client half in place."""
    if cut_grad.shape != smashed.activations.shape:
        raise nn.ShapeError(
            f"cut gradient shape {cut_grad.shape} does not match "
            f"activations {smashed.activations.shape}")
    half = model._client
    nn.segment_backward(half.layout.layers, half.tensors, smashed.client_acts,
                        smashed.client_aux, cut_grad, half.grads, input_grad=False)
    nn.sgd_update(half.params, half.grad, lr)


def split_train_step(model: SplitModel, batch: np.ndarray, labels: np.ndarray,
                     lr: float) -> float:
    """One full split training step on one batch. Returns the loss."""
    smashed = client_forward(model, batch, labels)
    cut_grad, loss = server_step(model, smashed, lr)
    client_backward(model, smashed, cut_grad, lr)
    return loss

"""Model presets used by the experiment runner and the demos.

Both presets expose the cut presets of CUT_NAMES, ordered so that the client
portion grows: v1 leaves almost everything on the server, v3 keeps almost
everything on the client.
"""
from __future__ import annotations

from .nn import Conv2d, Dense, Flatten, MaxPool2d, ModelSpec, ReLU

MODEL_NAMES = ("mlp", "cnn")
CUT_NAMES = ("v1", "v2", "v3")


def mlp_spec(in_dim: int = 8, num_classes: int = 4) -> ModelSpec:
    """Fully connected net: in_dim -> 32 -> 32 -> 16 -> num_classes.

    Cuts sit after the hidden ReLUs: v1 after the first block, v2 after the
    second, v3 after the third.
    """
    layers = []
    cut_at = []
    prev = in_dim
    for width in (32, 32, 16):
        layers.append(Dense(prev, width))
        layers.append(ReLU())
        cut_at.append(len(layers))
        prev = width
    layers.append(Dense(prev, num_classes))
    return ModelSpec(tuple(layers), (in_dim,), num_classes,
                     dict(zip(CUT_NAMES, cut_at)))


def cnn_spec(input_shape: tuple[int, int, int] = (1, 8, 8),
             num_classes: int = 4) -> ModelSpec:
    """Small convnet: two conv/pool blocks, then a dense head.

    v1 cuts after the first conv block, v2 after the second, v3 after the
    penultimate dense layer.
    """
    c, h, w = input_shape
    layers = (
        Conv2d(c, 4, kernel=3, stride=1, padding=1),
        ReLU(),
        MaxPool2d(2),
        Conv2d(4, 8, kernel=3, stride=1, padding=1),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Dense(8 * (h // 4) * (w // 4), 16),
        ReLU(),
        Dense(16, num_classes),
    )
    return ModelSpec(layers, input_shape, num_classes,
                     dict(zip(CUT_NAMES, (3, 6, 9))))


def build_model(name: str, in_dim: int, num_classes: int) -> ModelSpec:
    """Resolve a preset name; for the cnn, in_dim must be a square image size."""
    if name == "mlp":
        return mlp_spec(in_dim=in_dim, num_classes=num_classes)
    if name == "cnn":
        side = round(in_dim ** 0.5)
        if side * side != in_dim or side % 4:
            raise ValueError(
                f"cnn needs a square input dimension divisible into (1, s, s) "
                f"with s a multiple of 4, got {in_dim}")
        return cnn_spec((1, side, side), num_classes)
    raise ValueError(f"unknown model preset {name!r}")

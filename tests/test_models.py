"""Model presets: the desk MLP and CNN, their cut presets, and parameter
accounting per client/server half."""

import numpy as np
import pytest

from splitfedsim.config import ConfigError, ExperimentConfig
from splitfedsim.models import CUT_NAMES, build_model, cnn_spec, mlp_spec
from splitfedsim.nn import (
    Dense,
    ReLU,
    init_params,
    param_count,
    segment_param_count,
)


def test_mlp_layer_stack():
    spec = mlp_spec()
    kinds = [type(l).__name__ for l in spec.layers]
    assert kinds == ["Dense", "ReLU", "Dense", "ReLU", "Dense", "ReLU", "Dense"]
    assert spec.input_shape == (8,)
    assert spec.shapes[-1] == (4,)


def test_mlp_param_count():
    # 8*32+32 + 32*32+32 + 32*16+16 + 16*4+4
    assert param_count(mlp_spec()) == 288 + 1056 + 528 + 68 == 1940


def test_mlp_cut_presets_follow_each_activation():
    spec = mlp_spec()
    assert spec.cut_presets == {"v1": 2, "v2": 4, "v3": 6}
    for idx in spec.cut_presets.values():
        assert isinstance(spec.layers[idx - 1], ReLU)
        assert isinstance(spec.layers[idx], Dense)


def test_mlp_client_param_counts_grow_with_cut():
    spec = mlp_spec()
    counts = {
        name: segment_param_count(spec.layers[:idx])
        for name, idx in spec.cut_presets.items()
    }
    assert counts == {"v1": 288, "v2": 1344, "v3": 1872}
    assert counts["v1"] < counts["v2"] < counts["v3"] < param_count(spec)


def test_cnn_spec_shapes_and_cuts():
    spec = cnn_spec()
    assert spec.input_shape == (1, 8, 8)
    assert spec.shapes[-1] == (4,)
    v1, v2, v3 = (spec.cut_presets[k] for k in ("v1", "v2", "v3"))
    assert v1 < v2 < v3 <= len(spec.layers) - 1
    counts = [segment_param_count(spec.layers[:i]) for i in (v1, v2, v3)]
    assert counts[0] < counts[1] < counts[2]


def test_cnn_forward_runs():
    spec = cnn_spec()
    p = init_params(spec, 0)
    from splitfedsim.nn import forward

    logits = forward(spec, p, np.zeros((2, 1, 8, 8)))
    assert logits.shape == (2, 4)


def test_build_model_dispatch():
    mlp = build_model("mlp", 8, 4)
    assert mlp.input_shape == (8,)
    cnn = build_model("cnn", 64, 4)
    assert cnn.input_shape == (1, 8, 8)
    with pytest.raises(ValueError):
        build_model("resnet", 8, 4)


def test_build_model_cnn_needs_square_pool_friendly_side():
    with pytest.raises(ValueError):
        build_model("cnn", 60, 4)  # not a square
    with pytest.raises(ValueError):
        build_model("cnn", 36, 4)  # 6x6 side not divisible by 4


@pytest.mark.parametrize("preset", [mlp_spec, cnn_spec])
def test_presets_expose_exactly_the_cuts_config_accepts(preset):
    names = list(preset().cut_presets)
    assert names == list(CUT_NAMES)
    for name in names:
        ExperimentConfig(cut=name).validate()
    with pytest.raises(ConfigError, match="cut"):
        ExperimentConfig(cut="v4").validate()


def test_custom_mlp_dimensions():
    spec = mlp_spec(in_dim=10, num_classes=3)
    assert isinstance(spec.layers[0], Dense)
    assert spec.shapes == [(10,), (32,), (32,), (32,), (32,), (16,), (16,), (3,)]
    assert param_count(spec) == ((10 * 32 + 32) + (32 * 32 + 32) + (32 * 16 + 16)
                                 + (16 * 3 + 3))

"""Experiment configuration: defaults, validation, the flat key=value text
format, and derived quantities (malicious head-count, attack start round)."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

from splitfedsim.aggregation import RULE_KINDS
from splitfedsim.attacks import ATTACK_KINDS, PERTURB_KINDS
from splitfedsim.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    malicious_count,
    parse_config_text,
)
from splitfedsim.models import CUT_NAMES, MODEL_NAMES


def test_defaults_are_the_desk_configuration():
    cfg = ExperimentConfig()
    assert cfg.seed == 42
    assert cfg.mode == "splitfed"
    assert cfg.model == "mlp"
    assert cfg.cut == "v2"
    assert cfg.dataset == "blobs"
    assert (cfg.blob_classes, cfg.blob_dims, cfg.blob_per_class) == (4, 8, 500)
    assert cfg.blob_spread == 1.0
    assert cfg.partition == "dirichlet"
    assert cfg.dirichlet_alpha == 0.05
    assert (cfg.n_clients, cfg.clients_per_round) == (20, 20)
    assert cfg.malicious_fraction == 0.2
    assert (cfg.rounds, cfg.lr, cfg.batch_size) == (200, 0.05, 32)
    assert cfg.defense == "fedavg"
    assert cfg.attack == "none"
    cfg.validate()


def test_malicious_count_ceil():
    assert malicious_count(0.2, 20) == 4
    assert malicious_count(0.0, 20) == 0
    assert malicious_count(0.02, 20) == 1   # any positive fraction yields a client
    assert malicious_count(0.11, 20) == 3   # ceil(2.2)
    assert malicious_count(0.15, 20) == 3   # exact product 3.0 stays 3
    assert malicious_count(0.3, 20) == 6


def test_malicious_count_range():
    with pytest.raises(ConfigError):
        malicious_count(-0.1, 20)
    with pytest.raises(ConfigError):
        malicious_count(1.0, 20)


@pytest.mark.parametrize(
    "field,value",
    [
        ("mode", "centralized"),
        ("model", "transformer"),
        ("cut", "v4"),
        ("dataset", "cifar"),
        ("partition", "pathological"),
        ("defense", "krum"),
        ("attack", "backdoor"),
        ("agropt_perturb", "cube"),
        ("rounds", -1),
        ("lr", 0.0),
        ("batch_size", 0),
        ("n_clients", 0),
        ("clients_per_round", 25),
        ("malicious_fraction", 1.0),
        ("dirichlet_alpha", 0.0),
        ("agropt_gamma_init", 0.0),
        ("agropt_tau", 0.0),
        ("eval_every", 0),
        ("seed", -1),
        ("attack_start_round", -2),
        ("lr", math.nan),
        ("lr", math.inf),
        ("dirichlet_alpha", math.inf),
        ("blob_spread", math.inf),
        ("agropt_gamma_init", math.inf),
        ("agropt_tau", math.inf),
        ("agropt_tau", 5.1),   # above agropt_gamma_init / 2: the search tries no gamma
        ("lie_z", math.inf),
        ("lie_z", -math.inf),
        ("lie_z", math.nan),
        ("blob_classes", 1),
        ("blob_dims", 1),
        ("blob_per_class", 4),
    ],
)
def test_validate_rejects_bad_field(field, value):
    cfg = dataclasses.replace(ExperimentConfig(), **{field: value})
    with pytest.raises(ConfigError, match=field):
        cfg.validate()


def test_validate_tau_bound_follows_gamma_init():
    for gamma_init in (1.0, 10.0, 100.0):
        cfg = ExperimentConfig(agropt_gamma_init=gamma_init, agropt_tau=gamma_init / 2)
        cfg.validate()
        cfg.agropt_tau = gamma_init * 0.51
        with pytest.raises(ConfigError, match="agropt_tau"):
            cfg.validate()


@pytest.mark.parametrize("blob_dims", [60, 36])  # not a square; side 6 not a multiple of 4
def test_validate_cnn_on_blobs_needs_pool_friendly_dims(blob_dims):
    cfg = ExperimentConfig(model="cnn", blob_dims=blob_dims)
    with pytest.raises(ConfigError, match="blob_dims"):
        cfg.validate()
    ExperimentConfig(model="cnn", blob_dims=64).validate()


def test_validate_trimmed_mean_needs_majority():
    cfg = dataclasses.replace(
        ExperimentConfig(), defense="trmean", malicious_fraction=0.5
    )
    with pytest.raises(ConfigError):
        cfg.validate()
    dataclasses.replace(cfg, malicious_fraction=0.3).validate()


def test_validate_idx_dataset_requires_paths():
    cfg = dataclasses.replace(ExperimentConfig(), dataset="idx")
    with pytest.raises(ConfigError):
        cfg.validate()


def test_validate_n_clients_within_the_blob_training_set():
    # two classes of five samples leave 2 * 4 = 8 for training
    cfg = ExperimentConfig(blob_classes=2, blob_per_class=5, n_clients=8,
                           clients_per_round=8)
    cfg.validate()
    with pytest.raises(ConfigError, match="n_clients .* 8 training samples, got 9"):
        dataclasses.replace(cfg, n_clients=9).validate()


def test_validate_idx_reads_only_the_image_headers(idx_fields):
    fields = idx_fields((40, 8, 8), (10, 8, 8), body=False)
    ExperimentConfig(model="cnn", **fields).validate()


@pytest.mark.parametrize("rows,cols", [(4, 16), (16, 4)])
def test_validate_cnn_reads_idx_images_only_in_their_own_shape(idx_fields, rows, cols):
    # 64 pixels make an 8x8 cnn, which would read each image's pixels reordered
    fields = idx_fields((40, rows, cols), (10, rows, cols), body=False)
    with pytest.raises(ConfigError, match="^idx_train_images: "):
        ExperimentConfig(model="cnn", **fields).validate()
    ExperimentConfig(model="mlp", **fields).validate()


def test_resolved_attack_start():
    base = ExperimentConfig()
    iid = dataclasses.replace(base, partition="iid")
    assert iid.resolved_attack_start() == 0
    skew = dataclasses.replace(base, partition="dirichlet", rounds=200)
    assert skew.resolved_attack_start() == 50
    pinned = dataclasses.replace(base, attack_start_round=17)
    assert pinned.resolved_attack_start() == 17


def test_text_round_trip():
    cfg = dataclasses.replace(
        ExperimentConfig(),
        mode="fl",
        defense="median",
        attack="agropt",
        malicious_fraction=0.3,
        rounds=17,
    )
    text = "\n".join(f"{f.name} = {getattr(cfg, f.name)}"
                     for f in dataclasses.fields(cfg))
    again = parse_config_text(text)
    assert again == cfg


def test_parse_overrides_base():
    cfg = parse_config_text("rounds = 5\nlr = 0.1\n")
    assert cfg.rounds == 5
    assert cfg.lr == 0.1
    assert cfg.mode == "splitfed"  # untouched default


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nrounds = 3\n  # indented comment\nseed = 7\n"
    cfg = parse_config_text(text)
    assert (cfg.rounds, cfg.seed) == (3, 7)


def test_parse_unknown_key_named():
    with pytest.raises(ConfigError, match="momentum"):
        parse_config_text("momentum = 0.9\n")


def test_parse_bad_value_named():
    with pytest.raises(ConfigError, match="rounds"):
        parse_config_text("rounds = many\n")


def test_parse_malformed_line():
    with pytest.raises(ConfigError):
        parse_config_text("just a dangling phrase\n")


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("rounds = 4\ndefense = median\n")
    cfg = load_config(str(path))
    assert cfg.rounds == 4
    assert cfg.defense == "median"


def test_load_config_leaves_validation_to_the_caller(tmp_path):
    # a later override (--set, an axis) may still fix a field the file sets
    path = tmp_path / "exp.cfg"
    path.write_text("cut = v9\n")
    cfg = load_config(str(path))
    with pytest.raises(ConfigError, match="cut"):
        cfg.validate()
    parse_config_text("cut = v3", cfg).validate()


def test_readme_config_example_validates_and_lists_the_allowed_values():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)
    parse_config_text(block).validate()
    owners = {"model": MODEL_NAMES, "cut": CUT_NAMES, "defense": RULE_KINDS,
              "attack": ATTACK_KINDS, "agropt_perturb": PERTURB_KINDS}
    listed = {}
    for line in block.splitlines():
        key, _, rest = line.partition("=")
        if key.strip() in owners:
            alternatives = rest.split("#", 1)[1].split("(")[0]
            listed[key.strip()] = tuple(v.strip() for v in alternatives.split("|"))
    assert listed == owners

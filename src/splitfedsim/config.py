"""Experiment configuration: one flat dataclass, mirrored 1:1 by the
key=value config file format (lines of `key = value`, `#` comments)."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .aggregation import RULE_KINDS
from .attacks import ATTACK_KINDS, PERTURB_KINDS, _check_search


class ConfigError(ValueError):
    """A configuration field is missing, unknown, or out of range."""


def malicious_count(fraction: float, n: int) -> int:
    """Number of compromised clients for a fraction of n. Rounds up so any
    positive fraction compromises at least one client; the small epsilon
    keeps float products like 0.3 * 20 from ceiling to 7."""
    if not 0.0 <= fraction < 1.0:
        raise ConfigError(f"malicious_fraction must be in [0, 1), got {fraction}")
    return int(math.ceil(fraction * n - 1e-9))


@dataclass
class ExperimentConfig:
    seed: int = 42
    mode: str = "splitfed"          # "splitfed" | "fl"
    model: str = "mlp"              # models.MODEL_NAMES
    cut: str = "v2"                 # models.CUT_NAMES, splitfed only
    dataset: str = "blobs"          # "blobs" | "idx"
    blob_classes: int = 4
    blob_dims: int = 8
    blob_per_class: int = 500
    blob_spread: float = 1.0
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    partition: str = "dirichlet"    # "iid" | "dirichlet"
    dirichlet_alpha: float = 0.05
    n_clients: int = 20
    clients_per_round: int = 20
    malicious_fraction: float = 0.2
    rounds: int = 200
    lr: float = 0.05
    batch_size: int = 32
    defense: str = "fedavg"         # aggregation.RULE_KINDS
    attack: str = "none"            # attacks.ATTACK_KINDS
    lie_z: float = 1.5
    agropt_perturb: str = "std"     # attacks.PERTURB_KINDS
    agropt_gamma_init: float = 10.0
    agropt_tau: float = 1e-5
    attack_start_round: int = -1    # -1 = auto: 0 for iid, rounds // 4 for dirichlet
    eval_every: int = 1

    def validate(self) -> "ExperimentConfig":
        """Raise ConfigError naming the offending field; return self if fine."""
        # imported here: loading nn with config adds ~2 MB to fl_wide_agropt's peak RSS
        from . import datasets
        from .models import CUT_NAMES, MODEL_NAMES, build_model
        def choice(field_name, allowed):
            v = getattr(self, field_name)
            if v not in allowed:
                raise ConfigError(f"{field_name} must be one of {allowed}, got {v!r}")

        choice("mode", ("splitfed", "fl"))
        choice("model", MODEL_NAMES)
        choice("cut", CUT_NAMES)
        choice("dataset", ("blobs", "idx"))
        choice("partition", ("iid", "dirichlet"))
        choice("defense", RULE_KINDS)
        choice("attack", ATTACK_KINDS)
        choice("agropt_perturb", PERTURB_KINDS)
        for f in ("dirichlet_alpha", "blob_spread", "lr", "agropt_gamma_init",
                  "agropt_tau"):
            v = getattr(self, f)
            if not (v > 0 and math.isfinite(v)):
                raise ConfigError(f"{f} must be positive and finite, got {v}")
        try:  # attacks owns the gamma search's bounds; only tau's upper one is left
            _check_search(self.agropt_gamma_init, self.agropt_tau)
        except ValueError as e:
            raise ConfigError(f"agropt_tau: {e}") from None
        if not math.isfinite(self.lie_z):
            raise ConfigError(f"lie_z must be finite, got {self.lie_z}")
        # gen_blobs needs two classes of two features and five samples each
        for f, least in (("seed", 0), ("rounds", 0), ("attack_start_round", -1),
                         ("blob_classes", 2), ("blob_dims", 2),
                         ("blob_per_class", 5), ("n_clients", 1),
                         ("batch_size", 1), ("eval_every", 1)):
            if getattr(self, f) < least:
                raise ConfigError(f"{f} must be at least {least}, got {getattr(self, f)}")
        if not 1 <= self.clients_per_round <= self.n_clients:
            raise ConfigError(
                f"clients_per_round must be in [1, n_clients={self.n_clients}], "
                f"got {self.clients_per_round}")
        # malicious_count owns the range of malicious_fraction
        m_total = malicious_count(self.malicious_fraction, self.n_clients)
        if self.dataset == "idx":
            for f in ("idx_train_images", "idx_train_labels",
                      "idx_test_images", "idx_test_labels"):
                if not getattr(self, f):
                    raise ConfigError(f"{f} is required when dataset = idx")
            # the image headers only; a malformed file stays a runtime failure
            with open(self.idx_train_images, "rb") as f:
                n_train, rows, cols = datasets.idx_image_header(f)
            with open(self.idx_test_images, "rb") as f:
                n_test, test_rows, test_cols = datasets.idx_image_header(f)
            if n_test == 0:
                raise ConfigError("idx_test_images holds no images")
            if (test_rows, test_cols) != (rows, cols):
                raise ConfigError(
                    f"idx_test_images holds {test_rows}x{test_cols} images, "
                    f"but idx_train_images holds {rows}x{cols}")
            in_dim, dim_field, image = rows * cols, "idx_train_images", (1, rows, cols)
        else:
            n_train = self.blob_classes * datasets.blob_train_count(self.blob_per_class)
            in_dim, dim_field, image = self.blob_dims, "blob_dims", None
        if self.n_clients > n_train:
            raise ConfigError(f"n_clients must be at most the {n_train} training "
                              f"samples, got {self.n_clients}")
        if self.model == "cnn":
            try:  # build_model owns the cnn's input geometry; any class count will do
                shape = build_model(self.model, in_dim, 2).input_shape
            except ValueError as e:
                raise ConfigError(f"{dim_field}: {e}") from None
            if image is not None and image != shape:
                raise ConfigError(f"idx_train_images: the cnn reads {shape} images, "
                                  f"but the files hold {image}")
        if self.defense == "trmean":
            worst = min(m_total, self.clients_per_round)
            if self.clients_per_round <= 2 * worst:
                raise ConfigError(
                    f"trmean needs clients_per_round > 2 * malicious clients in a "
                    f"round; worst case is {worst} of {self.clients_per_round}")
        return self

    def resolved_attack_start(self) -> int:
        if self.attack_start_round >= 0:
            return self.attack_start_round
        return 0 if self.partition == "iid" else self.rounds // 4


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse `key = value` lines into a config. Unknown keys and uncoercible
    values raise ConfigError naming the key; validate() checks the result."""
    cfg = dataclasses.replace(base) if base is not None else ExperimentConfig()
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    casts = {"int": int, "float": float, "str": str}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, casts[types[key]](value))
        except (TypeError, ValueError):
            raise ConfigError(
                f"config key {key!r}: cannot parse {value!r} as {types[key]}") from None
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """parse_config_text of a file; validate() checks the result."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())

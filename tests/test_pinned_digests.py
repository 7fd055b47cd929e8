"""End-to-end pinned digests for the runs the benchmark does not cover.

The benchmark's golden digests only run the MLP (Dense and ReLU). These pins
cover 3-round attacked runs (trmean against agropt) of the MLP and of the CNN
(Conv2d, MaxPool2d, Flatten), in FL and in SplitFed at cuts v1 and v3, and
three FL runs whose rounds aggregate their rows unattacked or under lie. Each
pins the SHA-256 of the train() records and of the final parameters. The
first were taken with the layout rebuilt on every call, gradients
concatenated and SGD out of place, so they show that the precompiled layer
plan changed no bit.
"""
import hashlib

import pytest

from splitfedsim import protocol
from splitfedsim.config import ExperimentConfig

# RoundRecord fields in the records digest; wall_ms is a timing
FIELDS = ("round_no", "test_accuracy", "loss", "gamma", "deviation")

PINS = {
    ("mlp", "fl", "v2"): (
        "7866c66f933020172f14b6c44083e5f6d69079f0de1240bc28e655163f3ca3dd",
        "7248f884f9ce7d114fb3e3ddf001640847b11a3b321455c978a9464b0502961e"),
    ("mlp", "splitfed", "v1"): (
        "c352ec0c759edc74e7a6d89f1c5b099733a5aa9933cbb4c8046571d836890ae8",
        "68d61461ed63eba0305c51d5e7de2c896d5d50e728e9b85372d691a3c143bb55"),
    ("mlp", "splitfed", "v3"): (
        "2cb8ab1704a52d4ea14c0f67aaae60eaba397bf707f143ec6f2b83cb0e798643",
        "a3a367cb7e1f2e70df5f12b1805d8acdac9cb66f0537f843b7ea77ef831cd007"),
    ("cnn", "fl", "v2"): (
        "e8221f021e6af0d583caab7de77057017492197538128fa3855c3edd53c737b4",
        "f93c047192ae95ffb72069a50cb9079396c80193cd503eacf7533c42ee767176"),
    ("cnn", "splitfed", "v1"): (
        "b3b9682bb323a816784939e1e77b74649d35cead6c24c61c160e83193785de54",
        "cd5bedd14bf43c8176145da4b168c63399835509db330ff47e02dae1fb49b2df"),
    ("cnn", "splitfed", "v3"): (
        "cdc9bbada76f6b6db277867995b70302d0153d2e47eb43f9e7af3d9705f989fe",
        "ff47c9d0305bdcf46a2cb3065441c9eb77569379abbfc3fb45721d8ee3e12f8e"),
}


def records_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        values = []
        for name in FIELDS:
            v = getattr(rec, name)
            values.append(repr(v if v is None or isinstance(v, int) else float(v)))
        h.update((",".join(values) + "\n").encode())
    return h.hexdigest()


def _train_digests(config, monkeypatch):
    """(records digest, final parameters digest) of one train() run."""
    # train() evaluates the full parameter vector after the last round
    evaluated = []
    real_evaluate = protocol.evaluate

    def evaluate(spec, params, test):
        evaluated.append(params.copy())
        return real_evaluate(spec, params, test)

    monkeypatch.setattr(protocol, "evaluate", evaluate)
    records = protocol.train(config)
    assert len(evaluated) == config.rounds
    return records_digest(records), hashlib.sha256(evaluated[-1].tobytes()).hexdigest()


@pytest.mark.parametrize("model,mode,cut", sorted(PINS), ids="-".join)
def test_train_records_and_final_params_are_pinned(model, mode, cut, monkeypatch):
    config = ExperimentConfig(seed=42, mode=mode, model=model, cut=cut, blob_dims=16,
                              blob_per_class=50, defense="trmean", attack="agropt",
                              rounds=3)
    assert _train_digests(config, monkeypatch) == PINS[(model, mode, cut)]


# FL runs whose rounds aggregate the submitted rows as they are, which the
# attacked runs above never do: no attack on Dirichlet shards, uneven, so
# that the clients share batch sizes only in part, and lie on IID shards,
# whose crafted row the aggregate reads. Taken while each FL client still trained on its own, one
# after another, so they show that training the clients as one stack changed
# no bit.
FL_PINS = {
    ("mlp", "none", "dirichlet", "fedavg"): (
        "a7956373048d72c125cd1fd0eef4d828036a9913647c4973183c00f10b468cb7",
        "07d7f34b07c41b5ec9bce4d81fed6faadfb6b9144c19bb5b4182b649f185f828"),
    ("mlp", "lie", "iid", "trmean"): (
        "5b78767e907448899a1707567d7f13227f23d656b04c5101aa85b4bf8d83cab0",
        "16f580df7074ea5c401e4d01f5d0f96beae1dd2aa53977f163595aebc20f6e5d"),
    ("cnn", "none", "dirichlet", "median"): (
        "ce88d07c5617a6c7824e2d4c605e0295a3e1c022caef183f17b9261294a09a36",
        "2352e95b5b9b285440d5bff45a13a3e9205c7973dc4b8e11e2865299923c7028"),
}


@pytest.mark.parametrize("model,attack,partition,defense", sorted(FL_PINS),
                         ids=["-".join(key) for key in sorted(FL_PINS)])
def test_fl_runs_that_aggregate_their_rows_are_pinned(model, attack, partition,
                                                      defense, monkeypatch):
    config = ExperimentConfig(seed=42, mode="fl", model=model, blob_dims=16,
                              blob_per_class=50, partition=partition,
                              defense=defense, attack=attack, rounds=3)
    assert _train_digests(config, monkeypatch) == FL_PINS[(model, attack, partition, defense)]

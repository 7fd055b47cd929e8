"""End-to-end pinned digests for the runs the benchmark does not cover.

The benchmark's golden digests only run the MLP (Dense and ReLU). These pins
cover 3-round attacked runs (trmean against agropt) of the MLP and of the CNN
(Conv2d, MaxPool2d, Flatten), in FL and in SplitFed at cuts v1 and v3, and
three FL runs whose rounds aggregate their rows unattacked or under lie,
two 20-round median runs whose perturbations have mixed signs (see
MIXED_SIGN_PINS), and the attacked runs again on IDX image files (see
IDX_PINS). Each pins the SHA-256 of the train() records and of the final
parameters. The first were taken with the layout rebuilt on every call,
gradients concatenated and SGD out of place, so they show that the
precompiled layer plan changed no bit.
"""
import hashlib

import numpy as np
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


@pytest.mark.parametrize("model,mode,cut", sorted(PINS),
                         ids=["-".join(key) for key in sorted(PINS)])
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


# The attacked runs above on IDX image files that the test writes: random
# pixels from a fixed rng, labels of two classes, 200 training and 60 test
# images. The loader gives (N, 1, rows, cols) features; the MLP reads 4x16
# images flattened and the CNN 8x8 ones as they are. Taken while every
# mini-batch and the test set were reshaped to the model's input on each use,
# so they show that reshaping the features once per run changed no bit.
IDX_PINS = {
    ("mlp", "fl", "v2"): (
        "82e8ccf26794cee88e456d63e12b85ba0cdd5c01dd5b95792e7a477633d38231",
        "ecbe86381e20d5f0536e78f939b7d36d94201df03c2a36dae09f3486eb9c127d"),
    ("mlp", "splitfed", "v1"): (
        "ef85db3360cfdbd0f7d52e61a768e5f8b5bf8b91b0da155d700f6212e52946a2",
        "a39333d7ce7652081207931bdd7a4a70394c97c13473d9de03fd287b321f2005"),
    ("mlp", "splitfed", "v3"): (
        "e89a7697b2fdadf7ebb3a889e6f5860db8017760c199638b63b73809726d407e",
        "79f2d5856202d110a2b7deced640d7f01881f8556104dfe27c186013c8f066fe"),
    ("cnn", "fl", "v2"): (
        "ecdc27a35d5161ebb345a91f59b28877269611e27ed66d347260ba6ce835759c",
        "b642514a8c2ab6a2b207a2b8a01fe9c02e821116a9d3e8e72368684f0616bc44"),
    ("cnn", "splitfed", "v1"): (
        "a65307c623111f7258f9e95beced19edf2d88a8d5bebe497ecf156f03b9a3fa3",
        "acd98aa9d17f92d77cbd879d51b8c598488f66ffde1bb6d9a6261760a1fa97dc"),
    ("cnn", "splitfed", "v3"): (
        "dada9cf52794008f15fc6e80f9bc04ae45c919212a0c81a908b3e00c00bc8732",
        "9c99deee50f5f222d54ec1497c9e1c82aa71c2292e63316d1f052f5657d0fb99"),
}
IDX_IMAGE = {"mlp": (4, 16), "cnn": (8, 8)}


@pytest.mark.parametrize("model,mode,cut", sorted(IDX_PINS),
                         ids=["-".join(key) for key in sorted(IDX_PINS)])
def test_idx_runs_are_pinned(model, mode, cut, idx_fields, monkeypatch):
    rows, cols = IDX_IMAGE[model]
    fields = idx_fields((200, rows, cols), (60, rows, cols),
                        rng=np.random.default_rng(16))
    config = ExperimentConfig(seed=42, mode=mode, model=model, cut=cut,
                              defense="trmean", attack="agropt", rounds=3, **fields)
    assert _train_digests(config, monkeypatch) == IDX_PINS[(model, mode, cut)]


# 20-round attacked median runs under the perturbations whose entries take
# both signs, so that the crafted row moves up in some columns and down in
# others as gamma grows. Taken while the gamma search still evaluated every
# gamma it probed, so they show that reusing the deviation past the clamp
# changed no bit. A reuse check that counted a crafted value outside the
# window as clamped whichever way gamma moves it, run after every probe,
# changed the SplitFed run's deviations at rounds 14 and 19.
MIXED_SIGN_PINS = {
    ("splitfed", "cnn", "unit"): (
        "b09e1cf311f2cb105887e80be4c831ebb7b2806d783898ad8253185bdfa9cec7",
        "f87078e1bae29069a652b538f2f076c8309a4fd2542ae2a40737d38ea9106b08"),
    ("fl", "mlp", "sign"): (
        "95049310370fe3e2011cced32d37eb2ff11bb890d5b0b523e80c92d23f62da5b",
        "70b4ecfa8e521eacec12892da83b2a37fcd07cd7796284254d5fc99018c6e632"),
}
MIXED_SIGN_DATA = {"cnn": dict(cut="v1", blob_dims=144), "mlp": dict(blob_dims=16)}


@pytest.mark.parametrize("mode,model,perturb", sorted(MIXED_SIGN_PINS),
                         ids=["-".join(key) for key in sorted(MIXED_SIGN_PINS)])
def test_mixed_sign_perturbation_runs_are_pinned(mode, model, perturb, monkeypatch):
    config = ExperimentConfig(seed=1234, mode=mode, model=model, blob_per_class=50,
                              defense="median", attack="agropt", agropt_perturb=perturb,
                              rounds=20, **MIXED_SIGN_DATA[model])
    assert _train_digests(config, monkeypatch) == MIXED_SIGN_PINS[(mode, model, perturb)]

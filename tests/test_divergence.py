"""Diverged runs fail clearly: once the parameters or the benign updates stop
being finite, train() raises FloatingPointError and the CLI exits 2 without
writing a CSV, instead of crashing inside the attack or reporting chance-level
accuracy as a result."""

import pytest

from splitfedsim.cli import main
from splitfedsim.config import ExperimentConfig, parse_config_text
from splitfedsim.protocol import train

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# a step size this large sends the default model to inf/NaN in round 0
LR_DIVERGES = ["lr=50", "rounds=20"]

# local training turns the benign updates non-finite inside a round, so every
# deviation of the gamma search is NaN before the round can be aggregated
GAMMA_ALL_NAN = ["mode=fl", "attack=agropt", "agropt_perturb=sign", "rounds=12",
                 "clients_per_round=10", "blob_per_class=100",
                 "attack_start_round=0", "seed=5", "partition=iid"]


def _config(settings):
    return parse_config_text("\n".join(settings), ExperimentConfig()).validate()


def test_train_names_the_round_the_parameters_diverged():
    with pytest.raises(FloatingPointError, match="round 0: .*not finite"):
        train(_config(LR_DIVERGES))


def test_train_fails_when_every_gamma_deviation_is_nan():
    with pytest.raises(FloatingPointError, match="gamma search"):
        train(_config(GAMMA_ALL_NAN))


@pytest.mark.parametrize("settings", [LR_DIVERGES, GAMMA_ALL_NAN],
                         ids=["lr_diverges", "gamma_all_nan"])
def test_cli_diverged_run_exits_2_without_csv(tmp_path, capsys, settings):
    out = tmp_path / "r.csv"
    args = ["train", "--out", str(out)]
    for s in settings:
        args += ["--set", s]
    assert main(args) == 2
    assert "FloatingPointError" in capsys.readouterr().err
    assert not out.exists()

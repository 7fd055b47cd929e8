"""Deterministic desk-scale simulator of split and federated learning under
model-poisoning attacks against robust aggregation."""

from .aggregation import (AggregationRule, aggregate, coordinate_median,
                          fed_avg, trimmed_mean)
from .attacks import (AttackSpec, GammaSearchResult, agr_deviation, benign_mean,
                      craft_malicious, gamma_search, lie_update,
                      perturbation_vector)
from .config import ConfigError, ExperimentConfig, load_config, malicious_count
from .datasets import (Dataset, IdxFormatError, Partition, gen_blobs, load_idx,
                       partition_dirichlet, partition_iid, sample_clients)
from .experiments import (SweepResult, SweepRow, accuracy_drop, final_accuracy,
                          plot_drop_curve, read_results, run_sweep, write_results)
from .models import build_model, cnn_spec, mlp_spec
from .nn import (BuildError, Conv2d, Dense, Flatten, MaxPool2d, ModelSpec, ReLU,
                 ShapeError, finite_diff_grad, forward, grad, init_params,
                 param_count, sgd_step)
from .protocol import (RoundContext, RoundRecord, evaluate, pick_malicious,
                       train)
from .split import (CutPoint, SmashedBatch, SplitModel, client_backward,
                    client_forward, full_params, server_step, split_at,
                    split_train_step)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

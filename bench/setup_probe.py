"""Time the set-up one run pays before round 0, in a fresh interpreter.

Usage: python3 bench/setup_probe.py <workload> <seed>

Prints the seconds taken by importing splitfedsim, validating the config,
building the datasets and the partition, building the model, initialising its
parameters and, in splitfed mode, splitting them at the cut.
"""
import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from splitfedsim import models, nn, protocol, split
    import workloads

    config = workloads.WORKLOADS[sys.argv[1]].config(int(sys.argv[2])).validate()
    train_ds, _ = protocol.build_datasets(config)
    protocol.build_partition(config, train_ds)
    spec = models.build_model(config.model, train_ds.features[0].size,
                              train_ds.num_classes)
    params = nn.init_params(spec, config.seed)
    if config.mode == "splitfed":
        split.split_at(spec, params, split.CutPoint(spec.cut_presets[config.cut]))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()

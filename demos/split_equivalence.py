"""Show that split training is ordinary training, rearranged.

A split model keeps the first layers on the client and the rest on the
server; the client sends the cut activations forward and receives the cut
gradient back. Nothing about the maths changes, so training the two halves
through the handoff must land on bit-for-bit the same parameters as training
the whole model in one piece. This script does both, side by side, for every
cut preset of both architectures.
"""
import numpy as np

from splitfedsim import nn, split
from splitfedsim.models import build_model


def train_both_ways(spec, cut_idx, seed, steps=5, lr=0.05):
    rng = np.random.default_rng(seed)
    full = nn.init_params(spec, seed)
    model = split.split_at(spec, full.copy(), split.CutPoint(cut_idx))
    losses = []
    for _ in range(steps):
        x = rng.normal(size=(16, *spec.input_shape))
        y = rng.integers(0, spec.num_classes, size=16)
        g, loss_full = nn.grad(spec, full, x, y)
        full = nn.sgd_step(full, g, lr)
        loss_split = split.split_train_step(model, x, y, lr)
        losses.append((loss_full, loss_split))
    return full, model.params, losses


def main():
    for name, in_dim in (("mlp", 8), ("cnn", 64)):
        spec = build_model(name, in_dim, num_classes=4)
        print(f"{name}: {nn.param_count(spec)} parameters, "
              f"cut presets {dict(sorted(spec.cut_presets.items()))}")
        for cut_name, cut_idx in sorted(spec.cut_presets.items()):
            client_params = split.split_offset(spec, split.CutPoint(cut_idx))
            full, stitched, losses = train_both_ways(spec, cut_idx, seed=7)
            diff = np.abs(full - stitched).max()
            same_loss = all(a == b for a, b in losses)
            print(f"  cut {cut_name} (layer {cut_idx}, client holds "
                  f"{client_params} params): 5 steps, "
                  f"max param diff {diff:.1e}, losses identical: {same_loss}")
        print()
    print("a max diff of 0.0e+00 means equality to the last bit, not just 'close'")


if __name__ == "__main__":
    main()

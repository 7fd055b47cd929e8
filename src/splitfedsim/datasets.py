"""Datasets and client partitions.

Two sources: synthetic Gaussian blobs (the default desk-scale workload) and
IDX-format image files. A partition is a list of disjoint sample index
arrays covering the training set, entry i client i's shard; cross-device
rounds draw a deterministic client subset per round.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np


class IdxFormatError(ValueError):
    """IDX file is malformed (magic, truncation, or count mismatch)."""


# pairwise cosine between class-center directions and the radius of the
# hypersphere they sit on (see gen_blobs)
CENTER_COS = 0.05
CENTER_SCALE = 3.0


@dataclass
class Dataset:
    features: np.ndarray  # (N, ...) float64
    labels: np.ndarray    # (N,) integer class ids
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels)
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows but {self.labels.shape[0]} labels")
        if self.features.shape[0] == 0:
            raise ValueError("dataset is empty")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.features.shape[0]


def blob_train_count(samples_per_class: int) -> int:
    """Training samples per class of gen_blobs' 80/20 split."""
    return int(0.8 * samples_per_class)


def gen_blobs(seed: int, num_classes: int = 4, dims: int = 8,
              samples_per_class: int = 500, spread: float = 1.0):
    """Gaussian class clusters with centers on a fixed-radius hypersphere.

    Returns (train, test) with an 80/20 per-class split. Everything is drawn
    from one seeded generator, so the same arguments give the same arrays.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if dims < 2:
        raise ValueError("need at least 2 feature dimensions")
    if samples_per_class < 5:
        raise ValueError("need at least 5 samples per class for the 80/20 split")
    if not (spread > 0 and math.isfinite(spread)):
        raise ValueError(f"spread must be positive and finite, got {spread}")
    rng = np.random.default_rng(seed)
    # centers share a common direction component so every pair sits at the
    # same angle: cos = CENTER_COS. That pins the class margin instead of
    # letting it swing with the seed, and sets task difficulty to where the
    # protocol's clean baseline and attack sensitivity are both visible.
    gauss = rng.standard_normal((dims, dims))
    frame, _ = np.linalg.qr(gauss)
    if num_classes + 1 <= dims:
        shared = frame[0]
        distinct = frame[1:num_classes + 1]
        directions = (np.sqrt(CENTER_COS) * shared
                      + np.sqrt(1.0 - CENTER_COS) * distinct)
    else:
        directions = rng.standard_normal((num_classes, dims))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    centers = CENTER_SCALE * directions
    train_x, train_y, test_x, test_y = [], [], [], []
    n_train = blob_train_count(samples_per_class)
    for c in range(num_classes):
        pts = centers[c] + spread * rng.standard_normal((samples_per_class, dims))
        train_x.append(pts[:n_train])
        test_x.append(pts[n_train:])
        train_y.append(np.full(n_train, c, dtype=np.int64))
        test_y.append(np.full(samples_per_class - n_train, c, dtype=np.int64))
    tr_x, tr_y = np.concatenate(train_x), np.concatenate(train_y)
    te_x, te_y = np.concatenate(test_x), np.concatenate(test_y)
    tr_order = rng.permutation(len(tr_y))
    te_order = rng.permutation(len(te_y))
    train = Dataset(tr_x[tr_order], tr_y[tr_order], num_classes)
    test = Dataset(te_x[te_order], te_y[te_order], num_classes)
    return train, test


# IDX magic numbers: unsigned bytes in 3 dimensions (images), in 1 (labels)
_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801


def _idx_header(f, magic: int, ndim: int) -> tuple[int, ...]:
    """The ndim dimension sizes from the header of an IDX file open for
    binary reading, whose magic number must be magic; leaves f at the first
    data byte."""
    size = 4 * (1 + ndim)
    header = f.read(size)
    if len(header) < size:
        raise IdxFormatError(f"{f.name}: truncated header")
    got, *dims = struct.unpack(f">{1 + ndim}I", header)
    if got != magic:
        raise IdxFormatError(
            f"{f.name}: bad magic 0x{got:08x}, expected 0x{magic:08x}")
    return tuple(dims)


def idx_image_header(f) -> tuple[int, int, int]:
    """(count, rows, cols) from the 16-byte header of an IDX image file open
    for binary reading; leaves f at the first pixel."""
    return _idx_header(f, _IMAGE_MAGIC, 3)


def _read_idx(path: str, magic: int, ndim: int, unit: str) -> np.ndarray:
    """An IDX file's bytes as a uint8 array of the shape its header gives."""
    with open(path, "rb") as f:
        dims = _idx_header(f, magic, ndim)
        size = math.prod(dims)
        body = f.read(size)
        if len(body) < size:
            raise IdxFormatError(
                f"{path}: expected {size} {unit} bytes, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(dims)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Read IDX image/label files into a Dataset scaled to [0, 1]."""
    images = _read_idx(images_path, _IMAGE_MAGIC, 3, "pixel")
    labels = _read_idx(labels_path, _LABEL_MAGIC, 1, "label").astype(np.int64)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"{images.shape[0]} images but {labels.shape[0]} labels")
    features = images[:, None].astype(float) / 255.0
    return Dataset(features, labels, int(labels.max()) + 1 if labels.size else 1)


# ---------------------------------------------------------------------------
# partitions

def partition_iid(ds: Dataset, n_clients: int, seed: int) -> list[np.ndarray]:
    """Shuffle once, deal contiguous chunks; remainder goes one sample per
    client starting from client 0."""
    n = len(ds)
    if n_clients < 1 or n_clients > n:
        raise ValueError(f"cannot split {n} samples over {n_clients} clients")
    order = np.random.default_rng(seed).permutation(n)
    return np.array_split(order, n_clients)


def partition_dirichlet(ds: Dataset, n_clients: int, alpha: float,
                        seed: int) -> list[np.ndarray]:
    """Label-skewed split: per class, client shares drawn from Dirichlet(alpha).

    Small alpha concentrates each class on few clients. Clients left empty by
    the draw are given one sample taken from the currently largest client so
    every client can train.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    n = len(ds)
    if n_clients < 1 or n_clients > n:
        raise ValueError(f"cannot split {n} samples over {n_clients} clients")
    rng = np.random.default_rng(seed)
    buckets: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        shares = rng.dirichlet(np.full(n_clients, alpha))
        cuts = (np.cumsum(shares) * idx.size).astype(int)[:-1]
        for cid, chunk in enumerate(np.split(idx, cuts)):
            if chunk.size:
                buckets[cid].append(chunk)
    parts = [np.concatenate(b) if b else np.zeros(0, dtype=np.int64) for b in buckets]
    for cid in range(n_clients):
        if parts[cid].size == 0:
            sizes = [p.size for p in parts]
            donor = int(np.argmax(sizes))  # argmax ties break to the lowest id
            parts[cid] = parts[donor][-1:]
            parts[donor] = parts[donor][:-1]
    return parts


def sample_clients(n_clients: int, clients_per_round: int, round_no: int,
                   seed: int) -> np.ndarray:
    """Deterministic without-replacement draw for one round, sorted ascending."""
    if not 1 <= clients_per_round <= n_clients:
        raise ValueError(
            f"clients_per_round {clients_per_round} outside [1, {n_clients}]")
    if round_no < 0:
        raise ValueError("round_no must be non-negative")
    rng = np.random.default_rng([seed, round_no])
    picked = rng.choice(n_clients, size=clients_per_round, replace=False)
    return np.sort(picked)

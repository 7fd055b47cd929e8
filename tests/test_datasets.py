"""Data generation, IDX file loading, client partitioning, and per-round
client sampling."""

import struct

import numpy as np
import pytest

from splitfedsim.datasets import (
    CENTER_SCALE,
    Dataset,
    IdxFormatError,
    blob_train_count,
    gen_blobs,
    idx_image_header,
    load_idx,
    partition_dirichlet,
    partition_iid,
    sample_clients,
)


# ---------------------------------------------------------------- blobs


def test_gen_blobs_shapes_and_split():
    train, test = gen_blobs(0, num_classes=4, dims=8, samples_per_class=500)
    assert train.features.shape == (1600, 8)
    assert test.features.shape == (400, 8)
    assert train.num_classes == test.num_classes == 4
    # per-class counts preserved by the 80/20 split
    assert np.bincount(train.labels, minlength=4).tolist() == [400] * 4
    assert np.bincount(test.labels, minlength=4).tolist() == [100] * 4


@pytest.mark.parametrize("per_class", [5, 7, 500])
def test_blob_train_count_is_the_gen_blobs_split(per_class):
    train, test = gen_blobs(0, num_classes=3, samples_per_class=per_class)
    assert len(train) == 3 * blob_train_count(per_class)
    assert len(train) + len(test) == 3 * per_class


def test_gen_blobs_deterministic():
    a_train, a_test = gen_blobs(42)
    b_train, b_test = gen_blobs(42)
    np.testing.assert_array_equal(a_train.features, b_train.features)
    np.testing.assert_array_equal(a_train.labels, b_train.labels)
    np.testing.assert_array_equal(a_test.features, b_test.features)
    c_train, _ = gen_blobs(43)
    assert not np.array_equal(a_train.features, c_train.features)


def test_gen_blobs_centers_on_fixed_radius():
    train, test = gen_blobs(5, spread=1e-9)
    feats = np.concatenate([train.features, test.features])
    np.testing.assert_allclose(np.linalg.norm(feats, axis=1), CENTER_SCALE, rtol=1e-6)


def test_gen_blobs_tiny_spread_linearly_separable():
    train, test = gen_blobs(3, spread=1e-6)
    centers = np.stack(
        [train.features[train.labels == c].mean(axis=0) for c in range(4)]
    )
    dists = np.linalg.norm(test.features[:, None, :] - centers[None], axis=2)
    assert (dists.argmin(axis=1) == test.labels).all()


def test_gen_blobs_input_validation():
    with pytest.raises(ValueError):
        gen_blobs(0, num_classes=1)
    with pytest.raises(ValueError):
        gen_blobs(0, dims=1)
    for spread in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="spread must be positive and finite"):
            gen_blobs(0, spread=spread)
    with pytest.raises(ValueError):
        gen_blobs(0, samples_per_class=2)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)


# ---------------------------------------------------------------- idx files


def _write_idx_pair(tmp_path, pixels, labels, rows, cols,
                    image_magic=0x803, label_magic=0x801, label_count=None):
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    count = len(labels) if label_count is None else label_count
    img.write_bytes(
        struct.pack(">IIII", image_magic, len(pixels) // (rows * cols), rows, cols)
        + bytes(pixels)
    )
    lab.write_bytes(struct.pack(">II", label_magic, count) + bytes(labels[:count]))
    return str(img), str(lab)


def test_load_idx_well_formed(tmp_path):
    pixels = [0] * 6 + [255] * 6  # two 3x2 images
    img, lab = _write_idx_pair(tmp_path, pixels, [1, 0], rows=3, cols=2)
    ds = load_idx(img, lab)
    assert ds.features.shape == (2, 1, 3, 2)
    np.testing.assert_array_equal(ds.features[0], np.zeros((1, 3, 2)))
    np.testing.assert_array_equal(ds.features[1], np.ones((1, 3, 2)))
    np.testing.assert_array_equal(ds.labels, [1, 0])
    assert ds.num_classes == 2


def test_idx_image_header_stops_at_the_first_pixel(tmp_path):
    img, _ = _write_idx_pair(tmp_path, list(range(6)), [0], rows=3, cols=2)
    with open(img, "rb") as f:
        assert idx_image_header(f) == (1, 3, 2)
        assert f.read() == bytes(range(6))


def test_load_idx_count_mismatch(tmp_path):
    pixels = [0] * 12
    img, lab = _write_idx_pair(tmp_path, pixels, [0, 1, 1], rows=3, cols=2)
    with pytest.raises(IdxFormatError, match="images but"):
        load_idx(img, lab)


def test_load_idx_bad_magic(tmp_path):
    img, lab = _write_idx_pair(tmp_path, [0] * 6, [0], rows=3, cols=2,
                               image_magic=0x9999)
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx(img, lab)


def test_load_idx_truncated_body(tmp_path):
    img = tmp_path / "short.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, 2, 3, 2) + bytes(5))
    lab = tmp_path / "labels.idx"
    lab.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
    with pytest.raises(IdxFormatError, match="pixel bytes"):
        load_idx(str(img), str(lab))


def test_load_idx_truncated_header(tmp_path):
    img = tmp_path / "stub.idx"
    img.write_bytes(b"\x00\x00")
    with pytest.raises(IdxFormatError, match="header"):
        load_idx(str(img), str(img))


def test_load_idx_labels_bad_magic(tmp_path):
    img, lab = _write_idx_pair(tmp_path, [0] * 6, [0], rows=3, cols=2,
                               label_magic=0x803)
    with pytest.raises(IdxFormatError, match="labels.idx: bad magic 0x00000803, "
                                             "expected 0x00000801"):
        load_idx(img, lab)


def test_load_idx_labels_truncated_header(tmp_path):
    img, lab = _write_idx_pair(tmp_path, [0] * 6, [0], rows=3, cols=2)
    with open(lab, "r+b") as f:
        f.truncate(7)
    with pytest.raises(IdxFormatError, match="labels.idx: truncated header"):
        load_idx(img, lab)


def test_load_idx_labels_truncated_body(tmp_path):
    img, lab = _write_idx_pair(tmp_path, [0] * 12, [1, 0], rows=3, cols=2)
    with open(lab, "r+b") as f:
        f.truncate(9)
    with pytest.raises(IdxFormatError, match="labels.idx: expected 2 label bytes, got 1"):
        load_idx(img, lab)


# ---------------------------------------------------------------- partitions


def _toy_dataset(n, num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(n, 3)), rng.integers(0, num_classes, size=n), num_classes
    )


def _assert_exact_partition(part: list[np.ndarray], n_samples: int):
    all_idx = np.concatenate(part)
    assert len(all_idx) == n_samples
    assert len(np.unique(all_idx)) == n_samples


def test_partition_iid_equal_chunks():
    part = partition_iid(_toy_dataset(100), 10, seed=0)
    sizes = [len(part[c]) for c in range(10)]
    assert sizes == [10] * 10
    _assert_exact_partition(part, 100)


def test_partition_iid_single_client():
    part = partition_iid(_toy_dataset(37), 1, seed=0)
    assert len(part[0]) == 37


def test_partition_iid_remainder_spread_from_zero():
    part = partition_iid(_toy_dataset(103), 10, seed=1)
    sizes = [len(part[c]) for c in range(10)]
    assert sizes == [11, 11, 11, 10, 10, 10, 10, 10, 10, 10]
    _assert_exact_partition(part, 103)


def test_partition_iid_too_many_clients():
    with pytest.raises(ValueError):
        partition_iid(_toy_dataset(5), 6, seed=0)


def test_partition_iid_deterministic():
    a = partition_iid(_toy_dataset(64), 8, seed=9)
    b = partition_iid(_toy_dataset(64), 8, seed=9)
    for c in range(8):
        np.testing.assert_array_equal(a[c], b[c])


def test_partition_dirichlet_exact_partition_and_nonempty():
    ds = _toy_dataset(400)
    for alpha, seed in [(0.05, 0), (0.1, 1), (0.5, 2), (100.0, 3)]:
        part = partition_dirichlet(ds, 20, alpha=alpha, seed=seed)
        _assert_exact_partition(part, 400)
        assert all(len(part[c]) > 0 for c in range(20))


def test_partition_dirichlet_low_alpha_concentrates_labels():
    ds = _toy_dataset(2000, seed=4)
    part = partition_dirichlet(ds, 20, alpha=0.1, seed=7)
    shares = []
    for c in range(20):
        labels = ds.labels[part[c]]
        counts = np.bincount(labels, minlength=4)
        shares.append(counts.max() / counts.sum())
    assert np.median(shares) > 0.5


def test_partition_dirichlet_high_alpha_close_to_uniform():
    ds = _toy_dataset(2000, seed=4)

    def mean_chisq(alpha, seed):
        part = partition_dirichlet(ds, 20, alpha=alpha, seed=seed)
        overall = np.bincount(ds.labels, minlength=4) / len(ds)
        stats = []
        for c in range(20):
            counts = np.bincount(ds.labels[part[c]], minlength=4)
            expect = counts.sum() * overall
            stats.append(float((((counts - expect) ** 2) / np.maximum(expect, 1e-9)).sum()))
        return np.mean(stats)

    assert mean_chisq(100.0, seed=5) < mean_chisq(0.1, seed=5)


def test_partition_dirichlet_rejects_bad_alpha():
    with pytest.raises(ValueError):
        partition_dirichlet(_toy_dataset(40), 4, alpha=0.0, seed=0)
    with pytest.raises(ValueError):
        partition_dirichlet(_toy_dataset(40), 4, alpha=-1.0, seed=0)


@pytest.mark.parametrize("alpha", [np.inf, np.nan])
def test_partition_dirichlet_rejects_non_finite_alpha(alpha):
    # an infinite alpha draws NaN shares, which cast to a garbage split
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        partition_dirichlet(_toy_dataset(40), 4, alpha=alpha, seed=0)


def test_partition_dirichlet_deterministic():
    ds = _toy_dataset(200)
    a = partition_dirichlet(ds, 10, alpha=0.3, seed=11)
    b = partition_dirichlet(ds, 10, alpha=0.3, seed=11)
    for c in range(10):
        np.testing.assert_array_equal(a[c], b[c])


# ---------------------------------------------------------------- sampling


def test_sample_clients_full_participation():
    sel = sample_clients(20, 20, round_no=3, seed=42)
    np.testing.assert_array_equal(sel, np.arange(20))


def test_sample_clients_deterministic_per_round():
    a = sample_clients(50, 10, round_no=7, seed=1)
    b = sample_clients(50, 10, round_no=7, seed=1)
    np.testing.assert_array_equal(a, b)
    c = sample_clients(50, 10, round_no=8, seed=1)
    assert not np.array_equal(a, c)


def test_sample_clients_without_replacement_sorted():
    sel = sample_clients(30, 12, round_no=0, seed=5)
    assert len(np.unique(sel)) == 12
    assert (np.diff(sel) > 0).all()
    assert sel.min() >= 0 and sel.max() < 30


def test_sample_clients_rejects_oversample():
    with pytest.raises(ValueError):
        sample_clients(5, 6, round_no=0, seed=0)


def test_sample_clients_frequency_balanced():
    n, k, rounds = 20, 5, 1000
    counts = np.zeros(n)
    for r in range(rounds):
        for cid in sample_clients(n, k, round_no=r, seed=2):
            counts[cid] += 1
    expect = rounds * k / n
    sigma = np.sqrt(rounds * (k / n) * (1 - k / n))
    assert np.abs(counts - expect).max() <= 3 * sigma

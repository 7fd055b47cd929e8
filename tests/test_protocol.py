"""Round orchestration: malicious-coalition selection, per-round batching,
fl and splitfed rounds (with and without an active attack), evaluation, and
the end-to-end train loop's determinism."""

import collections
import dataclasses

import numpy as np
import pytest

from splitfedsim import nn, protocol, split
from splitfedsim.aggregation import aggregate
from splitfedsim.attacks import AttackSpec, BenignColumns, craft_round_update
from splitfedsim.config import ExperimentConfig
from splitfedsim.datasets import Dataset, partition_dirichlet, partition_iid
from splitfedsim.models import cnn_spec, mlp_spec
from splitfedsim.protocol import (
    RoundContext,
    _aggregate_round,
    build_attack,
    client_batches,
    evaluate,
    local_epoch,
    pick_malicious,
    round_rule,
    run_fl_round,
    run_splitfed_round,
    train,
)


def _toy_data(n=64, dims=8, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, dims)), rng.integers(0, classes, size=n), classes)


def _no_attack():
    return AttackSpec(kind="none")


# ---------------------------------------------------------------- coalition


def test_pick_malicious_count_and_determinism():
    mal = pick_malicious(20, 0.2, seed=42)
    assert len(mal) == 4
    assert mal == pick_malicious(20, 0.2, seed=42)
    assert mal <= set(range(20))
    assert pick_malicious(20, 0.0, seed=42) == frozenset()
    assert len(pick_malicious(20, 0.02, seed=1)) == 1  # ceil kicks in


def test_pick_malicious_varies_with_seed():
    draws = {pick_malicious(30, 0.2, seed=s) for s in range(8)}
    assert len(draws) > 1


# ---------------------------------------------------------------- batching


def test_client_batches_cover_shard():
    shard = np.arange(50, 61)
    batches = client_batches(shard, batch_size=4, round_no=0, client_id=2, seed=1)
    assert [len(b) for b in batches] == [4, 4, 3]
    np.testing.assert_array_equal(np.sort(np.concatenate(batches)), shard)


def test_client_batches_deterministic_and_distinct():
    shard = np.arange(32)
    a = client_batches(shard, 8, round_no=3, client_id=1, seed=9)
    b = client_batches(shard, 8, round_no=3, client_id=1, seed=9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    c = client_batches(shard, 8, round_no=4, client_id=1, seed=9)
    d = client_batches(shard, 8, round_no=3, client_id=2, seed=9)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))
    assert not all(np.array_equal(x, y) for x, y in zip(a, d))


def test_client_batches_reject_bad_batch_size():
    with pytest.raises(ValueError):
        client_batches(np.arange(4), 0, 0, 0, 0)


def test_round_context_mask_marks_malicious_slots_once():
    ctx = RoundContext(0, np.array([1, 4, 6, 9]), frozenset({4, 9, 11}), lr=0.1)
    np.testing.assert_array_equal(ctx.mask, [False, True, False, True])
    assert ctx.mask is ctx.mask
    assert ctx.m_round == 2
    honest = RoundContext(0, np.array([1, 4]), frozenset(), lr=0.1)
    assert honest.mask.dtype == bool and not honest.mask.any()
    assert honest.m_round == 0


def test_round_rule_trim_follows_round_count():
    assert round_rule("trmean", 3).trim_count == 3
    assert round_rule("trmean", 0).trim_count == 0
    assert round_rule("median", 5).kind == "median"
    assert round_rule("fedavg", 5).kind == "fedavg"


# ---------------------------------------------------------------- local epoch


def test_local_epoch_no_batches_is_identity():
    spec = mlp_spec()
    params = nn.init_params(spec, 0)
    stack = np.stack([params, -params])
    before = stack.copy()
    ds = _toy_data()
    losses = local_epoch(spec, stack, ds, [[], []], lr=0.05)
    np.testing.assert_array_equal(stack, before)
    assert losses == [[], []]
    assert local_epoch(spec, np.empty((0, params.size)), ds, [], lr=0.05) == []


def test_local_epoch_replays_sgd_exactly():
    spec = mlp_spec()
    params = nn.init_params(spec, 1)
    ds = _toy_data(seed=1)
    batches = client_batches(np.arange(len(ds)), 16, 0, 0, seed=2)
    out = params[None].copy()
    loss = local_epoch(spec, out, ds, [batches], lr=0.05)
    manual, losses = params, []
    for idx in batches:
        g, batch_loss = nn.grad(spec, manual, ds.features[idx], ds.labels[idx])
        manual = nn.sgd_step(manual, g, 0.05)
        losses.append(batch_loss)
    np.testing.assert_array_equal(out[0], manual)
    assert loss == [losses]


def test_local_epoch_steps_each_group_with_one_grad_and_one_update(monkeypatch):
    """One nn.grad and one nn.sgd_update call per batch index and batch size,
    each on that group's clients, made through the names on nn: the benchmark
    counts the calls it sees there."""
    spec = mlp_spec()
    ds = _toy_data(n=96, seed=12)
    params = nn.init_params(spec, 12)
    calls = []
    grad, sgd_update = nn.grad, nn.sgd_update

    def counted_grad(spec, stack, batch, labels):
        calls.append(("grad", batch.shape[:2]))
        return grad(spec, stack, batch, labels)

    def counted_update(rows, g, lr):
        calls.append(("update", len(rows)))
        sgd_update(rows, g, lr)

    monkeypatch.setattr(nn, "grad", counted_grad)
    monkeypatch.setattr(nn, "sgd_update", counted_update)
    model = split.split_at(spec, params, split.CutPoint(spec.cut_presets["v2"]))
    shards = _uneven_shards(ds, 8)
    cases = [
        # SplitFed: one client on the model's one-row views, a partial last batch
        (model.row, [client_batches(np.arange(45), 8, 0, 0, seed=2)]),
        # Dirichlet FL: 11 clients, partial groups of several sizes per index
        (np.tile(params, (len(shards), 1)),
         [client_batches(shard, 8, 1, cid, seed=4) for cid, shard in enumerate(shards)]),
    ]
    for stack, batches in cases:
        calls.clear()
        local_epoch(spec, stack, ds, batches, lr=0.05)
        groups = collections.Counter((t, idx.size) for client in batches
                                     for t, idx in enumerate(client))
        grads, updates = calls[0::2], calls[1::2]
        assert [name for name, _ in calls] == ["grad", "update"] * len(groups)
        assert sorted(shape for _, shape in grads) == \
            sorted((clients, size) for (_, size), clients in groups.items())
        assert [rows for _, rows in updates] == [clients for _, (clients, _) in grads]
    assert len(groups) > max(map(len, batches))            # several sizes at one index
    assert any(1 < n < len(shards) for n in groups.values())  # partial groups


def test_local_epoch_rejects_a_stack_that_does_not_match_its_batches():
    spec = mlp_spec()
    params = nn.init_params(spec, 1)
    ds = _toy_data(seed=1)
    for stack, batches in ((params, [[]]), (np.stack([params, params]), [[]])):
        with pytest.raises(nn.ShapeError, match="does not match"):
            local_epoch(spec, stack, ds, batches, lr=0.05)


def test_local_epoch_and_fl_round_leave_global_params_unchanged():
    spec = mlp_spec()
    ds = _toy_data(n=40, seed=2)
    params = nn.init_params(spec, 2)
    before = params.copy()
    for batches in ([], client_batches(np.arange(len(ds)), 16, 0, 0, seed=2)):
        # local_epoch trains the rows of the stack it is given, and nothing else
        matrix = np.zeros((2, params.size))
        matrix[1] = params
        local_epoch(spec, matrix[1:], ds, [batches], lr=0.05)
        np.testing.assert_array_equal(params, before)
        np.testing.assert_array_equal(matrix[0], np.zeros(params.size))
        assert np.array_equal(matrix[1], before) == (not batches)
    # client 1's shard is empty, so its batch list is too
    part = [np.arange(40), np.array([], dtype=int)]
    ctx = RoundContext(0, np.array([0, 1]), frozenset(), lr=0.05)
    new_global, info = run_fl_round(ctx, spec, params, ds, part, 16, 7,
                                    _no_attack(), "fedavg")
    np.testing.assert_array_equal(params, before)
    np.testing.assert_array_equal(info.rows[1], before)
    for arr in (new_global, info.rows):
        assert not np.shares_memory(arr, params)
    assert not np.shares_memory(new_global, info.rows)


def _replay_fl_round(ctx, spec, params, ds, part, batch_size, seed, attack, defense):
    """run_fl_round's result, each client trained on its own by nn.grad and
    nn.sgd_step: (submitted rows, round loss, new global params)."""
    active = attack.kind != "none" and ctx.round_no >= attack.start_round and ctx.m_round
    rows, losses = [], []
    for cid, malicious in zip(ctx.selected.tolist(), ctx.mask):
        if active and malicious:
            continue
        local, batch_losses = params, []
        for idx in client_batches(part[cid], batch_size, ctx.round_no, cid, seed):
            g, loss = nn.grad(spec, local, ds.features[idx], ds.labels[idx])
            local = nn.sgd_step(local, g, ctx.lr)
            batch_losses.append(loss)
        rows.append(local)
        losses.append(float(np.mean(batch_losses)) if batch_losses else 0.0)
    rule = round_rule(defense, ctx.m_round)
    matrix = np.empty((ctx.selected.size, params.size))
    if active:
        vec, _, _ = craft_round_update(attack, np.array(rows), ctx.m_round, rule)
        matrix[ctx.mask] = vec
        matrix[~ctx.mask] = rows
    else:
        matrix[:] = rows
    return matrix, float(np.mean(losses)), aggregate(rule, matrix)


def _uneven_shards(ds, batch_size):
    """Dirichlet shards of ds over 10 clients, and an 11th client with an
    empty shard."""
    shards = partition_dirichlet(ds, 10, 0.05, seed=7) + [np.array([], dtype=np.int64)]
    sizes = [shard.size for shard in shards]
    # the first step has several batch sizes, and a last batch holds one sample
    assert len({min(n, batch_size) for n in sizes if n}) > 2
    assert 1 in [n % batch_size for n in sizes if n > batch_size]
    return shards


@pytest.mark.parametrize("attack,defense", [
    (AttackSpec(kind="none"), "fedavg"),
    (AttackSpec(kind="lie", z=1.0), "trmean"),
    (AttackSpec(kind="agropt", perturb="std"), "median"),
], ids=["none", "lie", "agropt"])
def test_fl_round_on_uneven_shards_is_a_per_client_replay(attack, defense):
    spec = mlp_spec()
    ds = _toy_data(n=96, seed=12)
    params = nn.init_params(spec, 12)
    kept = params.copy()
    for part in (_uneven_shards(ds, 8), partition_iid(ds, 11, seed=5)):
        ctx = RoundContext(1, np.arange(11), frozenset({3, 7}), lr=0.05)
        new_global, info = run_fl_round(ctx, spec, params, ds, part, 8, 4, attack,
                                        defense)
        rows, loss, want = _replay_fl_round(ctx, spec, params, ds, part, 8, 4,
                                            attack, defense)
        assert info.rows.tobytes() == rows.tobytes()
        assert np.float64(info.loss).tobytes() == np.float64(loss).tobytes()
        assert new_global.tobytes() == want.tobytes()
        assert params.tobytes() == kept.tobytes()


# ---------------------------------------------------------------- evaluate


def test_evaluate_perfect_and_constant_predictors():
    spec = nn.ModelSpec(layers=(nn.Dense(2, 2),), input_shape=(2,), num_classes=2)
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 1.0], [-2.0, 1.0]])
    labels = (x[:, 0] < 0).astype(np.int64)
    ds = Dataset(x, labels, 2)
    # weights steer logit 0 up for positive x0 -> classifies by sign
    perfect = np.array([10.0, -10.0, 0.0, 0.0, 0.0, 0.0])
    assert evaluate(spec, perfect, ds) == 1.0
    # zero weights -> constant argmax class 0 -> half of this balanced set
    assert evaluate(spec, np.zeros(6), ds) == 0.5


def test_evaluate_constant_on_balanced_four_classes():
    spec = mlp_spec()
    ds = _toy_data(n=80)
    ds = Dataset(ds.features, np.repeat(np.arange(4), 20), 4)
    assert evaluate(spec, np.zeros(nn.param_count(spec)), ds) == pytest.approx(0.25)


def test_evaluate_rejects_empty():
    class _Hollow:
        features = np.zeros((0, 8))
        labels = np.zeros(0, dtype=int)

        def __len__(self):
            return 0

    spec = mlp_spec()
    with pytest.raises(ValueError, match="empty"):
        evaluate(spec, np.zeros(nn.param_count(spec)), _Hollow())


# ---------------------------------------------------------------- fl rounds


def test_fl_round_single_client_is_centralized_epoch():
    spec = mlp_spec()
    ds = _toy_data(n=48, seed=3)
    part = partition_iid(ds, 1, seed=0)
    params = nn.init_params(spec, 3)
    ctx = RoundContext(0, np.array([0]), frozenset(), lr=0.05)
    new_global, info = run_fl_round(
        ctx, spec, params, ds, part, batch_size=16, seed=7,
        attack=_no_attack(), defense="fedavg",
    )
    batches = client_batches(part[0], 16, 0, 0, seed=7)
    manual = params[None].copy()
    [losses] = local_epoch(spec, manual, ds, [batches], lr=0.05)
    assert info.loss == float(np.mean(losses))
    np.testing.assert_array_equal(new_global, manual[0])
    assert info.rows.shape == (1, nn.param_count(spec))


def test_fl_round_identical_shards_average_to_member():
    spec = mlp_spec()
    ds = _toy_data(n=8, seed=4)
    shared = np.array([3])
    part = [shared, shared]
    params = nn.init_params(spec, 4)
    ctx = RoundContext(0, np.array([0, 1]), frozenset(), lr=0.05)
    new_global, info = run_fl_round(
        ctx, spec, params, ds, part, batch_size=4, seed=7,
        attack=_no_attack(), defense="fedavg",
    )
    np.testing.assert_array_equal(info.rows[0], info.rows[1])
    np.testing.assert_array_equal(new_global, info.rows[0])


def test_fl_round_agropt_fedavg_closed_form():
    spec = mlp_spec()
    ds = _toy_data(n=100, seed=5)
    part = partition_iid(ds, 5, seed=1)
    params = nn.init_params(spec, 5)
    malicious = frozenset({2})
    attack = AttackSpec(kind="agropt", perturb="std", gamma_init=10.0,
                        tau=1e-5, start_round=0)
    ctx = RoundContext(0, np.arange(5), malicious, lr=0.05)
    new_global, info = run_fl_round(
        ctx, spec, params, ds, part, batch_size=32, seed=9,
        attack=attack, defense="fedavg",
    )
    assert info.benign_rows.shape[0] == 4
    cols = BenignColumns(info.benign_rows)
    expect = cols.mean + (1 / 5) * info.gamma * cols.perturbation("std")
    np.testing.assert_allclose(new_global, expect, rtol=1e-9, atol=1e-12)


def test_fl_round_attack_waits_for_start_round():
    spec = mlp_spec()
    ds = _toy_data(n=40, seed=6)
    part = partition_iid(ds, 4, seed=2)
    params = nn.init_params(spec, 6)
    attack = AttackSpec(kind="agropt", start_round=5)
    ctx = RoundContext(2, np.arange(4), frozenset({1}), lr=0.05)
    _, info = run_fl_round(ctx, spec, params, ds, part, 16, 0, attack, "fedavg")
    assert info.gamma is None and info.deviation is None
    # the malicious client trained honestly: its row differs from every other
    assert not np.array_equal(info.rows[1], info.rows[0])


def test_fl_round_malicious_rows_replaced_when_active():
    spec = mlp_spec()
    ds = _toy_data(n=40, seed=6)
    part = partition_iid(ds, 4, seed=2)
    params = nn.init_params(spec, 6)
    attack = AttackSpec(kind="lie", z=1.0, start_round=0)
    malicious = frozenset({0, 3})
    ctx = RoundContext(0, np.arange(4), malicious, lr=0.05)
    _, info = run_fl_round(ctx, spec, params, ds, part, 16, 0, attack, "median")
    np.testing.assert_array_equal(info.rows[0], info.rows[3])
    assert info.benign_rows.shape[0] == 2
    from splitfedsim.attacks import lie_update

    np.testing.assert_array_equal(info.rows[0], lie_update(info.benign_rows, 1.0))


def test_fl_round_all_malicious_active_keeps_global():
    spec = mlp_spec()
    ds = _toy_data(n=40, seed=6)
    part = partition_iid(ds, 4, seed=2)
    params = nn.init_params(spec, 6)
    ctx = RoundContext(3, np.array([1, 2]), frozenset({1, 2}), lr=0.05)
    for attack in (AttackSpec(kind="agropt"), AttackSpec(kind="lie")):
        new_global, info = run_fl_round(ctx, spec, params, ds, part, 16, 0, attack, "median")
        np.testing.assert_array_equal(new_global, params)
        assert info.gamma is None and info.deviation is None
        assert info.rows.shape == (0, params.size)


def test_fl_round_all_malicious_inactive_trains_honestly():
    spec = mlp_spec()
    ds = _toy_data(n=40, seed=6)
    part = partition_iid(ds, 4, seed=2)
    params = nn.init_params(spec, 6)
    ctx = RoundContext(3, np.array([1, 2]), frozenset({1, 2}), lr=0.05)
    for attack in (_no_attack(), AttackSpec(kind="agropt", start_round=5)):
        new_global, info = run_fl_round(ctx, spec, params, ds, part, 16, 0, attack, "median")
        assert info.rows.shape == (2, params.size)
        assert info.benign_rows is None
        np.testing.assert_array_equal(new_global, (info.rows[0] + info.rows[1]) / 2.0)


# ---------------------------------------------------------------- round aggregate


def _tied_rows(rng, n, nonfinite):
    """n benign rows whose columns tie with each other and with what the
    attacks craft from them: reals, small integers, +0.0/-0.0 mixes and
    all-zero columns of either sign; with nonfinite, columns holding +inf,
    -inf and NaN as well."""
    cols = [rng.normal(size=n), rng.normal(size=n),
            rng.integers(-2, 3, size=n).astype(float),
            np.full(n, rng.integers(-2, 3) * 1.0),
            rng.choice([0.0, -0.0], size=n), rng.choice([0.0, -0.0], size=n),
            np.full(n, 0.0), np.full(n, -0.0),
            np.where(rng.random(n) < 0.5, rng.choice([0.0, -0.0], size=n), 1.0)]
    if nonfinite:
        for special in (np.inf, -np.inf, np.nan):
            col = rng.choice([0.0, -0.0, 1.0], size=n)
            col[rng.integers(0, n)] = special
            cols.append(col)
        cols.append(np.where(rng.random(n) < 0.5, np.inf, -np.inf))
    return np.stack(cols, axis=1)


def _crafted_like(rng, benign):
    """Crafted rows that tie with benign values or with either zero, or are
    +-inf or NaN, column by column."""
    n, d = benign.shape
    picks = benign[rng.integers(0, n, size=d), np.arange(d)]
    specials = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=d)
    return [picks, specials, np.where(rng.random(d) < 0.5, picks, specials)]


# a NaN whose payload no arithmetic here produces, so a stale slot shows
_STALE_BITS = 0x7FF8_0000_DEAD_BEEF
_STALE = np.array([_STALE_BITS], dtype=np.uint64).view(np.float64)[0]


def _attacked_rounds(rng, nonfinite):
    """(ctx, update matrix) for n benign and m = 1..n-1 malicious clients,
    so n + m takes odd and even values, with the malicious slots spread
    among the benign ones. The malicious slots hold a stale NaN, which the
    round never receives: it gets the benign rows alone, and the submitted
    matrix it builds must hold the crafted row in those slots."""
    for n in range(2, 8):
        for m in range(1, n):
            ids = np.arange(n + m)
            malicious = frozenset(int(c) for c in rng.choice(ids, size=m, replace=False))
            ctx = RoundContext(0, ids, malicious, lr=0.1)
            benign = _tied_rows(rng, n, nonfinite)
            matrix = np.full((n + m, benign.shape[1]), _STALE)
            matrix[~ctx.mask] = benign
            yield ctx, matrix


def _assert_round_is_the_stacked_aggregate(ctx, matrix, attack, defense):
    benign = matrix[~ctx.mask]
    current = np.zeros(matrix.shape[1])
    new, info = _aggregate_round(ctx, benign.copy(), current, [], attack, defense)
    assert info.benign_rows.tobytes() == benign.tobytes()
    assert info.rows[~ctx.mask].tobytes() == benign.tobytes()
    crafted = info.rows[ctx.mask]
    assert crafted.tobytes() == np.tile(crafted[0], (ctx.m_round, 1)).tobytes()
    assert not (info.rows.view(np.uint64) == _STALE_BITS).any()
    want = aggregate(round_rule(defense, ctx.m_round), info.rows)
    differ = [j for j in range(want.size) if new[j:j + 1].tobytes() != want[j:j + 1].tobytes()]
    assert not differ, (defense, ctx.m_round, differ, new[differ], want[differ])


@pytest.mark.parametrize("defense", ["fedavg", "trmean", "median"])
def test_attacked_round_is_aggregate_of_its_rows_byte_for_byte(defense):
    rng = np.random.default_rng(21)
    attacks = [AttackSpec(kind="lie", z=1.5), AttackSpec(kind="lie", z=0.0)]
    attacks += [AttackSpec(kind="agropt", perturb=p) for p in ("std", "unit", "sign")]
    with np.errstate(invalid="ignore"):
        for ctx, matrix in _attacked_rounds(rng, nonfinite=False):
            for attack in attacks:
                _assert_round_is_the_stacked_aggregate(ctx, matrix, attack, defense)
        # a non-finite benign value makes every agropt deviation NaN
        for ctx, matrix in _attacked_rounds(rng, nonfinite=True):
            _assert_round_is_the_stacked_aggregate(ctx, matrix, attacks[0], defense)


@pytest.mark.parametrize("defense", ["fedavg", "trmean", "median"])
def test_any_crafted_row_aggregates_byte_for_byte(defense, monkeypatch):
    rng = np.random.default_rng(22)
    with np.errstate(invalid="ignore"):
        for ctx, matrix in _attacked_rounds(rng, nonfinite=True):
            for crafted in _crafted_like(rng, matrix[~ctx.mask]):
                monkeypatch.setattr(protocol, "craft_round_update",
                                    lambda *args, vec=crafted: (vec, None, None))
                _assert_round_is_the_stacked_aggregate(
                    ctx, matrix, AttackSpec(kind="lie"), defense)


# ---------------------------------------------------------------- splitfed rounds


def test_splitfed_round_single_client_is_centralized():
    spec = mlp_spec()
    ds = _toy_data(n=48, seed=8)
    part = partition_iid(ds, 1, seed=0)
    params = nn.init_params(spec, 8)
    for cut_name in ("v1", "v2", "v3"):
        model = split.split_at(spec, params, split.CutPoint(spec.cut_presets[cut_name]))
        ctx = RoundContext(0, np.array([0]), frozenset(), lr=0.05)
        info = run_splitfed_round(
            ctx, model, ds, part, batch_size=16, seed=11,
            attack=_no_attack(), defense="fedavg",
        )
        manual = params
        for idx in client_batches(part[0], 16, 0, 0, seed=11):
            g, _ = nn.grad(spec, manual, ds.features[idx], ds.labels[idx])
            manual = nn.sgd_step(manual, g, 0.05)
        np.testing.assert_array_equal(model.params, manual)
        np.testing.assert_array_equal(info.rows[0], model.client_params)


def test_splitfed_attack_space_tracks_cut():
    spec = mlp_spec()
    ds = _toy_data(n=60, seed=9)
    part = partition_iid(ds, 5, seed=3)
    params = nn.init_params(spec, 9)
    attack = AttackSpec(kind="agropt", start_round=0)
    expected_dims = {"v1": 288, "v2": 1344, "v3": 1872}
    for cut_name, dim in expected_dims.items():
        model = split.split_at(spec, params, split.CutPoint(spec.cut_presets[cut_name]))
        ctx = RoundContext(0, np.arange(5), frozenset({4}), lr=0.05)
        info = run_splitfed_round(ctx, model, ds, part, 16, 13, attack, "median")
        assert info.rows.shape == (5, dim)
        assert info.gamma is not None


def test_splitfed_malicious_training_still_feeds_server():
    """In the split protocol the malicious clients run the forward/backward
    protocol like everyone else (the server half sees their batches); only
    their submitted client-half update is forged."""
    spec = mlp_spec()
    ds = _toy_data(n=40, seed=10)
    part = partition_iid(ds, 4, seed=4)
    params = nn.init_params(spec, 10)
    model_attacked = split.split_at(spec, params, split.CutPoint(4))
    model_clean = split.split_at(spec, params, split.CutPoint(4))
    ctx = RoundContext(0, np.arange(4), frozenset({1}), lr=0.05)
    attacked = run_splitfed_round(ctx, model_attacked, ds, part, 16, 5,
                                  AttackSpec(kind="lie", start_round=0), "median")
    ctx2 = RoundContext(0, np.arange(4), frozenset({1}), lr=0.05)
    clean = run_splitfed_round(ctx2, model_clean, ds, part, 16, 5, _no_attack(), "median")
    np.testing.assert_array_equal(model_attacked.server_params, model_clean.server_params)
    # each benign client's half sits in its own slot of the attacker's matrix
    assert attacked.benign_rows.tobytes() == clean.rows[~ctx.mask].tobytes()
    # only the forged submission differs, so only the client halves do
    assert not np.array_equal(model_attacked.client_params, model_clean.client_params)


def test_splitfed_round_all_malicious_active_keeps_client_global():
    spec = mlp_spec()
    ds = _toy_data(n=40, seed=10)
    part = partition_iid(ds, 4, seed=4)
    params = nn.init_params(spec, 10)
    ctx = RoundContext(0, np.array([0, 3]), frozenset({0, 3}), lr=0.05)
    for attack in (AttackSpec(kind="agropt"), AttackSpec(kind="lie")):
        model = split.split_at(spec, params, split.CutPoint(4))
        client_global = model.client_params.copy()
        server_before = model.server_params.copy()
        info = run_splitfed_round(ctx, model, ds, part, 16, 5, attack, "trmean")
        np.testing.assert_array_equal(model.client_params, client_global)
        assert info.gamma is None and info.deviation is None
        assert info.rows.shape == (0, client_global.size)
        # the malicious clients still ran the split protocol with the server
        assert not np.array_equal(model.server_params, server_before)


def test_splitfed_round_all_malicious_inactive_aggregates_honest_rows():
    spec = mlp_spec()
    ds = _toy_data(n=40, seed=10)
    part = partition_iid(ds, 4, seed=4)
    params = nn.init_params(spec, 10)
    model = split.split_at(spec, params, split.CutPoint(4))
    ctx = RoundContext(0, np.array([0, 3]), frozenset({0, 3}), lr=0.05)
    info = run_splitfed_round(ctx, model, ds, part, 16, 5, _no_attack(), "median")
    assert info.rows.shape == (2, model.client_params.size)
    np.testing.assert_array_equal(model.client_params,
                                  (info.rows[0] + info.rows[1]) / 2.0)


def test_splitfed_round_does_not_alias_its_inputs_or_rows():
    spec = mlp_spec()
    ds = _toy_data(n=60, seed=9)
    part = partition_iid(ds, 5, seed=3)
    params = nn.init_params(spec, 9)
    before = params.copy()
    for attack in (_no_attack(), AttackSpec(kind="agropt", start_round=0)):
        model = split.split_at(spec, params, split.CutPoint(spec.cut_presets["v2"]))
        client_half = model.client_params
        ctx = RoundContext(0, np.arange(5), frozenset({4}), lr=0.05)
        info = run_splitfed_round(ctx, model, ds, part, 16, 13, attack, "median")
        np.testing.assert_array_equal(params, before)
        # the aggregate lands in the model's own fixed view of its buffer
        assert model.client_params is client_half
        assert np.shares_memory(model.client_params, model.params)
        np.testing.assert_array_equal(
            model.client_params, aggregate(round_rule("median", 1), info.rows))
        rows = info.rows
        for i in range(len(rows)):
            assert not np.shares_memory(rows[i], model.params)
            assert not np.shares_memory(rows[i], params)
            for j in range(i + 1, len(rows)):
                assert not np.shares_memory(rows[i], rows[j])
        if info.benign_rows is not None:
            assert not np.shares_memory(info.benign_rows, rows)
            assert not np.shares_memory(info.benign_rows, model.params)


def _replay_splitfed_round(ctx, model, ds, part, batch_size, seed, attack, defense):
    """run_splitfed_round's result, each client trained through the split
    handoff, split.split_train_step, on a copy of model: (submitted rows,
    round loss, the copy's parameters after the round)."""
    twin = split.split_at(model.spec, model.params, model.cut)
    start = twin.client_params.copy()
    active = attack.kind != "none" and ctx.round_no >= attack.start_round and ctx.m_round
    rows, losses = [], []
    for cid, malicious in zip(ctx.selected.tolist(), ctx.mask):
        twin.client_params[...] = start
        for idx in client_batches(part[cid], batch_size, ctx.round_no, cid, seed):
            losses.append(split.split_train_step(twin, ds.features[idx], ds.labels[idx],
                                                 ctx.lr))
        if not (active and malicious):
            rows.append(twin.client_params.copy())
    loss = float(np.mean(losses)) if losses else 0.0
    if active and ctx.mask.all():
        twin.client_params[...] = start
        return np.empty((0, start.size)), loss, twin.params
    rule = round_rule(defense, ctx.m_round)
    matrix = np.empty((ctx.selected.size, start.size))
    if active:
        vec, _, _ = craft_round_update(attack, np.array(rows), ctx.m_round, rule)
        matrix[ctx.mask] = vec
        matrix[~ctx.mask] = rows
    else:
        matrix[:] = rows
    twin.client_params[...] = aggregate(rule, matrix)
    return matrix, loss, twin.params


_SPLIT_ROUNDS = {
    "honest": (np.arange(11), frozenset({3, 7}), AttackSpec(kind="none"), "fedavg"),
    "attacked": (np.arange(11), frozenset({3, 7}),
                 AttackSpec(kind="agropt", perturb="std", start_round=0), "trmean"),
    "all-malicious": (np.array([3, 7]), frozenset({3, 7}),
                      AttackSpec(kind="lie", z=1.0, start_round=0), "median"),
}


@pytest.mark.parametrize("build", [mlp_spec, cnn_spec], ids=["mlp", "cnn"])
@pytest.mark.parametrize("case", sorted(_SPLIT_ROUNDS))
def test_splitfed_round_is_the_split_handoff_byte_for_byte(build, case):
    """The round trains each client's whole model through local_epoch; the
    split steps it replaced are the oracle, at every cut."""
    selected, malicious, attack, defense = _SPLIT_ROUNDS[case]
    spec = build()
    labels = _toy_data(n=96, classes=spec.num_classes, seed=12).labels
    features = np.random.default_rng(21).normal(size=(96,) + spec.input_shape)
    ds = Dataset(features, labels, spec.num_classes)
    part = _uneven_shards(ds, 8)   # uneven batch counts, several batch sizes
    params = nn.init_params(spec, 21)
    for cut in spec.cut_presets.values():
        model = split.split_at(spec, params, split.CutPoint(cut))
        ctx = RoundContext(1, selected, malicious, lr=0.05)
        rows, loss, want = _replay_splitfed_round(ctx, model, ds, part, 8, 4, attack,
                                                  defense)
        info = run_splitfed_round(ctx, model, ds, part, 8, 4, attack, defense)
        assert info.rows.tobytes() == rows.tobytes()
        assert np.float64(info.loss).tobytes() == np.float64(loss).tobytes()
        assert model.params.tobytes() == want.tobytes()
        assert (info.gamma is None) == (case != "attacked")


def test_splitfed_train_runs_without_the_split_steps(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the round loop ran a split step")

    for name in ("client_forward", "server_step", "client_backward", "split_train_step"):
        monkeypatch.setattr(split, name, refuse)
    config = _tiny_config(mode="splitfed", attack="agropt", attack_start_round=1,
                          rounds=2)
    records = train(config)
    assert [r.round_no for r in records] == [0, 1]
    assert records[1].gamma is not None


# ---------------------------------------------------------------- train loop


def _tiny_config(**overrides):
    base = ExperimentConfig(
        seed=1,
        blob_per_class=50,
        n_clients=4,
        clients_per_round=4,
        malicious_fraction=0.25,
        rounds=6,
        batch_size=32,
        partition="iid",
        defense="fedavg",
    )
    return dataclasses.replace(base, **overrides)


def test_train_zero_rounds_empty_history():
    assert train(_tiny_config(rounds=0)) == []


def test_train_deterministic():
    cfg = _tiny_config(attack="agropt")
    a = train(cfg)
    b = train(cfg)
    assert [r.test_accuracy for r in a] == [r.test_accuracy for r in b]
    assert [r.loss for r in a] == [r.loss for r in b]
    assert [r.gamma for r in a] == [r.gamma for r in b]


def test_train_eval_every_schedule():
    records = train(_tiny_config(rounds=5, eval_every=2))
    assert [r.round_no for r in records] == [1, 3, 4]


def test_train_attack_start_round_gates_gamma():
    cfg = _tiny_config(attack="agropt", partition="dirichlet", dirichlet_alpha=0.5,
                       rounds=8)
    records = train(cfg)
    starts = cfg.resolved_attack_start()
    assert starts == 2
    for rec in records:
        if rec.round_no < starts:
            assert rec.gamma is None
        else:
            assert rec.gamma is not None


def test_train_fl_and_splitfed_modes_run():
    for mode in ("fl", "splitfed"):
        records = train(_tiny_config(mode=mode, rounds=3))
        assert len(records) == 3
        assert all(0.0 <= r.test_accuracy <= 1.0 for r in records)


def test_build_attack_mirrors_config():
    cfg = _tiny_config(attack="agropt", attack_start_round=4)
    spec = build_attack(cfg)
    assert spec.kind == "agropt"
    assert spec.perturb == "std"
    assert spec.start_round == 4
    assert build_attack(_tiny_config()).kind == "none"


def test_attack_config_map_covers_attack_spec_and_config():
    """build_attack reads one map of config field to AttackSpec field: with
    start_round, its values are exactly AttackSpec's fields, and its keys are
    config fields."""
    mapping = protocol._ATTACK_CONFIG
    spec_fields = {f.name for f in dataclasses.fields(AttackSpec)}
    assert set(mapping.values()) | {"start_round"} == spec_fields
    assert len(set(mapping.values())) == len(mapping)
    config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(mapping) | {"attack_start_round"} <= config_fields


def test_build_attack_reads_exactly_the_fields_a_fork_may_change():
    """Changing one config field changes build_attack's spec exactly when
    Run.fork lets a fork's config differ in that field. The start is pinned,
    so it does not depend on rounds or partition."""
    base = _tiny_config(attack="lie", attack_start_round=2)
    others = {"attack": "agropt", "lie_z": 0.5, "agropt_perturb": "unit",
              "agropt_gamma_init": 20.0, "agropt_tau": 1e-2, "attack_start_round": 3}
    for f in dataclasses.fields(ExperimentConfig):
        # a field build_attack must not read gets a value nothing could use
        changed = dataclasses.replace(base, **{f.name: others.get(f.name, object())})
        assert (build_attack(changed) != build_attack(base)) == (
            f.name in protocol._FORK_EXEMPT), f.name


# ---------------------------------------------------------------- forks


def _bits(records):
    """Every field but wall_ms, floats by float.hex."""
    def h(v):
        return None if v is None else v.hex()
    return [(r.round_no, h(r.test_accuracy), h(r.loss), h(r.gamma), h(r.deviation))
            for r in records]


def _fork_config(**overrides):
    return _tiny_config(**{"rounds": 8, "partition": "dirichlet", "dirichlet_alpha": 0.5,
                           "defense": "trmean", **overrides})


@pytest.mark.parametrize("start", [-1, 0, 3, 8, 12])   # auto: 8 // 4 = 2
@pytest.mark.parametrize("attack", ["lie", "agropt"])
@pytest.mark.parametrize("mode", ["fl", "splitfed"])
def test_a_forked_run_trains_the_bits_of_a_fresh_one(mode, attack, start):
    """A reference run forked at the attack's first round (at most the last
    round) and trained on gives the fresh run's records and final
    parameters, and the reference's own run is not disturbed."""
    config = _fork_config(mode=mode, attack=attack, attack_start_round=start)
    at = min(config.resolved_attack_start(), config.rounds)
    reference = protocol.Run(dataclasses.replace(config, attack="none"))
    reference.fork_plan = (at, [config])
    ref_records = train(reference)
    fork, = reference.forks
    records = train(fork)
    fresh = protocol.Run(config)
    assert _bits(records) == _bits(train(fresh))
    assert fork.params.tobytes() == fresh.params.tobytes()
    # the rounds before the fork are the reference's, its timings included
    assert [r.wall_ms for r in records[:at]] == [r.wall_ms for r in ref_records[:at]]
    assert not any(mine is theirs for mine, theirs in zip(records, ref_records))
    alone = protocol.Run(reference.config)
    assert _bits(ref_records) == _bits(train(alone))
    assert reference.params.tobytes() == alone.params.tobytes()


@pytest.mark.parametrize("change", [{"seed": 2}, {"cut": "v3"}, {"rounds": 7},
                                    {"malicious_fraction": 0.5}])
def test_fork_refuses_a_config_that_differs_outside_the_attack(change):
    run = protocol.Run(_fork_config(mode="splitfed"))
    other = dataclasses.replace(run.config, attack="lie", **change)
    with pytest.raises(ValueError, match=f"cannot fork: {next(iter(change))} differ"):
        run.fork(other)


def test_fork_refuses_a_round_past_either_attack_start():
    config = _fork_config(rounds=4)
    run = protocol.Run(config)
    run.step()
    run.step()
    assert run.fork(dataclasses.replace(config, attack="lie", attack_start_round=2)).rounds_done == 2
    with pytest.raises(ValueError, match="attack = lie starts at round 1"):
        run.fork(dataclasses.replace(config, attack="lie", attack_start_round=1))
    attacked = protocol.Run(dataclasses.replace(config, attack="agropt", attack_start_round=1))
    attacked.step()
    attacked.step()   # round 1 was attacked
    with pytest.raises(ValueError, match="attack = agropt starts at round 1"):
        attacked.fork(config)

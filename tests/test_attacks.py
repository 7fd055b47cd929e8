"""Update-poisoning attacks: crafted-vector arithmetic, the deviation
objective, the halving search for the scale factor gamma against each
aggregation rule (checked against a dense grid oracle, and bit for bit
against the search that sorts the stacked rows at every gamma), and the
mean-shift baseline."""

import numpy as np
import pytest

from splitfedsim.aggregation import AggregationRule, aggregate
from splitfedsim.attacks import (
    AttackSpec,
    BenignColumns,
    GammaSearchResult,
    _CraftedStack,
    _deviation,
    agr_deviation,
    craft_round_update,
    gamma_search,
    lie_update,
)


def _col(*vals):
    return np.array(vals, dtype=np.float64).reshape(-1, 1)


# ---------------------------------------------------------------- building blocks


def test_benign_columns_two_rows():
    cols = BenignColumns(np.array([[0.0, 2.0], [2.0, 0.0]]))
    np.testing.assert_array_equal(cols.mean, [1.0, 1.0])
    np.testing.assert_array_equal(cols.std, [1.0, 1.0])


def test_benign_columns_single_row_zero_std():
    cols = BenignColumns(np.array([[7.0, -3.0]]))
    np.testing.assert_array_equal(cols.mean, [7.0, -3.0])
    np.testing.assert_array_equal(cols.std, [0.0, 0.0])


def test_benign_columns_population_std():
    cols = BenignColumns(_col(0.0, 1.0, 2.0))
    np.testing.assert_array_equal(cols.mean, [1.0])
    np.testing.assert_allclose(cols.std, [np.sqrt(2.0 / 3.0)], rtol=1e-15)


def test_benign_columns_match_numpy_population():
    rng = np.random.default_rng(2)
    u = rng.normal(size=(9, 6))
    cols = BenignColumns(u)
    np.testing.assert_allclose(cols.mean, u.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(cols.std, u.std(axis=0), rtol=1e-9)


def test_benign_mean_two_rows():
    np.testing.assert_array_equal(BenignColumns(_col(1.0, 2.0)).mean, [1.5])


def test_benign_mean_single_row():
    row = np.array([[3.0, -1.0, 0.5]])
    np.testing.assert_array_equal(BenignColumns(row).mean, row[0])


def test_benign_mean_shares_fed_avg_definition():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(6, 5))
    np.testing.assert_array_equal(BenignColumns(u).mean,
                                  aggregate(AggregationRule("fedavg"), u))


def test_benign_mean_rejects_empty():
    with pytest.raises(ValueError):
        BenignColumns(np.empty((0, 3)))


def test_perturbation_std_identical_rows_is_zero():
    u = np.tile([1.0, -2.0], (4, 1))
    np.testing.assert_array_equal(BenignColumns(u).perturbation("std"), [0.0, 0.0])


def test_perturbation_std_hand_value():
    u = np.array([[0.0, 2.0], [2.0, 0.0]])
    np.testing.assert_array_equal(BenignColumns(u).perturbation("std"), [-1.0, -1.0])


def test_perturbation_sign_hand_value():
    u = np.array([[3.0, -2.0]])
    np.testing.assert_array_equal(BenignColumns(u).perturbation("sign"), [-1.0, 1.0])


def test_perturbation_unit_is_negative_normalized_mean():
    u = np.array([[3.0, 4.0], [3.0, 4.0]])
    np.testing.assert_allclose(BenignColumns(u).perturbation("unit"), [-0.6, -0.8],
                               rtol=1e-15)


def test_perturbation_unit_rejects_zero_mean():
    with pytest.raises(ValueError):
        BenignColumns(np.array([[1.0, -1.0], [-1.0, 1.0]])).perturbation("unit")


def test_perturbation_rejects_unknown_kind():
    with pytest.raises(ValueError):
        BenignColumns(np.ones((2, 2))).perturbation("cosine")


# ---------------------------------------------------------------- deviation


def test_deviation_zero_at_gamma_zero_for_symmetric_median():
    benign = _col(-1.0, 0.0, 1.0)  # mean 0 is also the median
    assert agr_deviation(benign, 1, "std", 0.0, AggregationRule("median")) == pytest.approx(0.0, abs=1e-12)


def test_deviation_median_two_benign_saturates():
    benign = _col(1.0, 2.0)
    rule = AggregationRule("median")
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 5.0):
        expect = 0.5 * min(gamma, 1.0)
        assert agr_deviation(benign, 1, "std", gamma, rule) == pytest.approx(expect, abs=1e-12)


def test_deviation_trimmed_mean_four_benign_plateau():
    benign = _col(0.0, 1.0, 2.0, 3.0)
    rule = AggregationRule("trmean", trim_count=1)
    gammas = np.arange(0.0, 10.0, 1e-3)
    devs = np.array([agr_deviation(benign, 1, "std", g, rule) for g in gammas])
    assert devs.max() == pytest.approx(0.5, abs=1e-9)
    # the plateau is reached a little beyond gamma = 1.34 and holds after
    assert devs[gammas >= 1.35].min() == pytest.approx(0.5, abs=1e-9)
    assert devs[gammas <= 1.30].max() < 0.5


def test_deviation_matches_direct_norm():
    rng = np.random.default_rng(2)
    benign = rng.normal(size=(5, 3))
    rule = AggregationRule("median")
    gamma = 1.7
    cols = BenignColumns(benign)
    crafted = cols.mean + gamma * cols.perturbation("std")
    stacked = np.vstack([benign, np.tile(crafted, (2, 1))])
    expect = np.linalg.norm(cols.mean - aggregate(rule, stacked))
    assert agr_deviation(benign, 2, "std", gamma, rule) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------- gamma search


def test_gamma_search_degenerate_identical_rows():
    benign = np.tile([1.0, 2.0], (3, 1))
    res = gamma_search(benign, 1, "std", AggregationRule("median"), 10.0, 1e-5)
    assert res.deviation == pytest.approx(0.0, abs=1e-12)


def test_gamma_search_median_two_benign_hits_plateau():
    res = gamma_search(_col(1.0, 2.0), 1, "std", AggregationRule("median"), 10.0, 1e-5)
    assert res.deviation >= 0.99 * 0.5
    assert res.gamma >= 1.0  # anywhere on the plateau keeps max deviation


def test_gamma_search_prefers_largest_gamma_on_plateau():
    # fedavg deviation grows linearly in gamma, so the search should run to
    # the top of its range
    benign = _col(0.0, 1.0, 2.0)
    res = gamma_search(benign, 1, "std", AggregationRule("fedavg"), 10.0, 1e-5)
    assert res.gamma > 10.0 - 1e-3


def test_gamma_search_deterministic():
    rng = np.random.default_rng(3)
    benign = rng.normal(size=(4, 3))
    rule = AggregationRule("trmean", trim_count=1)
    a = gamma_search(benign, 2, "std", rule, 10.0, 1e-5)
    b = gamma_search(benign, 2, "std", rule, 10.0, 1e-5)
    assert a == b


def test_gamma_search_requires_benign_rows():
    with pytest.raises(ValueError):
        gamma_search(np.empty((0, 2)), 1, "std", AggregationRule("median"), 10.0, 1e-5)


def test_gamma_search_near_grid_oracle_random_instances(grid_deviations):
    rng = np.random.default_rng(0)
    grid = np.arange(0.0, 10.0 + 2e-3, 2e-3)
    for instance in range(20):
        n = int(rng.integers(4, 10))
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        benign = rng.normal(size=(n, d))
        for rule_kind in ("trmean", "median"):
            trim = m if rule_kind == "trmean" else 0
            if n + m <= 2 * trim:
                trim = (n + m - 1) // 2
            rule = AggregationRule(rule_kind, trim_count=trim)
            res = gamma_search(benign, m, "std", rule, 10.0, 1e-5)
            devs = grid_deviations(benign, m, "std", rule, grid)
            if instance == 0:
                each = [agr_deviation(benign, m, "std", g, rule) for g in grid]
                assert np.array(devs).tobytes() == np.array(each).tobytes()
            assert res.deviation >= 0.99 * max(devs)
            # the search never invents deviation beyond the true curve
            direct = agr_deviation(benign, m, "std", res.gamma, rule)
            assert res.deviation <= direct * (1 + 1e-9) + 1e-12


def test_gamma_search_reports_plateau_not_mean_append_artifact():
    # On tiny samples, merely appending a copy of the benign mean (gamma=0)
    # can drag the median away from that mean more than any scaled
    # perturbation can.  The climb-from-init search intentionally tracks the
    # large-gamma plateau, so on such instances it reports the plateau
    # deviation, not the gamma=0 artifact.  Pin that behaviour.
    # benign mean is 1.75; appending it gives median (1.75 + 3) / 2 = 2.375,
    # while an extreme low row gives the plateau median (0 + 3) / 2 = 1.5.
    benign = np.array([[-2.0], [0.0], [3.0], [3.5], [4.25]])
    rule = AggregationRule("median")
    dev_at_zero = agr_deviation(benign, 1, "std", 0.0, rule)
    assert dev_at_zero == pytest.approx(0.625)
    res = gamma_search(benign, 1, "std", rule, 10.0, 1e-5)
    assert res.deviation == pytest.approx(0.25)  # plateau |1.5 - 1.75|
    assert res.gamma > 19.0  # every probe succeeds, so the search climbs
    assert res.deviation < dev_at_zero
    # containment still holds: reported deviation matches the true curve
    direct = agr_deviation(benign, 1, "std", res.gamma, rule)
    assert res.deviation <= direct * (1 + 1e-9) + 1e-12


def test_fedavg_deviation_closed_form():
    rng = np.random.default_rng(5)
    rule = AggregationRule("fedavg")
    for _ in range(20):
        n_benign = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 6))
        benign = rng.normal(size=(n_benign, d))
        gamma = float(rng.uniform(0.1, 9.0))
        gp = BenignColumns(benign).perturbation("std")
        expect = (m / (n_benign + m)) * gamma * np.linalg.norm(gp)
        got = agr_deviation(benign, m, "std", gamma, rule)
        assert got == pytest.approx(expect, rel=1e-9)


# ---------------------------------------------------------------- sort-once search


def _awkward_rows(rng, n, d):
    """Benign rows whose columns hold ties, repeats, signed zeros, infinities
    and NaNs next to ordinary values. Column 0 is constant, 1 has heavy ties,
    2 is all signed zeros, 3 is finite; the rest get scattered specials."""
    u = rng.normal(size=(n, d))
    u[:, 0] = 0.5
    u[:, 1] = rng.integers(-2, 3, size=n)
    u[:, 2] = rng.choice([0.0, -0.0], size=n)
    specials = np.array([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan])
    mask = rng.random((n, d)) < 0.2
    mask[:, :4] = False
    u[mask] = rng.choice(specials, size=int(mask.sum()))
    return u


def _awkward_crafted(rng, benign):
    """Crafted rows that tie with benign values, sit on signed zeros and
    infinities, are NaN, or fall anywhere in between."""
    n, d = benign.shape
    picks = benign[rng.integers(0, n, size=d), np.arange(d)]
    specials = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=d)
    return [picks, specials, rng.normal(size=d) * 2.0,
            np.where(rng.random(d) < 0.5, picks, specials)]


def _rules(total, m):
    yield AggregationRule("fedavg")
    yield AggregationRule("median")
    for trim in sorted({0, min(m, (total - 1) // 2), (total - 1) // 2}):
        yield AggregationRule("trmean", trim_count=trim)


def _same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


def test_crafted_stack_matches_sorting_the_stack():
    rng = np.random.default_rng(11)
    with np.errstate(invalid="ignore"):
        for n in range(1, 9):
            for m in range(1, n + 1):
                benign = _awkward_rows(rng, n, 14)
                srt = np.sort(benign, axis=0)
                gb = BenignColumns(benign).mean
                for crafted in _awkward_crafted(rng, benign):
                    stacked = np.vstack([benign, np.tile(crafted, (m, 1))])
                    for rule in _rules(n + m, m):
                        got = _CraftedStack(srt, m, rule).aggregate(crafted)
                        want = aggregate(rule, stacked)
                        np.testing.assert_array_equal(got, want)
                        assert _same_float(float(np.linalg.norm(gb - got)),
                                           float(np.linalg.norm(gb - want)))


def test_crafted_stack_deviation_equals_agr_deviation():
    rng = np.random.default_rng(12)
    with np.errstate(invalid="ignore"):
        for n in range(1, 9):
            for m in range(1, n + 1):
                for benign in (rng.normal(size=(n, 6)), _awkward_rows(rng, n, 6)):
                    cols = BenignColumns(benign)
                    gb, gp = cols.mean, cols.perturbation("std")
                    srt = np.sort(benign, axis=0)
                    for rule in _rules(n + m, m):
                        stack = _CraftedStack(srt, m, rule)
                        for gamma in (0.0, 0.3, 1.0, float(rng.uniform(0, 20))):
                            got = float(np.linalg.norm(gb - stack.aggregate(gb + gamma * gp)))
                            assert _same_float(got, agr_deviation(benign, m, "std", gamma, rule))


def test_crafted_stack_rejects_overtrimmed_stack():
    with pytest.raises(ValueError, match="trimmed mean needs"):
        _CraftedStack(np.zeros((2, 3)), 1, AggregationRule("trmean", trim_count=2))
    with pytest.raises(ValueError, match="trimmed mean needs"):
        gamma_search(np.zeros((2, 3)), 1, "std", AggregationRule("trmean", trim_count=2))


def _gamma_search_by_sorting(benign, m, perturb, rule, gamma_init=10.0, tau=1e-5):
    """The halving search with every deviation taken by stacking the rows and
    sorting them through aggregate: the reference gamma_search must match."""
    benign = np.asarray(benign, dtype=float)
    cols = BenignColumns(benign)
    gb, gp = cols.mean, cols.perturbation(perturb)
    gamma = gamma_init
    step = gamma_init / 2.0
    best = 0.0
    top_gamma = None
    top_dev = 0.0
    evals = 0
    while step >= tau:
        dev = _deviation(benign, gb, gp, m, gamma, rule)
        evals += 1
        if dev >= (1.0 - 1e-6) * best:
            if top_gamma is None or gamma > top_gamma:
                top_gamma, top_dev = gamma, dev
            gamma += step
        else:
            gamma -= step
        best = max(best, dev)
        step /= 2.0
    return GammaSearchResult(top_gamma, top_dev, evals)


def test_gamma_search_identical_to_sorting_search():
    rng = np.random.default_rng(13)
    with np.errstate(invalid="ignore"):
        for n in range(1, 9):
            for m in range(1, n + 1):
                instances = (rng.normal(size=(n, 5)), _awkward_rows(rng, n, 5),
                             np.round(rng.normal(size=(n, 5)), 1))
                for benign in instances:
                    for perturb in ("std", "unit", "sign"):
                        for rule in _rules(n + m, m):
                            want = _gamma_search_by_sorting(benign, m, perturb, rule)
                            got = gamma_search(benign, m, perturb, rule)
                            assert got == want
                            assert got.evaluations == 19


def test_craft_round_update_matches_sorting_search():
    rng = np.random.default_rng(14)
    benign = rng.normal(size=(16, 40))
    spec = AttackSpec(kind="agropt", perturb="std")
    for rule in (AggregationRule("median"), AggregationRule("trmean", trim_count=4),
                 AggregationRule("fedavg")):
        vec, gamma, dev = craft_round_update(spec, benign, 4, deployed_rule=rule)
        want = _gamma_search_by_sorting(benign, 4, "std", rule)
        assert (gamma, dev) == (want.gamma, want.deviation)
        cols = BenignColumns(benign)
        np.testing.assert_array_equal(vec, cols.mean + gamma * cols.perturbation("std"))


# ---------------------------------------------------------------- mean-shift baseline


def test_lie_zero_z_is_mean():
    u = np.array([[0.0, 2.0], [2.0, 0.0]])
    np.testing.assert_array_equal(lie_update(u, 0.0), [1.0, 1.0])


def test_lie_hand_value():
    np.testing.assert_array_equal(lie_update(_col(0.0, 2.0), 0.5), [1.5])


def test_lie_identical_rows_ignores_z():
    u = np.tile([3.0, -1.0], (5, 1))
    np.testing.assert_array_equal(lie_update(u, 4.0), [3.0, -1.0])


def test_lie_rejects_empty():
    with pytest.raises(ValueError):
        lie_update(np.empty((0, 2)), 1.0)


# ---------------------------------------------------------------- spec + dispatch


def test_attack_spec_validation():
    AttackSpec(kind="none")
    AttackSpec(kind="lie", z=1.5)
    AttackSpec(kind="agropt", perturb="std", gamma_init=10.0, tau=1e-5)
    with pytest.raises(ValueError):
        AttackSpec(kind="poison")
    with pytest.raises(ValueError):
        AttackSpec(kind="agropt", perturb="wavelet")
    with pytest.raises(ValueError):
        AttackSpec(kind="agropt", gamma_init=0.0)
    with pytest.raises(ValueError):
        AttackSpec(kind="agropt", tau=0.0)
    with pytest.raises(ValueError):
        AttackSpec(kind="agropt", start_round=-1)


def test_tau_above_half_gamma_init_is_rejected():
    """The first halving step is gamma_init / 2; a larger tau used to end the
    search before it evaluated any gamma, with gamma None."""
    benign = np.random.default_rng(0).normal(size=(4, 3))
    rule = AggregationRule("median")
    with pytest.raises(ValueError, match="tau"):
        AttackSpec(kind="agropt", gamma_init=10.0, tau=5.1)
    with pytest.raises(ValueError, match="tau"):
        gamma_search(benign, 1, "std", rule, gamma_init=10.0, tau=5.1)
    AttackSpec(kind="agropt", gamma_init=10.0, tau=5.0)
    assert gamma_search(benign, 1, "std", rule, gamma_init=10.0, tau=5.0).evaluations == 1


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_attack_arguments_are_rejected(bad):
    """An infinite gamma_init or tau used to leave the halving step infinite,
    so gamma_search never ended; a non-finite z crafted a non-finite row."""
    for field in ("gamma_init", "tau", "z"):
        with pytest.raises(ValueError, match=field):
            AttackSpec(kind="agropt", **{field: bad})
    benign = np.random.default_rng(0).normal(size=(4, 3))
    for kwargs in ({"gamma_init": bad}, {"tau": bad}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            gamma_search(benign, 1, "std", AggregationRule("median"), **kwargs)


def test_craft_round_update_lie():
    spec = AttackSpec(kind="lie", z=0.5)
    u = _col(0.0, 2.0)
    vec, gamma, dev = craft_round_update(spec, u, 1, deployed_rule=AggregationRule("median"))
    np.testing.assert_array_equal(vec, [1.5])
    assert gamma is None and dev is None


def test_craft_round_update_agropt_targets_deployed_rule():
    rng = np.random.default_rng(6)
    benign = rng.normal(size=(5, 4))
    spec = AttackSpec(kind="agropt", perturb="std", gamma_init=10.0, tau=1e-5)
    vec, gamma, dev = craft_round_update(spec, benign, 2, deployed_rule=AggregationRule("median"))
    cols = BenignColumns(benign)
    expect = cols.mean + gamma * cols.perturbation("std")
    np.testing.assert_array_equal(vec, expect)
    assert dev == pytest.approx(
        agr_deviation(benign, 2, "std", gamma, AggregationRule("median")), rel=1e-12
    )


def test_craft_round_update_all_nan_deviations_raise():
    # non-finite benign rows make every deviation NaN, so no gamma succeeds
    benign = np.array([[np.nan, 1.0], [0.5, np.inf], [np.inf, -np.inf]])
    spec = AttackSpec(kind="agropt", perturb="sign")
    with np.errstate(invalid="ignore"):
        assert gamma_search(benign, 1, "sign", AggregationRule("fedavg")).gamma is None
        with pytest.raises(FloatingPointError, match="NaN"):
            craft_round_update(spec, benign, 1, deployed_rule=AggregationRule("fedavg"))

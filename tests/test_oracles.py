import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from tsvalue import errors
from tsvalue.forecaster import ForecastInstance, Forecaster, ModelSpec
from tsvalue.oracles import (
    average_ranks,
    build_hessian,
    default_ridge,
    exact_influence,
    loo_linear_oracle,
    mc_shapley,
    rank_agreement,
)
from tsvalue.selection import detection_auroc

from instance_sets import stack
from per_block_reference import loo_linear_oracle as loo_linear_oracle_reference


def scalar_model():
    return Forecaster(ModelSpec("linear_ar", 1, 1, 1, bias=False))


def scalar_instance(x, y):
    return ForecastInstance([[float(x)]], [[float(y)]])


def rand_instances(spec, n, seed=0):
    rng = np.random.default_rng(seed)
    return stack(
        ForecastInstance(rng.normal(size=(spec.lookback, spec.channels)),
                         rng.normal(size=(spec.horizon, spec.channels)))
        for _ in range(n)
    )


class TestBuildHessian:
    def test_scalar_curvature_is_two(self):
        # L = (y - w*x)^2 with x = 1 has d2L/dw2 = 2
        m = scalar_model()
        h = build_hessian(m, np.zeros(1), scalar_instance(1, 2),
                          mode="analytic", damping=0.0)
        np.testing.assert_allclose(h.matrix, [[2.0]])

    def test_damping_shifts_diagonal(self):
        m = scalar_model()
        h = build_hessian(m, np.zeros(1), scalar_instance(1, 2),
                          mode="analytic", damping=1.0)
        assert h.damping == 1.0
        # the damped operator is what solve() applies: (2 + 1) s = rhs
        np.testing.assert_allclose(h.solve(np.array([3.0])), [1.0])

    def test_analytic_matches_finite_diff(self):
        spec = ModelSpec("linear_ar", 3, 2, 2)
        m = Forecaster(spec)
        rng = np.random.default_rng(1)
        params = rng.normal(size=spec.n_params)
        insts = rand_instances(spec, 6, seed=2)
        ha = build_hessian(m, params, insts, mode="analytic")
        hf = build_hessian(m, params, insts, mode="finite_diff")
        assert np.abs(ha.matrix - hf.matrix).max() <= 1e-4

    def test_symmetry(self):
        spec = ModelSpec("mlp", 3, 1, 1, hidden=4, init_seed=0)
        m = Forecaster(spec)
        params = m.init_params()
        insts = []
        rng = np.random.default_rng(3)
        for _ in range(8):
            x = rng.normal(size=(3, 1))
            insts.append(ForecastInstance(x, m.predict(params, x) + 0.05))
        h = build_hessian(m, params, stack(insts), mode="finite_diff", damping=1.0)
        assert np.abs(h.matrix - h.matrix.T).max() <= 1e-8

    def test_guard_on_large_p(self):
        spec = ModelSpec("mlp", 16, 1, 1, hidden=1000)
        m = Forecaster(spec)
        with pytest.raises(errors.PTooLarge):
            build_hessian(m, m.init_params(), rand_instances(spec, 2), mode="finite_diff")

    def test_indefinite_reports_eigenvalue(self):
        # strongly negative curvature instance for an mlp off-optimum
        spec = ModelSpec("mlp", 2, 1, 1, hidden=3, init_seed=5)
        m = Forecaster(spec)
        rng = np.random.default_rng(4)
        params = m.init_params() + rng.normal(size=spec.n_params)
        insts = stack(ForecastInstance(rng.normal(size=(2, 1)) * 3,
                                       rng.normal(size=(1, 1)) * 10) for _ in range(4))
        with pytest.raises(errors.IndefiniteAfterDamping) as exc:
            build_hessian(m, params, insts, mode="finite_diff", damping=0.0)
        assert exc.value.min_eigenvalue < 0


class TestExactInfluence:
    def test_zero_target_gradient(self):
        m = scalar_model()
        params = np.array([2.0])  # fits (x=1, y=2) exactly
        h = build_hessian(m, params, scalar_instance(1, 2), mode="analytic",
                          damping=0.0)
        assert exact_influence(m, params, scalar_instance(1, 2),
                               scalar_instance(1, 1), h).tolist() == [0.0]

    def test_scalar_solve(self):
        # H = 2, g_target = -4, g_context = -2: s = -2, influence = +4
        m = scalar_model()
        h = build_hessian(m, np.zeros(1), scalar_instance(1, 2),
                          mode="analytic", damping=0.0)
        infl = exact_influence(m, np.zeros(1), scalar_instance(1, 2),
                               scalar_instance(1, 1), h)
        assert infl.shape == (1,) and abs(infl[0] - 4.0) < 1e-12

    def test_linear_in_context_gradient(self):
        m = scalar_model()
        h = build_hessian(m, np.zeros(1), scalar_instance(1, 2),
                          mode="analytic", damping=0.0)
        one = exact_influence(m, np.zeros(1), scalar_instance(1, 2),
                              scalar_instance(1, 1), h)
        two = exact_influence(m, np.zeros(1), scalar_instance(1, 2),
                              scalar_instance(1, 2), h)
        assert abs(two[0] - 2 * one[0]) < 1e-12


def fit_ridge(x, y, ridge):
    return np.linalg.solve(x.T @ x + ridge * np.eye(x.shape[1]), x.T @ y)


class TestLooLinearOracle:
    @pytest.mark.parametrize("lookback, horizon, channels, bias", [
        (6, 2, 2, True), (20, 1, 1, True), (5, 3, 1, False), (40, 10, 3, True),
    ])
    def test_default_ridge_is_the_analytic_hessians_damping(self, lookback, horizon,
                                                            channels, bias):
        # the ridge oracle-compare's loo solves with, from the design rows alone
        spec = ModelSpec("linear_ar", lookback, horizon, channels, bias=bias)
        m = Forecaster(spec)
        insts = rand_instances(spec, 23, seed=lookback)
        x, _ = m.design_matrix(insts)
        want = build_hessian(m, np.zeros(spec.n_params), insts).damping * len(insts) / 2
        assert abs(default_ridge(x, spec.n_params) - want) <= 1e-12 * want

    def test_duplicate_point_removal_is_free(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 3))
        x[5] = x[2]
        y = x @ np.array([1.0, -2.0, 0.5])
        y[5] = y[2]
        change = loo_linear_oracle(x, y, 1e-6)
        assert change.shape == (10,) and abs(change[5]) < 1e-10

    def test_sole_informative_point_positive_change(self):
        # only row 1 sees the second coordinate; the context needs it
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 2.0, 1.0])
        x_ctx = np.array([[0.0, 1.0]])
        y_ctx = np.array([2.0])
        change = loo_linear_oracle(x, y, 1e-9, x_ctx, y_ctx)
        assert change[1] > 0.1

    def test_matches_brute_force_refit(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(20):
            n, d = 12 + trial % 5, 4
            x = rng.normal(size=(n, d))
            y = x @ rng.normal(size=d) + 0.1 * rng.normal(size=n)
            ridge = 10 ** rng.uniform(-3, 1)
            closed = loo_linear_oracle(x, y, ridge)
            b_full = fit_ridge(x, y, ridge)
            for i in range(n):
                keep = np.arange(n) != i
                b_red = fit_ridge(x[keep], y[keep], ridge)
                brute = np.mean((x @ b_red - y) ** 2) - np.mean((x @ b_full - y) ** 2)
                worst = max(worst, abs(closed[i] - brute))
        assert worst <= 1e-8

    def test_rank_deficient(self):
        x = np.zeros((4, 2))
        with pytest.raises(errors.RankDeficient):
            loo_linear_oracle(x, np.zeros(4), 0.0)

    def test_leverage_one_names_the_first_such_row(self):
        # rows 1 and 3 alone see their coordinates: removing either leaves it unfit
        x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(errors.RankDeficient, match="at row 1;"):
            loo_linear_oracle(x, np.ones(4), 0.0)

    @pytest.mark.parametrize("n, d, out_dim", [(5, 1, 1), (12, 4, 1), (30, 6, 3), (60, 8, 2)])
    @pytest.mark.parametrize("explicit_context", [False, True])
    def test_every_row_matches_the_per_index_reference(self, n, d, out_dim, explicit_context):
        rng = np.random.default_rng([n, d, out_dim])
        w = rng.normal(size=(d, out_dim))
        x = rng.normal(size=(n, d))
        y = x @ w + 0.3 * rng.normal(size=(n, out_dim))
        context = ()
        if explicit_context:
            x_ctx = rng.normal(size=(7, d))
            context = (x_ctx, x_ctx @ w + 0.3 * rng.normal(size=(7, out_dim)))
        ridge = 0.5
        got = loo_linear_oracle(x, y, ridge, *context)
        ref = np.array([loo_linear_oracle_reference(x, y, ridge, i, *context)
                        for i in range(n)])
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestMcShapley:
    def test_additive_game_exact(self):
        table = {(): 0.0, (0,): 1.0, (1,): 3.0, (0, 1): 4.0}
        est = mc_shapley(2, lambda s: table[s], mode="enumerate")
        np.testing.assert_allclose(est.values, [1.0, 3.0], atol=1e-15)

    def test_efficiency_enumeration(self):
        rng = np.random.default_rng(2)
        table = {}
        for mask in range(2 ** 5):
            subset = tuple(i for i in range(5) if mask >> i & 1)
            table[subset] = float(rng.normal())
        est = mc_shapley(5, lambda s: table[s], mode="enumerate")
        assert abs(est.total - (table[(0, 1, 2, 3, 4)] - table[()])) <= 1e-12

    def test_symmetric_blocks_equal_values(self):
        # utility depends only on subset size: all blocks symmetric
        est = mc_shapley(4, lambda s: float(len(s)) ** 0.5, mode="enumerate")
        assert np.abs(est.values - est.values[0]).max() <= 1e-12

    def test_mc_within_two_stderr_of_enumeration(self):
        rng = np.random.default_rng(5)
        table = {}
        for mask in range(2 ** 6):
            subset = tuple(i for i in range(6) if mask >> i & 1)
            table[subset] = float(rng.normal() + len(subset))
        exact = mc_shapley(6, lambda s: table[s], mode="enumerate")
        mc = mc_shapley(6, lambda s: table[s], n_permutations=400, seed=7)
        stderr = np.maximum(mc.stderr, 1e-12)
        assert (np.abs(mc.values - exact.values) <= 2 * stderr + 1e-9).all()

    def test_mc_symmetry_within_two_stderr(self):
        est = mc_shapley(4, lambda s: float(len(s)) ** 0.5,
                         n_permutations=300, seed=3)
        spread = np.abs(est.values - est.values.mean())
        assert (spread <= 2 * est.stderr + 1e-12).all()

    def test_enumeration_cap(self):
        with pytest.raises(errors.PTooLarge):
            mc_shapley(10, lambda s: 0.0, mode="enumerate")

    @pytest.mark.parametrize("mode", ["enumerate", "mc"])
    def test_nonfinite_utility(self, mode):
        with pytest.raises(errors.NonFiniteUtility):
            mc_shapley(3, lambda s: float("nan"), mode=mode)

    def test_nonfinite_full_set_utility_raises_in_mc(self):
        # every permutation ends at the full set, so its utility is always reached
        with pytest.raises(errors.NonFiniteUtility, match=r"\[0, 1, 2\]"):
            mc_shapley(3, lambda s: float("inf") if len(s) == 3 else float(len(s)),
                       n_permutations=1, seed=0)


class TestRankAgreement:
    def test_identical(self):
        assert rank_agreement([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed(self):
        assert rank_agreement([1, 2, 3], [3, 2, 1]) == -1.0

    def test_sign_match_all_positive(self):
        assert rank_agreement([1, 2, 3], [1, 2, 3], "sign_match") == 1.0

    def test_sign_match_counts_fraction(self):
        assert rank_agreement([1, -1, 1, 1], [1, 1, 1, -1], "sign_match") == 0.5

    def test_length_mismatch(self):
        with pytest.raises(errors.LengthMismatch):
            rank_agreement([1, 2, 3], [1, 2])
        with pytest.raises(errors.LengthMismatch):
            rank_agreement([1, 2], [1, 2])


tie_heavy = st.integers(3, 200).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 4), min_size=n, max_size=n),
    st.lists(st.integers(0, 4), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n)))


class TestAverageRanks:
    """The numpy rank helper against scipy.stats, which it replaces."""

    @given(tie_heavy)
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_on_ties(self, data):
        a, b, flags = (np.asarray(v, dtype=np.float64) for v in data)
        assert np.array_equal(average_ranks(a), sstats.rankdata(a))
        if np.ptp(a) > 0 and np.ptp(b) > 0:
            assert abs(rank_agreement(a, b) - sstats.spearmanr(a, b).statistic) <= 1e-12
        else:
            assert math.isnan(rank_agreement(a, b))
        labels = flags.astype(bool)
        n_pos = int(labels.sum())
        if 0 < n_pos < labels.size:
            ranks = sstats.rankdata(-a)
            ref = float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0)
                        / (n_pos * (labels.size - n_pos)))
            assert detection_auroc(a, labels) == ref

    def test_constant_vector_gives_nan_like_scipy(self):
        # no rank order to correlate: nan, with no warning and no error
        assert math.isnan(rank_agreement([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))
        assert np.array_equal(average_ranks([2.0, 2.0, 2.0]), [2.0, 2.0, 2.0])

    def test_nan_propagates_like_scipy(self):
        x = [1.0, np.nan, 0.0]
        assert np.array_equal(average_ranks(x), sstats.rankdata(x), equal_nan=True)
        assert np.isnan(average_ranks(x)).all()
        assert math.isnan(rank_agreement(x, [1.0, 2.0, 3.0]))

"""Tests for Gaussian reconciliation and the joint block bootstrap."""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as hst

from ctreco.covariance import CovarianceMatrix, CovarianceSpec, build_omega
from ctreco.hierarchy import build_cross_sectional, build_cross_temporal, build_temporal
from ctreco.evaluate import base_forecasts
from ctreco.models import ARModel, forecast, simulate_path
from ctreco.probabilistic import (
    ForecastSample,
    GaussianForecast,
    ctjb_paths,
    ctjb_sample,
    gaussian_reconcile,
    reconcile_sample,
    sample_gaussian,
)
from ctreco.reconcile import build_projection, reconcile_point
from ctreco.residuals import ResidualSet
from reference import ctjb_draws, simulate_path_loop, unshrunk_blocks

UNSHRUNK = ("sam", "hb", "h", "b")


def semi_annual():
    cs = build_cross_sectional(np.array([[1.0, 1.0]]))
    return build_cross_temporal(cs, build_temporal(2))


def spd_cov(structure, seed, spec_kind="sam"):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(structure.dim, structure.dim))
    return CovarianceMatrix(
        A @ A.T + structure.dim * np.eye(structure.dim), CovarianceSpec(spec_kind)
    )


class TestGaussianReconcile:
    def test_zero_covariance_reduces_to_point(self):
        st = semi_annual()
        rng = np.random.default_rng(0)
        rec = build_projection(st, spd_cov(st, 1))
        xhat = rng.normal(size=st.dim)
        base = GaussianForecast(xhat, CovarianceMatrix(np.zeros((9, 9)),
                                                       CovarianceSpec("sam")))
        out = gaussian_reconcile(base, rec)
        np.testing.assert_allclose(out.mean, rec.M @ xhat, atol=1e-12)
        np.testing.assert_allclose(out.covariance.values, 0.0, atol=1e-12)

    def test_coherent_covariance_is_fixed_point(self):
        st = semi_annual()
        rng = np.random.default_rng(2)
        Q = rng.normal(size=(st.bottom_dim, st.bottom_dim))
        Q = Q @ Q.T + np.eye(st.bottom_dim)
        Sigma = st.summation @ Q @ st.summation.T
        base = GaussianForecast(
            rng.normal(size=st.dim),
            CovarianceMatrix(Sigma, CovarianceSpec("sam")),
        )
        rec = build_projection(st, spd_cov(st, 3))
        out = gaussian_reconcile(base, rec)
        np.testing.assert_allclose(out.covariance.values, Sigma, atol=1e-8)

    def test_sigma_equal_omega_simplifies(self):
        # when Sigma equals the weighting matrix, M Sigma M' = M Sigma
        st = semi_annual()
        om = build_omega(CovarianceSpec("ols"), st)
        rec = build_projection(st, om)
        base = GaussianForecast(np.zeros(st.dim), om)
        out = gaussian_reconcile(base, rec)
        np.testing.assert_allclose(out.covariance.values, rec.M @ om.values,
                                   atol=1e-8)

    def test_factor_is_the_sparse_summation_matrix(self):
        # the reconciled covariance is held as S core S' with the CSR S, so
        # no dense S is derived and kept on the structure
        st = semi_annual()
        rec = build_projection(st, spd_cov(st, 4))
        base = GaussianForecast(np.zeros(st.dim), spd_cov(st, 5))
        cov = gaussian_reconcile(base, rec).covariance
        assert scipy.sparse.issparse(cov.factor)
        np.testing.assert_array_equal(cov.factor.toarray(),
                                      st.summation_csr.toarray())
        cov.root, cov.values  # derive both dense forms
        assert "summation" not in vars(st)

    @given(data=hst.data())
    @settings(max_examples=30, deadline=None)
    def test_factored_covariance_matches_the_dense_m_sigma_m(
        self, data, scoring_cases
    ):
        agg, m, _, seed, _, _ = data.draw(scoring_cases)
        st = build_cross_temporal(build_cross_sectional(agg), build_temporal(m))
        rng = np.random.default_rng(seed)
        rs = ResidualSet(st, rng.normal(size=(30, st.dim)), "multi_step")
        rec = build_projection(st, build_omega(CovarianceSpec("wlsv"), st, rs))
        M = st.summation @ rec.G
        sigmas = [build_omega(CovarianceSpec(kind, lam=0.0), st, rs)
                  for kind in ("sam", "h")] + [spd_cov(st, seed % 1000)]
        for sigma in sigmas:
            base = GaussianForecast(rng.normal(size=st.dim), sigma)
            out = gaussian_reconcile(base, rec)
            assert "M" not in vars(rec)
            assert vars(out.covariance)["_values"] is None
            want = M @ sigma.values @ M.T
            assert np.max(np.abs(out.covariance.values - want)) <= (
                1e-12 * np.max(np.abs(want)))
            np.testing.assert_allclose(out.mean, M @ base.mean, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(base.mean)))

    def test_dimension_mismatch(self):
        st = semi_annual()
        rec = build_projection(st, spd_cov(st, 4))
        base = GaussianForecast(np.zeros(3), CovarianceMatrix(np.eye(3),
                                                              CovarianceSpec("sam")))
        with pytest.raises(ValueError):
            gaussian_reconcile(base, rec)


class TestSampleGaussian:
    def test_degenerate_draw_equals_mean(self):
        st = semi_annual()
        mean = np.arange(9.0)
        base = GaussianForecast(
            mean, CovarianceMatrix(np.zeros((9, 9)), CovarianceSpec("sam"))
        )
        s = sample_gaussian(base, st, L=1, seed=0)
        np.testing.assert_allclose(s.draws[0], mean, atol=1e-12)

    def test_moments_converge(self):
        st = semi_annual()
        rng = np.random.default_rng(5)
        mean = rng.normal(size=st.dim)
        cov = spd_cov(st, 6)
        base = GaussianForecast(mean, cov)
        s = sample_gaussian(base, st, L=10000, seed=1)
        emp_mean = s.draws.mean(axis=0)
        se = np.sqrt(np.diag(cov.values) / 10000)
        assert np.all(np.abs(emp_mean - mean) < 3 * se + 1e-12)
        emp_cov = np.cov(s.draws.T, bias=True)
        V = cov.values
        se_cov = np.sqrt((np.outer(np.diag(V), np.diag(V)) + V**2) / 10000)
        assert np.all(np.abs(emp_cov - V) < 4 * se_cov)

    def test_factored_covariance_with_coherent_mean_is_coherent(self):
        st = semi_annual()
        rng = np.random.default_rng(7)
        rs = ResidualSet(st, rng.normal(size=(50, st.dim)), "multi_step")
        om = build_omega(CovarianceSpec("hb"), st, rs)
        mean = st.summation @ rng.normal(size=st.bottom_dim)
        s = sample_gaussian(GaussianForecast(mean, om), st, L=200, seed=2)
        for row in s.draws:
            assert st.is_coherent(row)

    def test_root_draws_match_cholesky_draws_when_rows_cover_columns(self):
        # N >= r: R' from the QR of the residual rows is the Cholesky factor
        # of X'X/N, so the draws are those of mean + F chol(X'X/N) z
        st = semi_annual()
        rng = np.random.default_rng(30)
        rs = ResidualSet(st, rng.normal(size=(60, st.dim)), "multi_step")
        mean = rng.normal(size=st.dim)
        for kind in UNSHRUNK:
            X, F = unshrunk_blocks(kind, st, rs)
            R = np.linalg.cholesky(X.T @ X / X.shape[0])
            z = np.random.default_rng(31).standard_normal((200, X.shape[1]))
            want = mean + (z @ R.T) @ F.T
            om = build_omega(CovarianceSpec(kind, lam=0.0), st, rs)
            got = sample_gaussian(GaussianForecast(mean, om), st, 200, seed=31)
            assert np.max(np.abs(got.draws - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", UNSHRUNK)
    def test_moments_converge_from_fewer_rows_than_columns(self, kind):
        st = semi_annual()
        rng = np.random.default_rng(32)
        rs = ResidualSet(st, rng.normal(size=(3, st.dim)), "multi_step")
        cov = build_omega(CovarianceSpec(kind, lam=0.0), st, rs)
        assert cov.root.shape[1] == 3  # one normal per residual row
        mean = rng.normal(size=st.dim)
        s = sample_gaussian(GaussianForecast(mean, cov), st, L=10000, seed=33)
        V = cov.values
        se = np.sqrt(np.diag(V) / 10000)
        assert np.all(np.abs(s.draws.mean(axis=0) - mean) < 3 * se + 1e-12)
        emp_cov = np.cov(s.draws.T, bias=True)
        se_cov = np.sqrt((np.outer(np.diag(V), np.diag(V)) + V**2) / 10000)
        assert np.all(np.abs(emp_cov - V) < 4 * se_cov + 1e-12)

    def test_hb_root_from_few_rows_keeps_coherent_means_coherent(self):
        st = semi_annual()
        rng = np.random.default_rng(34)
        rs = ResidualSet(st, rng.normal(size=(3, st.dim)), "multi_step")
        om = build_omega(CovarianceSpec("hb", lam=0.0), st, rs)
        mean = st.summation @ rng.normal(size=st.bottom_dim)
        s = sample_gaussian(GaussianForecast(mean, om), st, L=200, seed=35)
        for row in s.draws:
            assert st.is_coherent(row)

    def test_seed_reproducibility(self):
        st = semi_annual()
        base = GaussianForecast(np.zeros(st.dim), spd_cov(st, 8))
        a = sample_gaussian(base, st, L=64, seed=42)
        b = sample_gaussian(base, st, L=64, seed=42)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_rejects_zero_draws(self):
        st = semi_annual()
        base = GaussianForecast(np.zeros(st.dim), spd_cov(st, 9))
        with pytest.raises(ValueError):
            sample_gaussian(base, st, L=0, seed=0)


class TestCtjb:
    def toy_inputs(self, st, N=4, seed=0):
        rng = np.random.default_rng(seed)
        models = {}
        histories = {}
        for i in range(st.n):
            for k in st.te.factors:
                models[(i, k)] = ARModel(
                    1, np.array([0.4 + 0.1 * i]), 0.1 * k, 1.0
                )
                histories[(i, k)] = rng.normal(size=6)
        E = rng.normal(size=(N, st.dim))
        residuals = ResidualSet(st, E, "one_step")
        return models, histories, residuals

    def test_single_period_gives_identical_draws(self):
        st = semi_annual()
        models, histories, residuals = self.toy_inputs(st, N=1)
        s = ctjb_sample(st, models, histories, residuals, L=7, seed=3)
        for row in s.draws[1:]:
            np.testing.assert_array_equal(row, s.draws[0])

    def test_block_layout_selects_matching_columns(self):
        # for m=4, N=4: period index 1 (second period) must pick
        # quarterly cells 5-8, semi-annual 3-4, annual 2 of each series
        cs = build_cross_sectional(np.array([[1.0, 1.0]]))
        st = build_cross_temporal(cs, build_temporal(4))
        rng = np.random.default_rng(4)
        E = rng.normal(size=(4, st.dim))
        residuals = ResidualSet(st, E, "one_step")
        models = {}
        histories = {}
        for i in range(st.n):
            for k in st.te.factors:
                models[(i, k)] = ARModel(0, np.array([]), 0.0, 1.0)
                histories[(i, k)] = np.array([])
        # AR(0) with zero intercept: the draw equals the shocks themselves
        s = ctjb_sample(st, models, histories, residuals, L=16, seed=5)
        taus = np.random.default_rng(5).integers(0, 4, size=16)
        for ell, tau in enumerate(taus):
            np.testing.assert_array_equal(s.draws[ell], E[tau])

    def test_enumeration_oracle_small_n(self):
        st = semi_annual()
        models, histories, residuals = self.toy_inputs(st, N=3, seed=6)
        L = 40
        s = ctjb_sample(st, models, histories, residuals, L=L, seed=7)
        # enumerate the only achievable draws
        candidates = np.empty((3, st.dim))
        for tau in range(3):
            for i in range(st.n):
                for k in st.te.factors:
                    block = residuals.block(i, k)
                    candidates[tau, st.block_slice(i, k)] = simulate_path(
                        models[(i, k)], histories[(i, k)],
                        st.te.periods_at(k), block[tau],
                    )
        taus = np.random.default_rng(7).integers(0, 3, size=L)
        for ell in range(L):
            np.testing.assert_allclose(
                s.draws[ell], candidates[taus[ell]], atol=1e-12
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_recursion_has_the_per_series_bits(self, seed):
        # each temporal order's models, of mixed AR orders 0-5, run as one
        # batch: the point forecasts and the bootstrap paths must equal the
        # per-series forecast / simulate_path results and the one-model
        # reference loop bit for bit
        cs = build_cross_sectional(np.array([[1.0] * 5, [1.0, 1.0, 0.0, 0.0, 0.0]]))
        st = build_cross_temporal(cs, build_temporal(4))
        rng = np.random.default_rng(seed)
        models, histories = {}, {}
        for i in range(st.n):
            for k in st.te.factors:
                p = int(rng.integers(0, 6))
                models[(i, k)] = ARModel(p, rng.uniform(-0.5, 0.5, p),
                                         float(rng.normal()), 1.0)
                histories[(i, k)] = rng.normal(size=8)
        residuals = ResidualSet(st, rng.normal(size=(6, st.dim)), "one_step")
        L = 30
        xhat = base_forecasts(st, models, histories)
        draws = ctjb_sample(st, models, histories, residuals, L=L, seed=seed).draws
        taus = np.random.default_rng(seed).integers(0, 6, size=L)
        for (i, k), model in models.items():
            h, sl = st.te.periods_at(k), st.block_slice(i, k)
            shocks = residuals.block(i, k)[taus]
            point = simulate_path_loop(model, histories[(i, k)], h, np.zeros(h))[0]
            y = histories[(i, k)]
            np.testing.assert_array_equal(xhat[sl], point)
            np.testing.assert_array_equal(xhat[sl], forecast(model, y, h))
            paths = simulate_path_loop(model, y, h, shocks)
            np.testing.assert_array_equal(draws[:, sl], paths)
            np.testing.assert_array_equal(draws[:, sl], simulate_path(model, y, h, shocks))

    @pytest.mark.parametrize("L", [1, 4, 30])  # L = 1, L < N = 6, L > N
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_each_drawn_period_is_simulated_once(self, L, seed):
        # one path per distinct tau, in period order; gathered by index
        # they are the L per-draw paths, bit for bit
        cs = build_cross_sectional(np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]))
        st = build_cross_temporal(cs, build_temporal(4))
        rng = np.random.default_rng(seed)
        models, histories = {}, {}
        for i in range(st.n):
            for k in st.te.factors:
                p = int(rng.integers(0, 4))
                models[(i, k)] = ARModel(p, rng.uniform(-0.5, 0.5, p),
                                         float(rng.normal()), 1.0)
                histories[(i, k)] = rng.normal(size=8)
        residuals = ResidualSet(st, rng.normal(size=(6, st.dim)), "one_step")
        taus = np.random.default_rng(seed).integers(0, 6, size=L)
        paths, index = ctjb_paths(st, models, histories, residuals, L, seed)
        assert paths.shape == (np.unique(taus).size, st.dim)
        np.testing.assert_array_equal(np.unique(taus)[index], taus)
        draws = ctjb_sample(st, models, histories, residuals, L, seed).draws
        assert draws.flags.c_contiguous
        assert draws.tobytes() == paths[index].tobytes()
        assert draws.tobytes() == ctjb_draws(st, models, histories, residuals, L, seed).tobytes()

    @pytest.mark.parametrize("call", [ctjb_paths, ctjb_sample])
    def test_an_overflowing_path_raises(self, call):
        st = semi_annual()
        models, histories, residuals = self.toy_inputs(st)
        models[(1, 1)] = ARModel(1, np.array([1e200]), 0.0, 1.0)  # two steps: inf
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="draws contain non-finite values"):
                call(st, models, histories, residuals, 8, 0)

    def test_histories_of_one_order_must_be_of_one_length(self):
        st = semi_annual()
        models, histories, residuals = self.toy_inputs(st)
        histories[(1, 1)] = histories[(1, 1)][1:]
        lengths = [histories[(i, 1)].size for i in range(st.n)]
        assert len(set(lengths)) == 2
        with pytest.raises(ValueError) as raised:
            ctjb_sample(st, models, histories, residuals, L=4, seed=0)
        assert str(raised.value) == f"histories of order 1 differ in length: {lengths}"

    def test_bit_reproducible(self):
        st = semi_annual()
        models, histories, residuals = self.toy_inputs(st, N=4)
        a = ctjb_sample(st, models, histories, residuals, L=32, seed=11)
        b = ctjb_sample(st, models, histories, residuals, L=32, seed=11)
        assert a.draws.tobytes() == b.draws.tobytes()

    def test_requires_one_step_kind(self):
        st = semi_annual()
        models, histories, residuals = self.toy_inputs(st)
        bad = ResidualSet(st, residuals.E, "multi_step")
        with pytest.raises(ValueError, match="one-step"):
            ctjb_sample(st, models, histories, bad, L=4, seed=0)

    def test_joint_draw_preserves_cross_series_correlation(self):
        # residual blocks with strong positive correlation between two
        # series produce draws whose correlation has the same sign
        st = semi_annual()
        rng = np.random.default_rng(12)
        common = rng.normal(size=(40, 1))
        E = rng.normal(size=(40, st.dim)) * 0.1
        c11 = st.block_slice(1, 1)
        c21 = st.block_slice(2, 1)
        E[:, c11] += common
        E[:, c21] += common
        residuals = ResidualSet(st, E, "one_step")
        models = {
            (i, k): ARModel(0, np.array([]), 0.0, 1.0)
            for i in range(st.n)
            for k in st.te.factors
        }
        histories = {key: np.array([]) for key in models}
        s = ctjb_sample(st, models, histories, residuals, L=300, seed=13)
        corr = np.corrcoef(
            s.draws[:, st.index_of(1, 1, 0)], s.draws[:, st.index_of(2, 1, 0)]
        )[0, 1]
        assert corr > 0.5


class TestReconcileSample:
    def test_already_coherent_unchanged(self):
        st = semi_annual()
        rng = np.random.default_rng(14)
        B = rng.normal(size=(20, st.bottom_dim))
        draws = B @ st.summation.T
        sample = ForecastSample(st, draws, coherent=True, provenance="external")
        rec = build_projection(st, spd_cov(st, 15))
        out = reconcile_sample(sample, rec)
        np.testing.assert_allclose(out.draws, draws, atol=1e-10)

    def test_two_route_consistency_with_closed_form(self):
        # sample-then-reconcile matches reconcile-then-sample in moments
        st = semi_annual()
        rng = np.random.default_rng(16)
        mean = rng.normal(size=st.dim)
        cov = spd_cov(st, 17)
        rec = build_projection(st, spd_cov(st, 18))
        base = GaussianForecast(mean, cov)
        L = 10000
        route1 = reconcile_sample(sample_gaussian(base, st, L, seed=19), rec)
        closed = gaussian_reconcile(base, rec)
        V = closed.covariance.values
        se_mean = np.sqrt(np.diag(V) / L)
        assert np.all(
            np.abs(route1.draws.mean(axis=0) - closed.mean) < 3 * se_mean + 1e-9
        )
        emp_cov = np.cov(route1.draws.T, bias=True)
        se_cov = np.sqrt((np.outer(np.diag(V), np.diag(V)) + V**2) / L)
        assert np.all(np.abs(emp_cov - V) < 4 * se_cov + 1e-9)

    def test_all_rows_coherent_and_flagged(self):
        st = semi_annual()
        rng = np.random.default_rng(20)
        sample = ForecastSample(st, rng.normal(size=(50, st.dim)))
        rec = build_projection(st, spd_cov(st, 21))
        out = reconcile_sample(sample, rec)
        assert out.coherent
        assert out.n_draws == 50
        for row in out.draws:
            assert st.is_coherent(row)

    def test_idempotent(self):
        st = semi_annual()
        rng = np.random.default_rng(22)
        sample = ForecastSample(st, rng.normal(size=(10, st.dim)))
        rec = build_projection(st, spd_cov(st, 23))
        once = reconcile_sample(sample, rec)
        twice = reconcile_sample(once, rec)
        np.testing.assert_allclose(once.draws, twice.draws, atol=1e-9)

    @pytest.mark.parametrize("kind", ["hb", "h", "b"])
    def test_accepts_draws_of_the_structured_maps(self, kind):
        # their ridged maps left gaps of 5.8e-9 (h) to 7.4e-8 (b) here
        st = build_cross_temporal(
            build_cross_sectional(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])),
            build_temporal(4),
        )
        rng = np.random.default_rng(25)
        res = ResidualSet(st, rng.normal(size=(20, st.dim)), "multi_step")
        rec = build_projection(st, build_omega(CovarianceSpec(kind), st, res))
        sample = ForecastSample(st, 30.0 + rng.normal(size=(100, st.dim)))
        D = reconcile_sample(sample, rec).draws
        gaps = np.abs(D @ st.constraints.T).max(axis=1) / np.abs(D).max(axis=1)
        assert gaps.max() <= 1e-12

    def test_coherent_flag_validated(self):
        st = semi_annual()
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError, match="coherent"):
            ForecastSample(st, rng.normal(size=(5, st.dim)), coherent=True)

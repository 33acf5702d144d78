"""Tests for the DGP, the closed-form covariance and the study harness."""

import numpy as np
import pytest

from ctreco.evaluate import METHODS, SAMPLERS
from ctreco.exceptions import ValidationError
from ctreco.simulation import (
    SimulationConfig,
    run_study,
    simulate_dgp,
    study_structure,
    true_covariance,
)


class TestConfig:
    def test_defaults_valid(self):
        SimulationConfig()

    def test_rejects_nonstationary(self):
        with pytest.raises(ValueError, match="stationary"):
            SimulationConfig(phi_b=(1.2, 0.3))

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            SimulationConfig(rho=1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            SimulationConfig(sigma_b=0.0)


def true_core(cfg):
    """The 4 x 4 high-frequency bottom block of the true covariance: the
    summation matrix holds an identity row at each of those cells."""
    b = study_structure().bottom_hf_indices()
    return true_covariance(cfg).values[np.ix_(b, b)]


class TestTrueCovariance:
    def test_printed_entries(self):
        cfg = SimulationConfig()
        Q = true_core(cfg)
        assert Q[0, 0] == pytest.approx(0.81)
        assert Q[2, 2] == pytest.approx(3.24)
        assert Q[2, 0] == pytest.approx(-1.296)
        assert Q[1, 1] == pytest.approx(0.81 * (1 + 1.34**2))
        assert Q[3, 1] == pytest.approx(-1.296 * (1 + 1.34 * 0.95))

    def test_uncorrelated_case_has_zero_cross_block(self):
        cfg = SimulationConfig(rho=0.0)
        Q = true_core(cfg)
        np.testing.assert_array_equal(Q[:2, 2:], 0.0)

    def test_psd_and_rank(self):
        tc = true_covariance(SimulationConfig())
        eig = np.linalg.eigvalsh(tc.values)
        assert eig[0] >= -1e-10 * eig[-1]
        assert np.sum(eig > 1e-10 * eig[-1]) == 4

    def test_monte_carlo_one_step_errors(self):
        # simulate-and-forecast oracle with the true model
        cfg = SimulationConfig()
        st = study_structure()
        R, burn = 30000, 100
        rng = np.random.default_rng(123)
        cov = np.array(
            [
                [cfg.sigma_b**2, cfg.rho * cfg.sigma_b * cfg.sigma_c],
                [cfg.rho * cfg.sigma_b * cfg.sigma_c, cfg.sigma_c**2],
            ]
        )
        chol = np.linalg.cholesky(cov)
        phis = np.array([cfg.phi_b, cfg.phi_c])
        y = np.zeros((R, 2, 2))  # last two values per replicate/series
        for _ in range(burn):
            eps = rng.standard_normal((R, 2)) @ chol.T
            new = phis[:, 0] * y[:, :, 1] + phis[:, 1] * y[:, :, 0] + eps
            y = np.stack([y[:, :, 1], new], axis=2)
        f1 = phis[:, 0] * y[:, :, 1] + phis[:, 1] * y[:, :, 0]
        f2 = phis[:, 0] * f1 + phis[:, 1] * y[:, :, 1]
        eps1 = rng.standard_normal((R, 2)) @ chol.T
        a1 = phis[:, 0] * y[:, :, 1] + phis[:, 1] * y[:, :, 0] + eps1
        eps2 = rng.standard_normal((R, 2)) @ chol.T
        a2 = phis[:, 0] * a1 + phis[:, 1] * y[:, :, 1] + eps2
        err_b = np.stack([a1 - f1, a2 - f2], axis=2)  # (R, series, step)
        errs = np.empty((R, st.dim))
        for bi in range(2):
            sl = st.block_slice(1 + bi, 1)
            errs[:, sl] = err_b[:, bi, :]
            errs[:, st.block_slice(1 + bi, 2)] = err_b[:, bi, :].sum(
                axis=1, keepdims=True
            )
        top = err_b.sum(axis=1)
        errs[:, st.block_slice(0, 1)] = top
        errs[:, st.block_slice(0, 2)] = top.sum(axis=1, keepdims=True)
        emp = np.cov(errs.T, bias=True)
        truth = true_covariance(cfg).values
        rel = np.linalg.norm(emp - truth) / np.linalg.norm(truth)
        assert rel < 0.04


class TestSimulateDgp:
    def test_aggregation_identity_exact(self):
        hf = simulate_dgp(SimulationConfig(years=50), seed=0)
        np.testing.assert_array_equal(hf[0], hf[1] + hf[2])

    def test_shape_with_extra_periods(self):
        hf = simulate_dgp(SimulationConfig(years=10), seed=1, extra_periods=2)
        assert hf.shape == (3, 24)

    def test_innovation_correlation(self):
        cfg = SimulationConfig(years=50000)
        hf = simulate_dgp(cfg, seed=2)
        phis = {1: cfg.phi_b, 2: cfg.phi_c}
        eps = {}
        for i in (1, 2):
            y = hf[i]
            eps[i] = y[2:] - phis[i][0] * y[1:-1] - phis[i][1] * y[:-2]
        corr = np.corrcoef(eps[1], eps[2])[0, 1]
        assert abs(corr - cfg.rho) < 0.01

    def test_reproducible(self):
        cfg = SimulationConfig(years=20)
        np.testing.assert_array_equal(
            simulate_dgp(cfg, seed=7), simulate_dgp(cfg, seed=7)
        )


class TestRunStudy:
    def test_degenerate_grid_all_ones(self):
        cfg = SimulationConfig(replicates=2, years=40, L=30, seed=5, max_order=3)
        res = run_study(cfg, methods=("base",), samplers=("ctjb",))
        np.testing.assert_allclose(res.avg_rel_crps["all"], 1.0)
        np.testing.assert_allclose(res.rel_es["all"], 1.0)

    def test_small_grid_shapes_and_coherence_pattern(self):
        cfg = SimulationConfig(replicates=3, years=60, L=40, seed=6, max_order=3)
        res = run_study(
            cfg,
            methods=("base", "ct-bu", "oct-wlsv"),
            samplers=("ctjb", "gauss-hb"),
        )
        assert res.frobenius.shape == (3, 2)
        assert set(res.avg_rel_crps) == {2, 1, "all"}
        # reconciliation never hurts the hb-sampler covariance gap
        assert res.frobenius[1, 1] == pytest.approx(res.frobenius[0, 1], abs=1e-9)

    def test_requires_benchmark_cell(self):
        cfg = SimulationConfig(replicates=2, years=40, L=20)
        with pytest.raises(ValueError, match="benchmark"):
            run_study(cfg, methods=("ct-bu",), samplers=("ctjb",))

    def test_unknown_method(self):
        cfg = SimulationConfig(replicates=2, years=40, L=20)
        with pytest.raises(ValueError, match="unknown method"):
            run_study(cfg, methods=("base", "magic"), samplers=("ctjb",))

    @pytest.mark.parametrize(
        "methods, samplers, match",
        [
            (("base", "magic"), ("ctjb",), "unknown method 'magic'"),
            (("base",), ("ctjb", "gauss-x"), "unknown sampler 'gauss-x'"),
            (("ct-bu",), ("ctjb",), "benchmark"),
            (("base",), ("gauss-g",), "benchmark"),
        ],
    )
    def test_invalid_grid_is_a_validation_error(self, methods, samplers, match):
        cfg = SimulationConfig(replicates=1, years=40, L=20)
        with pytest.raises(ValidationError, match=match):
            run_study(cfg, methods=methods, samplers=samplers)

    def test_accepts_exactly_the_registry(self):
        cfg = SimulationConfig(replicates=1, years=40, L=20, max_order=2)
        res = run_study(cfg, methods=METHODS, samplers=SAMPLERS)
        assert res.frobenius.shape == (len(METHODS), len(SAMPLERS))
        assert np.all(np.isfinite(res.avg_rel_crps["all"]))
        # reconcile-command and covariance names are not study methods
        for name in ("oct", "ct-cs-bu-te", "ct-te-bu-cs", "shr", "gauss-sam"):
            with pytest.raises(ValidationError):
                run_study(cfg, methods=("base", name), samplers=("ctjb",))
            with pytest.raises(ValidationError):
                run_study(cfg, methods=("base",), samplers=("ctjb", name))

    def test_reproducible_given_seed(self):
        cfg = SimulationConfig(replicates=2, years=50, L=25, seed=9, max_order=2)
        a = run_study(cfg, methods=("base", "ct-bu"), samplers=("ctjb",))
        b = run_study(cfg, methods=("base", "ct-bu"), samplers=("ctjb",))
        np.testing.assert_array_equal(a.frobenius, b.frobenius)
        np.testing.assert_array_equal(a.raw_crps, b.raw_crps)

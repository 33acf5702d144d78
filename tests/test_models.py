"""Tests for AR fitting, multi-step fitted values and path simulation."""

import numpy as np
import pytest
from scipy import stats

from ctreco.models import ARModel, fit_ar, fitted_multistep, forecast, simulate_path


def simulate_ar2(rng, phi, sigma, T, burn=200):
    y = np.zeros(T + burn)
    eps = rng.normal(scale=sigma, size=T + burn)
    for t in range(2, T + burn):
        y[t] = phi[0] * y[t - 1] + phi[1] * y[t - 2] + eps[t]
    return y[burn:]


class TestFitAr:
    def test_recovers_ar2_coefficients(self):
        # tolerance from the sampling spread of the OLS estimator at T=1000
        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(20):
            y = simulate_ar2(rng, [1.34, -0.74], 1.0, 1000)
            model = fit_ar(y, max_order=2, criterion="fixed")
            if abs(model.coefficients[0] - 1.34) < 0.1 and abs(
                model.coefficients[1] + 0.74
            ) < 0.1:
                hits += 1
        assert hits >= 18

    def test_white_noise_selects_order_zero(self):
        rng = np.random.default_rng(1)
        chosen = [
            fit_ar(rng.normal(size=400), max_order=4, criterion="aicc").order
            for _ in range(20)
        ]
        assert sum(p == 0 for p in chosen) > 10

    def test_fixed_order_is_exact(self):
        rng = np.random.default_rng(2)
        model = fit_ar(rng.normal(size=50), max_order=2, criterion="fixed")
        assert model.order == 2
        assert model.coefficients.shape == (2,)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            fit_ar(np.ones(5), max_order=3)

    @pytest.mark.parametrize("length", [8, 9, 10])
    def test_short_series_selects_among_defined_orders(self, length):
        # orders with T_eff - p - 3 <= 0 have no AICc and are not fitted
        rng = np.random.default_rng(length)
        for _ in range(20):
            model = fit_ar(rng.normal(size=length), max_order=5)
            assert model.order <= max(0, length - 5 - 4)
        with pytest.raises(ValueError, match="singular"):
            fit_ar(rng.normal(size=length), max_order=5, criterion="fixed")

    def test_constant_series_is_singular(self):
        with pytest.raises(ValueError, match="singular"):
            fit_ar(np.ones(50), max_order=2, criterion="fixed")

    def test_bad_criterion(self):
        with pytest.raises(ValueError):
            fit_ar(np.random.default_rng(0).normal(size=50), 2, "bic")

    def test_innovation_variance_converges(self):
        rng = np.random.default_rng(3)
        ok = 0
        for _ in range(7):
            y = simulate_ar2(rng, [1.34, -0.74], 1.0, 5000)
            model = fit_ar(y, max_order=2, criterion="fixed")
            if abs(model.innovation_variance - 1.0) < 0.1:
                ok += 1
        assert ok >= 4


class TestFittedMultistep:
    def test_one_step_hand_case(self):
        model = ARModel(1, np.array([0.5]), 0.0, 1.0)
        fitted = fitted_multistep(model, np.array([1.0, 2.0]), h=1)
        assert np.isnan(fitted[0])
        assert fitted[1] == pytest.approx(0.5)
        # residual e_{1,2} = y_2 - 0.5
        assert 2.0 - fitted[1] == pytest.approx(1.5)

    def test_two_step_chains_coefficients(self):
        model = ARModel(1, np.array([0.5]), 0.0, 1.0)
        y = np.array([1.0, 10.0, 20.0])
        fitted = fitted_multistep(model, y, h=2)
        # prediction of y_3 from y_1: phi^2 * y_1
        assert fitted[2] == pytest.approx(0.25 * 1.0)
        assert np.isnan(fitted[0]) and np.isnan(fitted[1])

    def test_two_step_forecast_from_history(self):
        model = ARModel(1, np.array([0.5]), 0.0, 1.0)
        np.testing.assert_allclose(forecast(model, [1.0], 2), [0.5, 0.25])

    def test_intercept_propagates(self):
        model = ARModel(1, np.array([0.5]), 1.0, 1.0)
        # two-step from origin y_1 = 2: c + phi*(c + phi*2)
        fitted = fitted_multistep(model, np.array([2.0, 0.0, 0.0]), h=2)
        assert fitted[2] == pytest.approx(1.0 + 0.5 * (1.0 + 0.5 * 2.0))

    def test_horizon_exceeds_length(self):
        model = ARModel(0, np.array([]), 0.0, 1.0)
        with pytest.raises(ValueError):
            fitted_multistep(model, np.ones(3), h=4)

    def test_one_step_residuals_white_multistep_not(self):
        # h=1 residuals pass a Ljung-Box whiteness check; h=2 residuals
        # are autocorrelated by construction
        rng = np.random.default_rng(8)
        white_pass = 0
        multi_fail = 0
        reps = 12
        for _ in range(reps):
            y = simulate_ar2(rng, [1.34, -0.74], 1.0, 1000)
            model = fit_ar(y, max_order=2, criterion="fixed")
            for h, bucket in ((1, "white"), (2, "multi")):
                res = y - fitted_multistep(model, y, h=h)
                res = res[~np.isnan(res)]
                p = ljung_box_pvalue(res, lags=10)
                if bucket == "white" and p > 0.05:
                    white_pass += 1
                if bucket == "multi" and p < 0.05:
                    multi_fail += 1
        assert white_pass > reps / 2
        assert multi_fail > reps / 2

    def test_one_step_variance_tracks_innovation_variance(self):
        rng = np.random.default_rng(9)
        ok = 0
        for _ in range(7):
            y = simulate_ar2(rng, [0.95, -0.42], 1.3, 5000)
            model = fit_ar(y, max_order=2, criterion="fixed")
            res = y - fitted_multistep(model, y, h=1)
            var = np.nanvar(res)
            if abs(var - 1.3**2) / 1.3**2 < 0.1:
                ok += 1
        assert ok >= 4


def ljung_box_pvalue(x, lags):
    x = x - x.mean()
    T = x.size
    acf = np.array(
        [np.dot(x[: T - l], x[l:]) / np.dot(x, x) for l in range(1, lags + 1)]
    )
    q = T * (T + 2) * np.sum(acf**2 / (T - np.arange(1, lags + 1)))
    return stats.chi2.sf(q, df=lags)


class TestSimulatePath:
    def test_zero_shocks_equal_forecast(self):
        rng = np.random.default_rng(4)
        y = simulate_ar2(rng, [1.34, -0.74], 1.0, 100)
        model = fit_ar(y, max_order=2, criterion="fixed")
        path = simulate_path(model, y, 5, np.zeros(5))
        np.testing.assert_allclose(path, forecast(model, y, 5), atol=1e-12)

    def test_ar0_is_mean_plus_shocks(self):
        model = ARModel(0, np.array([]), 3.0, 1.0)
        shocks = np.array([0.1, -0.2, 0.3])
        np.testing.assert_allclose(
            simulate_path(model, np.array([]), 3, shocks), 3.0 + shocks
        )

    def test_round_trip_reproduces_realisation(self):
        rng = np.random.default_rng(5)
        phi = np.array([1.34, -0.74])
        model = ARModel(2, phi, 0.0, 1.0)
        history = rng.normal(size=10)
        shocks = rng.normal(size=6)
        # generate a realisation with the recursion, then re-simulate
        y = list(history)
        for e in shocks:
            y.append(phi[0] * y[-1] + phi[1] * y[-2] + e)
        realised = np.array(y[10:])
        np.testing.assert_allclose(
            simulate_path(model, history, 6, shocks), realised, atol=1e-12
        )
        # an (L, h) block gives one path per row, each the single-path one
        block = np.vstack([shocks, rng.normal(size=(4, 6))])
        paths = simulate_path(model, history, 6, block)
        assert paths.shape == (5, 6)
        for row, e in zip(paths, block):
            np.testing.assert_array_equal(row, simulate_path(model, history, 6, e))

    def test_shock_length_mismatch(self):
        model = ARModel(0, np.array([]), 0.0, 1.0)
        for shape in [(2,), (4, 2), (1, 2, 3)]:
            with pytest.raises(ValueError):
                simulate_path(model, np.array([]), 3, np.zeros(shape))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ARModel(2, np.array([0.5]), 0.0, 1.0)
        with pytest.raises(ValueError):
            ARModel(1, np.array([0.5]), 0.0, -1.0)

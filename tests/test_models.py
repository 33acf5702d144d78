"""Tests for AR fitting, multi-step fitted values and path simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import stats

from ctreco.models import (
    ARModel,
    _simulate_paths,
    fit_ar,
    fitted_multistep,
    forecast,
    simulate_path,
)
from ctreco.residuals import fit_level_models
from reference import fit_ar_lstsq, fitted_multistep_loop, simulate_path_loop


def simulate_ar2(rng, phi, sigma, T, burn=200):
    y = np.zeros(T + burn)
    eps = rng.normal(scale=sigma, size=T + burn)
    for t in range(2, T + burn):
        y[t] = phi[0] * y[t - 1] + phi[1] * y[t - 2] + eps[t]
    return y[burn:]


def stationary_ar(pacf):
    """AR coefficients of the partial autocorrelations ``pacf`` (each in
    (-1, 1), so the process is stationary), by Durbin-Levinson."""
    phi = np.zeros(0)
    for a in pacf:
        phi = np.append(phi - a * phi[::-1], a)
    return phi


@hst.composite
def ar_batches(draw):
    """Equal-length stationary AR series with their own orders, levels and
    scales, a max_order and a criterion; lengths reach the 8-10 series
    whose larger orders have no AICc or too few rows."""
    T = draw(hst.one_of(hst.integers(8, 10), hst.integers(11, 120)))
    B = draw(hst.integers(1, 6))
    max_order = draw(hst.integers(0, 5))
    criterion = draw(hst.sampled_from(["aicc", "fixed"]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    Y = np.empty((B, T))
    for b in range(B):
        phi = stationary_ar(rng.uniform(-0.9, 0.9, size=rng.integers(0, 6)))
        e = rng.normal(size=T + 100)
        y = np.zeros(T + 100)
        for t in range(phi.size, T + 100):
            y[t] = e[t] + phi @ y[t - phi.size : t][::-1]
        Y[b] = rng.uniform(-10.0, 10.0) + rng.uniform(0.1, 10.0) * y[100:]
    return Y, max_order, criterion


class TestFitAr:
    @given(batch=ar_batches())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_lstsq_oracle_and_the_batch_fit(self, batch):
        # one QR per batch gives the per-order lstsq fits: the same order,
        # coefficients and variance to 1e-10 relative (the variance of an
        # exact fit, T - max_order = p + 1 rows, to 1e-10 of the series'
        # mean square), and a series has the same bits in a batch as alone
        Y, max_order, criterion = batch
        data = {(i, 1): y for i, y in enumerate(Y)}
        try:
            want = [fit_ar_lstsq(y, max_order, criterion) for y in Y]
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                fit_level_models(data, max_order, criterion)
            return
        batched = fit_level_models(data, max_order, criterion)
        for i, y in enumerate(Y):
            got, ref, alone = batched[(i, 1)], want[i], fit_ar(y, max_order, criterion)
            assert got.order == ref.order
            b_got = np.r_[got.intercept, got.coefficients]
            b_ref = np.r_[ref.intercept, ref.coefficients]
            assert np.max(np.abs(b_got - b_ref)) <= 1e-10 * np.max(np.abs(b_ref))
            floor = 1e-10 * np.mean(y**2)
            gap = abs(got.innovation_variance - ref.innovation_variance)
            assert gap <= 1e-10 * max(ref.innovation_variance, floor)
            assert alone.order == got.order
            assert alone.intercept == got.intercept
            assert alone.innovation_variance == got.innovation_variance
            np.testing.assert_array_equal(alone.coefficients, got.coefficients)

    @pytest.mark.parametrize("y,max_order,criterion,match", [
        (np.full(50, 3.0), 2, "aicc", "singular"),  # constant
        (np.full(50, 3.0), 2, "fixed", "singular"),
        (np.arange(9.0) ** 2, 5, "fixed", "singular"),  # 4 rows, 6 coefficients
        (np.arange(7.0) ** 2, 5, "aicc", "too short"),
    ])
    def test_degenerate_inputs_raise_alone_and_in_a_batch(
            self, y, max_order, criterion, match):
        noise = np.random.default_rng(8).normal(size=y.size)
        for fit in (
            lambda: fit_ar_lstsq(y, max_order, criterion),
            lambda: fit_ar(y, max_order, criterion),
            lambda: fit_level_models({(0, 1): noise, (1, 1): y}, max_order, criterion),
        ):
            with pytest.raises(ValueError, match=match):
                fit()

    def test_one_error_names_every_singular_series_and_order(self):
        rng = np.random.default_rng(9)
        data = {(i, k): rng.normal(size=24 // k) for i in range(3) for k in (2, 1)}
        data[(1, 2)] = np.ones(12)
        data[(2, 1)] = np.full(24, 7.0)
        with pytest.raises(ValueError, match=r"singular.*\(1, 2\), \(2, 1\)$"):
            fit_level_models(data, max_order=2)

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

    @given(
        p=hst.integers(0, 6),  # orders above T - 1 leave every entry NaN
        T=hst.integers(1, 30),
        seed=hst.integers(0, 2**32 - 1),
        data=hst.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_all_horizons_match_each_horizon_and_simulation(self, p, T, seed, data):
        H = data.draw(hst.integers(1, T))
        rng = np.random.default_rng(seed)
        model = ARModel(p, rng.normal(scale=0.6, size=p), rng.normal(), 1.0)
        y = rng.normal(scale=10.0, size=T)
        for h in range(1, H + 1):
            fitted = fitted_multistep(model, y, h)
            if p < T:  # the loop raises on some lags past the series end
                loop = fitted_multistep_loop(model, y, h)
                assert fitted.tobytes() == loop.tobytes()
            # from every origin with p observations, the zero-shock path
            # ends at the fitted value
            for t in range(h + p - 1, T):
                path = simulate_path(model, y[: t - h + 1], h, np.zeros(h))
                assert path[-1:].tobytes() == fitted[t : t + 1].tobytes()
            assert np.isnan(fitted[: min(h + p - 1, T)]).all()

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

    @given(seed=hst.integers(0, 2**32 - 1), data=hst.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_paths_match_simulate_path(self, seed, data):
        # B models of mixed orders 0-5 over a (B, T) panel, each path from
        # its own origin with its own shocks: every path has the bits of
        # simulate_path and the one-model loop from that origin's history
        B, L, h = (data.draw(hst.integers(1, 6)) for _ in range(3))
        orders = data.draw(hst.lists(hst.integers(0, 5), min_size=B, max_size=B))
        T = max(orders) + data.draw(hst.integers(0, 8))
        rng = np.random.default_rng(seed)
        models = [ARModel(p, rng.uniform(-0.6, 0.6, p), float(rng.normal()), 1.0)
                  for p in orders]
        Y = rng.normal(scale=5.0, size=(B, T))
        origins = rng.integers(max(orders), T + 1, size=L)
        shocks = rng.normal(size=(B, L, h))
        out = np.full((B, L, h), np.nan)
        paths = _simulate_paths(models, Y, origins, shocks, out)
        assert paths is out
        for b, model in enumerate(models):
            for ell, o in enumerate(origins):
                alone = simulate_path(model, Y[b, :o], h, shocks[b, ell])
                assert np.array_equal(paths[b, ell], alone)
                loop = simulate_path_loop(model, Y[b, :o], h, shocks[b, ell])[0]
                assert np.array_equal(paths[b, ell], loop)

    def test_kernel_rejects_an_origin_short_of_the_order(self):
        models = [ARModel(0, np.array([]), 0.0, 1.0), ARModel(2, np.ones(2) / 4, 0.0, 1.0)]
        shocks = np.zeros((2, 3, 2))
        with pytest.raises(ValueError, match="history of length 1 < order 2"):
            _simulate_paths(models, np.ones((2, 5)), np.array([4, 1, 5]), shocks,
                            np.empty(shocks.shape))
        with pytest.raises(ValueError, match="history of length 1 < order 2"):
            simulate_path(models[1], np.ones(1), 2, np.zeros(2))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ARModel(2, np.array([0.5]), 0.0, 1.0)
        with pytest.raises(ValueError):
            ARModel(1, np.array([0.5]), 0.0, -1.0)


class TestInputChecks:
    """Input checks no other test reaches: the exception and its message."""

    def test_ar_model_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            ARModel(order=1, coefficients=np.array([np.inf]), intercept=0.0,
                    innovation_variance=1.0)

    def test_fit_ar_rejects_a_negative_max_order(self):
        with pytest.raises(ValueError, match="max_order must be >= 0"):
            fit_ar(np.arange(10.0), -1)

    def test_fit_ar_rejects_a_series_that_is_not_1d(self):
        with pytest.raises(ValueError, match="series must be one-dimensional"):
            fit_ar(np.ones((2, 10)), 1)

    def test_fitted_multistep_rejects_a_series_that_is_not_1d(self):
        model = ARModel(0, np.zeros(0), 0.0, 1.0)
        with pytest.raises(ValueError, match="series must be one-dimensional"):
            fitted_multistep(model, np.ones((2, 10)), 1)

    def test_fitted_multistep_rejects_a_horizon_below_one(self):
        model = ARModel(0, np.zeros(0), 0.0, 1.0)
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            fitted_multistep(model, np.ones(10), 0)

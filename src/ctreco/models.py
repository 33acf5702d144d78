"""Minimal univariate AR(p) modelling.

Covers what the simulation study and the CLI need: least-squares fitting
with AICc order selection, multi-step in-sample fitted values, point
forecasts, and shock-driven path simulation.  Callers with their own
forecasting stack can skip this module and supply base forecasts and
residuals directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ARModel", "fit_ar", "fitted_multistep", "forecast", "simulate_path"]


@dataclass(frozen=True, eq=False)
class ARModel:
    """Fitted autoregression y_t = intercept + sum_i phi_i y_{t-i} + e_t."""

    order: int
    coefficients: np.ndarray
    intercept: float
    innovation_variance: float

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (self.order,):
            raise ValueError("coefficient length must equal the order")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        if self.innovation_variance < 0:
            raise ValueError("innovation variance must be >= 0")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)


def _lagged_design(y: np.ndarray, p: int, t0: int) -> tuple[np.ndarray, np.ndarray]:
    """Regression target y[t0:] on intercept and lags 1..p."""
    T = y.size
    X = np.empty((T - t0, p + 1))
    X[:, 0] = 1.0
    for lag in range(1, p + 1):
        X[:, lag] = y[t0 - lag : T - lag]
    return X, y[t0:]


def fit_ar(series: np.ndarray, max_order: int, criterion: str = "aicc") -> ARModel:
    """Fit an AR(p) model by least squares on the lagged regression.

    With ``criterion="aicc"`` the order p in 0..max_order minimising
    AICc = T log(RSS/T) + 2 (p + 2) T / (T - p - 3) is selected, all
    candidates fit on the common sample starting at max_order; ties go to
    the smaller order.  Orders with T - p - 3 <= 0 have no AICc and are
    not fitted (p = 0 always is), so short series select among the rest.
    With ``criterion="fixed"`` the order is exactly ``max_order``.

    Raises:
        ValueError: series shorter than max_order + 3, or a singular
            design matrix (constant series).
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if criterion not in ("aicc", "fixed"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if y.size <= max_order + 2:
        raise ValueError(
            f"series of length {y.size} too short for max_order={max_order}"
        )

    t0 = max_order  # common sample so AICc values are comparable
    T_eff = y.size - t0
    if criterion == "fixed":
        orders = [max_order]
    else:  # p = 0 plus every order whose AICc is defined
        orders = [p for p in range(max_order + 1) if p == 0 or T_eff - p - 3 > 0]

    best: tuple[float, int, np.ndarray, float] | None = None
    for p in orders:
        X, target = _lagged_design(y, p, t0)
        beta, _, rank, _ = np.linalg.lstsq(X, target, rcond=None)
        if rank < p + 1:
            raise ValueError(
                f"singular design matrix at order {p} (constant series?)"
            )
        rss = float(np.sum((target - X @ beta) ** 2))
        sigma2 = rss / T_eff
        if T_eff - p - 3 <= 0:
            aicc = np.inf
        else:
            aicc = T_eff * np.log(max(sigma2, 1e-300)) + (
                2.0 * (p + 2) * T_eff / (T_eff - p - 3)
            )
        if best is None or aicc < best[0] - 1e-12:
            best = (aicc, p, beta, sigma2)

    assert best is not None
    _, p, beta, sigma2 = best
    return ARModel(
        order=p,
        coefficients=beta[1:],
        intercept=float(beta[0]),
        innovation_variance=sigma2,
    )


def forecast(model: ARModel, history: np.ndarray, h: int) -> np.ndarray:
    """h-step-ahead point forecasts from the end of ``history``."""
    return simulate_path(model, history, h, np.zeros(h))


def simulate_path(
    model: ARModel, history: np.ndarray, h: int, shocks: np.ndarray
) -> np.ndarray:
    """Iterate the AR recursion h steps, injecting the given shocks.

    ``shocks`` is one path's ``(h,)`` vector or an ``(L, h)`` block with
    one path per row; the result has the shape of ``shocks``.
    Deterministic given the shocks; with zero shocks this is the point
    forecast.  ``history`` must hold at least ``order`` values.
    """
    y = np.asarray(history, dtype=float)
    e = np.asarray(shocks, dtype=float)
    if e.ndim not in (1, 2) or e.shape[-1] != h:
        raise ValueError(f"shocks must have shape ({h},) or (L, {h})")
    p = model.order
    if y.size < p:
        raise ValueError(f"history of length {y.size} < order {p}")
    E = np.atleast_2d(e)
    buf = np.empty((E.shape[0], p + h))
    buf[:, :p] = y[y.size - p :]
    phi = model.coefficients
    for step in range(h):
        val = model.intercept + E[:, step]
        for lag in range(1, p + 1):
            val = val + phi[lag - 1] * buf[:, p + step - lag]
        buf[:, p + step] = val
    return buf[:, p:] if e.ndim == 2 else buf[0, p:]


def fitted_multistep(model: ARModel, series: np.ndarray, h: int) -> np.ndarray:
    """In-sample h-step-ahead fitted values, aligned to the target time.

    Entry t of the result is the prediction of ``series[t]`` made from
    information through time t - h; entries whose origin lacks ``order``
    observations are NaN.  The residual at time t is simply
    ``series[t] - fitted_multistep(model, series, h)[t]``.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if h < 1:
        raise ValueError("horizon must be >= 1")
    if h > y.size:
        raise ValueError(f"horizon {h} exceeds series length {y.size}")
    return _fitted_horizons(model, y, h)[h - 1]


def _fitted_horizons(model: ARModel, y: np.ndarray, H: int) -> np.ndarray:
    """(H, T) array whose row h - 1 holds ``fitted_multistep(model, y, h)``.

    Row h - 1 depends only on the rows above it, so its bits do not depend
    on H.  ``y`` is a one-dimensional series with 1 <= H <= its length.
    """
    p = model.order
    T = y.size
    # preds[s - 1, t] = prediction of y[t] from origin t - s, built by
    # chaining the recursion: lags reaching back to the origin or earlier
    # use observed values, nearer lags use already-computed predictions
    # from the same origin.  Entries before a lag's first source value
    # fall in the NaN prefix set below, so they are left unset.
    preds = np.empty((H, T))
    for step in range(1, H + 1):
        pred = preds[step - 1]
        pred[:] = model.intercept
        for lag in range(1, min(p + 1, T)):  # a lag >= T reaches no entry
            src = y if lag >= step else preds[step - lag - 1]
            pred[lag:] += model.coefficients[lag - 1] * src[: T - lag]
        # the origin t - step must have at least p observations available
        pred[: min(step + p - 1, T)] = np.nan
    return preds

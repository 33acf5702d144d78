"""Minimal univariate AR(p) modelling.

Covers what the simulation study and the CLI need: least-squares fitting
with AICc order selection, multi-step in-sample fitted values, point
forecasts, and shock-driven path simulation.  Callers with their own
forecasting stack can skip this module and supply base forecasts and
residuals directly.

Equal-length series are fitted by one stacked QR.  One recursion,
``_simulate_paths``, runs equal-length series from any origins with any
shocks: forecasts, simulated paths, in-sample fitted values and the
residuals are all its zero- or resampled-shock paths, and models of one
AR order run in it as one stack.  ``fit_ar`` and ``simulate_path`` are
the one-series cases, so a series has the same bits in a batch.
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


def fit_ar(series: np.ndarray, max_order: int, criterion: str = "aicc") -> ARModel:
    """Fit an AR(p) model by least squares on the lagged regression.

    With ``criterion="aicc"`` the order p in 0..max_order minimising
    AICc = T log(RSS/T) + 2 (p + 2) T / (T - p - 3) is selected, all
    candidates fit on the common sample starting at max_order; ties go to
    the smaller order.  Orders with T - p - 3 <= 0 have no AICc and are
    not fitted (p = 0 always is), so short series select among the rest.
    With ``criterion="fixed"`` the order is exactly ``max_order``.

    The candidates are nested regressions on one sample, so one
    Householder QR, X = QR, of the design of the largest candidate order
    gives them all: RSS_p = ||y - QQ'y||^2 + sum_{j>p} (Q'y)_j^2, and the
    coefficients solve the leading (p + 1) x (p + 1) block of R.  The
    design's rank is read from the singular values of R, which are X's,
    by ``np.linalg.lstsq``'s rule (s > eps max(rows, columns) s_max); a
    smaller order's design is a leading block of columns, so it is
    singular only if the largest one is.

    Raises:
        ValueError: series shorter than max_order + 3, or a singular
            design matrix (constant series).
    """
    (model,) = _fit_rows(np.asarray(series, dtype=float)[None], max_order, criterion)
    if model is None:
        raise ValueError("singular design matrix (constant series?)")
    return model


def _fit_rows(Y: np.ndarray, max_order: int, criterion: str) -> list[ARModel | None]:
    """``fit_ar`` of every row of the (B, T) array Y in one batched QR;
    None for a row whose design is singular.  A row's model has the same
    bits whichever rows it is fitted with."""
    if criterion not in ("aicc", "fixed"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if Y.ndim != 2:
        raise ValueError("series must be one-dimensional")
    B, T = Y.shape
    if T <= max_order + 2:
        raise ValueError(f"series of length {T} too short for max_order={max_order}")
    t0 = max_order  # common sample so AICc values are comparable
    T_eff = T - t0
    if criterion == "fixed":
        orders = [max_order]
    else:  # p = 0 plus every order whose AICc is defined
        orders = [p for p in range(max_order + 1) if p == 0 or T_eff - p - 3 > 0]
    top = orders[-1]
    if T_eff < top + 1:  # fewer rows than coefficients: rank-deficient
        return [None] * B
    X = np.empty((B, T_eff, top + 1))
    X[:, :, 0] = 1.0
    for lag in range(1, top + 1):
        X[:, :, lag] = Y[:, t0 - lag : T - lag]
    target = Y[:, t0:, None]
    Q, R = np.linalg.qr(X)
    qty = np.matmul(Q.transpose(0, 2, 1), target)
    rss_full = np.sum((target - Q @ qty)[:, :, 0] ** 2, axis=1)
    # sigma2[:, p] = RSS_p / T_eff, RSS_p = rss_full + sum_{j>p} qty_j^2
    tail = np.cumsum(qty[:, :0:-1, 0] ** 2, axis=1)[:, ::-1]
    sigma2 = (rss_full[:, None] + np.pad(tail, ((0, 0), (0, 1)))) / T_eff
    s = np.linalg.svd(R, compute_uv=False)
    singular = s[:, -1] <= np.finfo(float).eps * T_eff * s[:, 0]

    best, choice = np.full(B, np.inf), np.full(B, orders[0])
    for p in orders:  # an order with no AICc is never better
        if T_eff - p - 3 > 0:
            aicc = T_eff * np.log(np.maximum(sigma2[:, p], 1e-300)) + (
                2.0 * (p + 2) * T_eff / (T_eff - p - 3))
            better = aicc < best - 1e-12
            best, choice = np.where(better, aicc, best), np.where(better, p, choice)

    models: list[ARModel | None] = [None] * B
    for p in np.unique(choice[~singular]):
        rows = np.flatnonzero((choice == p) & ~singular)
        beta = np.linalg.solve(R[rows, : p + 1, : p + 1], qty[rows, : p + 1])[:, :, 0]
        for r, b in zip(rows, beta):
            models[r] = ARModel(int(p), b[1:], float(b[0]), float(sigma2[r, p]))
    return models


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
    e = np.asarray(shocks, dtype=float)
    if e.ndim not in (1, 2) or e.shape[-1] != h:
        raise ValueError(f"shocks must have shape ({h},) or (L, {h})")
    y, E = np.asarray(history, dtype=float).reshape(1, -1), e.reshape(1, -1, h)
    paths = _simulate_paths([model], y, np.full(E.shape[1], y.size), E, np.empty(E.shape))
    return paths[0] if e.ndim == 2 else paths[0, 0]


def _simulate_paths(models, Y, origins, shocks, out: np.ndarray) -> np.ndarray:
    """The AR recursion of B models, one per row of the (B, T) series Y,
    from one origin per path: path l of row b starts after Y[b, :o] with
    o = ``origins[l]``, so its lags are Y[b, o - p : o], and takes its h
    shocks from ``shocks[b, l]``.  The (B, L, h) paths are written into
    ``out``, any view, and returned.  The models of one order run as one
    stacked recursion, so each path has the bits it has alone."""
    B, L, h = shocks.shape
    groups: dict[int, list[int]] = {}
    for r, model in enumerate(models):
        groups.setdefault(model.order, []).append(r)
    for p, rows in groups.items():
        if L and origins.min() < p:
            raise ValueError(f"history of length {origins.min()} < order {p}")
        sel = slice(None) if len(rows) == B else rows  # one order: no copies
        # (row, lag or step, path): each step's values are contiguous
        buf = np.empty((len(rows), p + h, L))
        buf[:, :p] = Y[sel].take(np.arange(-p, 0)[:, None] + origins, axis=1)
        E = shocks[sel]
        phi = np.array([models[r].coefficients for r in rows]).reshape(len(rows), p, 1)
        intercept = np.array([models[r].intercept for r in rows])[:, None]
        for step in range(h):
            val = intercept + E[:, :, step]
            for lag in range(1, p + 1):
                val = val + phi[:, lag - 1] * buf[:, p + step - lag]
            buf[:, p + step] = val
        out[sel] = buf[:, p:].transpose(0, 2, 1)
    return out


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
    origins = np.arange(model.order, y.size - h + 1)  # every origin with p values
    shape = (1, origins.size, h)
    paths = _simulate_paths([model], y[None], origins, np.zeros(shape), np.empty(shape))
    return np.concatenate([np.full(y.size - origins.size, np.nan), paths[0, :, -1]])

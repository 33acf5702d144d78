"""Probabilistic reconciliation: samplers and sample reconciliation.

A sample from the reconciled predictive distribution is obtained by
reconciling each member of a sample from the incoherent base
distribution.  Two base samplers are provided:

* Gaussian: draws from N(mean, covariance); when the covariance carries a
  low-rank factorisation (the structured kinds), draws are generated in
  the reduced space and expanded through the factor.
* Cross-temporal joint block bootstrap (ctjb): one most-aggregated period
  index is drawn per replicate and the residual blocks of that period for
  every series and every aggregation order, jointly, drive simulated
  forecast paths.

All randomness is drawn in a single vectorised pass from a seeded
generator before any per-draw work, so splitting draws across workers
cannot change the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ctreco.covariance import CovarianceMatrix
from ctreco.hierarchy import CrossTemporalStructure
from ctreco.models import ARModel, simulate_path
from ctreco.reconcile import ReconciliationMap, reconcile_point
from ctreco.residuals import ResidualSet

__all__ = [
    "ForecastSample",
    "GaussianForecast",
    "gaussian_reconcile",
    "sample_gaussian",
    "ctjb_sample",
    "reconcile_sample",
]

_COHERENCE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ForecastSample:
    """L draws of the stacked forecast vector, one per row."""

    structure: CrossTemporalStructure
    draws: np.ndarray = field(repr=False)
    coherent: bool = False
    provenance: str = "external"

    def __post_init__(self):
        D = np.asarray(self.draws, dtype=float)
        if D.ndim != 2 or D.shape[1] != self.structure.dim:
            raise ValueError(
                f"draws must be (L, {self.structure.dim}), got {D.shape}"
            )
        if not np.all(np.isfinite(D)):
            raise ValueError("draws contain non-finite values")
        if self.coherent:
            resid = np.abs(D @ self.structure.constraints.T)
            scale = 1.0 + np.abs(D).max(axis=1)
            if np.any(resid.max(axis=1) > _COHERENCE_TOL * scale):
                raise ValueError("coherent=True but some draw violates the constraints")
        D.flags.writeable = False
        object.__setattr__(self, "draws", D)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]


@dataclass(frozen=True, eq=False)
class GaussianForecast:
    """Mean and covariance of a Gaussian (base or reconciled) forecast."""

    mean: np.ndarray = field(repr=False)
    covariance: CovarianceMatrix

    def __post_init__(self):
        mu = np.asarray(self.mean, dtype=float)
        if mu.ndim != 1 or mu.size != self.covariance.dim:
            raise ValueError("mean length must match the covariance dimension")
        mu.flags.writeable = False
        object.__setattr__(self, "mean", mu)


def gaussian_reconcile(
    base: GaussianForecast, rec_map: ReconciliationMap
) -> GaussianForecast:
    """Closed-form reconciled Gaussian: mean M x, covariance M Sigma M'."""
    M = rec_map.M
    if base.mean.size != M.shape[0]:
        raise ValueError("dimension mismatch between forecast and map")
    mean = M @ base.mean
    cov = M @ base.covariance.values @ M.T
    return GaussianForecast(
        mean=mean,
        covariance=CovarianceMatrix(cov, base.covariance.spec,
                                    lambda_used=base.covariance.lambda_used),
    )


def _sqrt_factor(cov: CovarianceMatrix) -> np.ndarray:
    """Matrix R with R R' = covariance (Cholesky, eigen fallback for PSD)."""
    V = cov.values
    try:
        return np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        w, Q = np.linalg.eigh(V)
        w = np.clip(w, 0.0, None)
        return Q * np.sqrt(w)


def sample_gaussian(
    base: GaussianForecast,
    structure: CrossTemporalStructure,
    L: int,
    seed: int | None = None,
) -> ForecastSample:
    """Draw L i.i.d. vectors from the Gaussian base forecast.

    With a factored covariance the noise is generated in the reduced
    space and mapped through the factor, so for a coherent mean the raw
    draws are already coherent.
    """
    if L < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    cov = base.covariance
    if cov.factor is not None and cov.core is not None:
        R = _sqrt_factor(CovarianceMatrix(cov.core, cov.spec))
        z = rng.standard_normal((L, cov.core.shape[0]))
        draws = base.mean + (z @ R.T) @ cov.factor.T
    else:
        R = _sqrt_factor(cov)
        draws = base.mean + rng.standard_normal((L, cov.dim)) @ R.T
    return ForecastSample(
        structure=structure,
        draws=draws,
        coherent=False,
        provenance=f"gaussian({cov.spec.kind})",
    )


def ctjb_sample(
    structure: CrossTemporalStructure,
    models: dict[tuple[int, int], ARModel],
    histories: dict[tuple[int, int], np.ndarray],
    residuals: ResidualSet,
    L: int,
    seed: int | None = None,
) -> ForecastSample:
    """Cross-temporal joint block bootstrap of the base forecasts.

    For each draw one period index tau is sampled uniformly with
    replacement; the residual block of period tau -- the same tau for
    every series and every aggregation order -- supplies the shocks for a
    simulated forecast path of each (series, order) model, one
    most-aggregated period ahead.
    """
    if L < 1:
        raise ValueError("need at least one draw")
    if residuals.kind != "one_step":
        raise ValueError(
            f"ctjb resamples one-step residual blocks, got {residuals.kind!r}"
        )
    st = structure
    N = residuals.n_periods
    if N < 1:
        raise ValueError("empty residual set")
    rng = np.random.default_rng(seed)
    taus = rng.integers(0, N, size=L)
    draws = np.empty((L, st.dim))
    for i in range(st.n):
        for k in st.te.factors:
            block = residuals.block(i, k)  # (N, M_k)
            draws[:, st.block_slice(i, k)] = simulate_path(
                models[(i, k)], histories[(i, k)], block.shape[1], block[taus]
            )
    return ForecastSample(
        structure=st, draws=draws, coherent=False, provenance="ctjb"
    )


def reconcile_sample(
    sample: ForecastSample, rec_map: ReconciliationMap
) -> ForecastSample:
    """Reconcile every draw, preserving order and count."""
    reconciled = reconcile_point(rec_map, sample.draws)
    return ForecastSample(
        structure=sample.structure,
        draws=reconciled,
        coherent=True,
        provenance=sample.provenance,
    )

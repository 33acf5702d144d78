"""Probabilistic reconciliation: samplers and sample reconciliation.

A sample from the reconciled predictive distribution is obtained by
reconciling each member of a sample from the incoherent base
distribution.  Two base samplers are provided:

* Gaussian: draws mean + A z from N(mean, A A') through the covariance's
  root A (d x q).  A covariance built from N residual rows of r columns
  is held as that root with q = min(N, r), so no d x d matrix is
  decomposed; for the structured kinds it is held factored, A = F B with
  B the core's root, and lies in the span of the summation factor F.
* Cross-temporal joint block bootstrap (ctjb): one most-aggregated period
  index is drawn per replicate and the residual blocks of that period for
  every series and every aggregation order, jointly, drive simulated
  forecast paths, simulated once per drawn period (``ctjb_paths``).

A Gaussian forecast is also reconciled in closed form
(``gaussian_reconcile``): N(S G x, S (G Sigma G') S'), held factored with
the core root G A; only a dense Sigma is decomposed, for its root A.

All randomness is drawn in a single vectorised pass from a seeded
generator before any per-draw work, so splitting draws across workers
cannot change the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ctreco.covariance import CovarianceMatrix
from ctreco.hierarchy import CrossTemporalStructure
from ctreco.models import ARModel, _simulate_paths
from ctreco.reconcile import ReconciliationMap, reconcile_point
from ctreco.residuals import ResidualSet

__all__ = [
    "ForecastSample",
    "GaussianForecast",
    "gaussian_reconcile",
    "sample_gaussian",
    "ctjb_paths",
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
            resid = np.abs(self.structure.constraints_csr @ D.T)
            scale = 1.0 + np.abs(D).max(axis=1)
            if np.any(resid.max(axis=0, initial=0.0) > _COHERENCE_TOL * scale):
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
    """Closed-form reconciled Gaussian: mean S G x and covariance
    S (G Sigma G') S', held factored with the core root G A, A the root of
    Sigma; M is not formed, and Sigma is decomposed only if held dense."""
    mean, cov = reconcile_point(rec_map, base.mean), base.covariance
    core = CovarianceMatrix(None, cov.spec, low_rank=rec_map.G @ cov.root)
    S = rec_map.structure.summation_csr
    return GaussianForecast(mean, CovarianceMatrix(
        None, cov.spec, cov.lambda_used, factor=S, core=core))


def sample_gaussian(
    base: GaussianForecast,
    structure: CrossTemporalStructure,
    L: int,
    seed: int | None = None,
) -> ForecastSample:
    """Draw L i.i.d. vectors from the Gaussian base forecast.

    Each draw is mean + A z, z ~ N(0, I_q), with A the (d, q) root of
    the covariance (``CovarianceMatrix.root``).  A residual-built root has
    q = min(N, r) columns (N residual rows of r columns) and for the
    structured kinds lies in the span of the summation factor, so for a
    coherent mean their raw draws are already coherent.
    """
    if L < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    cov = base.covariance
    A = cov.root
    draws = base.mean + rng.standard_normal((L, A.shape[1])) @ A.T
    return ForecastSample(
        structure=structure,
        draws=draws,
        coherent=False,
        provenance=f"gaussian({cov.spec.kind})",
    )


def ctjb_paths(structure: CrossTemporalStructure, models: dict, histories: dict,
               residuals: ResidualSet, L: int, seed: int | None = None):
    """(paths, index): ``paths[index]`` is the ctjb sample, each drawn period's
    paths simulated once, in period order; ValueError if a path is not finite."""
    if L < 1:
        raise ValueError("need at least one draw")
    if residuals.kind != "one_step":
        raise ValueError(
            f"ctjb resamples one-step residual blocks, got {residuals.kind!r}"
        )
    N = residuals.n_periods
    if N < 1:
        raise ValueError("empty residual set")
    taus = np.random.default_rng(seed).integers(0, N, size=L)
    drawn = np.bincount(taus, minlength=N) > 0
    paths = _stacked_paths(structure, models, histories, residuals.E,
                           np.flatnonzero(drawn))
    if not np.all(np.isfinite(paths)):
        raise ValueError("draws contain non-finite values")
    return paths, np.cumsum(drawn)[taus] - 1


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
    most-aggregated period ahead, once per drawn period (``ctjb_paths``).
    The histories of one order must be of one length.
    """
    paths, index = ctjb_paths(structure, models, histories, residuals, L, seed)
    return ForecastSample(
        structure=structure, draws=paths[index], coherent=False, provenance="ctjb"
    )


def _stacked_paths(structure, models, histories, shocks, rows=slice(None)):
    """Simulated paths of every (series, order) model, one most-aggregated
    period past its history, driven by the ``rows`` of the (N, dim)
    ``shocks`` in the stacked layout and laid out as they are; zero shocks
    give the point forecasts.  Each temporal order's models run in one
    batched recursion from the end of their stacked histories, of one
    length, each path with the bits ``simulate_path`` gives it, written
    straight into the result."""
    st = structure
    E = np.reshape(shocks, (-1, st.n, st.te.dim))  # (period, series, cell)
    out = np.empty((np.arange(E.shape[0])[rows].size, st.n, st.te.dim))
    for k in st.te.factors:
        cols = st.block_slice(0, k)  # order k's cells in each series' block
        keys = [(i, k) for i in range(st.n)]
        lengths = [np.size(histories[key]) for key in keys]
        if len(set(lengths)) > 1:
            raise ValueError(f"histories of order {k} differ in length: {lengths}")
        _simulate_paths([models[key] for key in keys],
                        np.array([histories[key] for key in keys], dtype=float),
                        np.full(out.shape[0], lengths[0]),
                        E[rows, :, cols].transpose(1, 0, 2),
                        out[:, :, cols].transpose(1, 0, 2))
    return out.reshape(-1, st.dim)


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

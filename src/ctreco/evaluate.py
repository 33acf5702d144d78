"""The method registry and the per-origin evaluation kernel.

The Monte Carlo study (``simulation.run_study``) and the expanding-window
experiment (``pipeline.run_pipeline``) both evaluate forecast origins
here: fit, sample, reconcile with every method and score every
method x sampler cell.  The study and the pipeline only choose the data
and the seeds and average the scores.
"""

from __future__ import annotations

import numpy as np

from ctreco.covariance import CovarianceSpec, build_omega
from ctreco.exceptions import ValidationError
from ctreco.hierarchy import CrossTemporalStructure
from ctreco.models import forecast
from ctreco.probabilistic import GaussianForecast, ctjb_sample, sample_gaussian
from ctreco.reconcile import (
    _apply_unchecked,
    bottom_up,
    build_projection,
    composite_map,
    set_negative_to_zero,
)
from ctreco.residuals import (
    aggregate_levels,
    assemble_multistep,
    assemble_onestep,
    assemble_overlapping,
    fit_level_models,
)
from ctreco.scoring import ScoreRaw, frobenius_gap, relative_indices, score_draws

__all__ = [
    "PROJECTIONS",
    "COMPOSITES",
    "METHODS",
    "GAUSS_KINDS",
    "SAMPLERS",
    "check_grid",
    "base_forecasts",
    "evaluate_origin",
    "relative_reports",
]

# optimal projections: method -> (covariance kind, residuals it is built on)
PROJECTIONS = {
    "oct-ols": ("ols", None),
    "oct-struc": ("struc", None),
    "oct-wlsv": ("wlsv", "one_step"),
    "oct-bdshr": ("bdshr", "one_step"),
    "octh-shr": ("shr", "multi"),
    "octh-bshr": ("b", "multi"),
    "octh-hshr": ("h", "multi"),
    "octh-hbshr": ("hb", "multi"),
}
# partly bottom-up composites: method -> (mode, inner covariance kind)
COMPOSITES = {
    "ct-shrcs-bute": ("cs_then_te_bu", "shr"),
    "ct-wlsvte-bucs": ("te_then_cs_bu", "wlsv"),
}
METHODS = ("base", "ct-bu") + tuple(COMPOSITES) + tuple(PROJECTIONS)

# Gaussian samplers: sampler -> unshrunk covariance kind of the multi-step
# residuals; "ctjb" is the cross-temporal joint bootstrap
GAUSS_KINDS = {"gauss-g": "sam", "gauss-b": "b", "gauss-h": "h", "gauss-hb": "hb"}
SAMPLERS = ("ctjb",) + tuple(GAUSS_KINDS)


def check_grid(methods, samplers, benchmark: str = "base@ctjb") -> None:
    """Raise ValidationError for an unknown or repeated method or sampler,
    or for a benchmark cell outside the grid."""
    for what, names, known in (("method", methods, METHODS),
                               ("sampler", samplers, SAMPLERS)):
        for i, name in enumerate(names):
            if name not in known:
                raise ValidationError(f"unknown {what} {name!r}")
            if name in names[:i]:
                raise ValidationError(f"repeated {what} {name!r}")
    labels = [f"{m}@{s}" for m in methods for s in samplers]
    if benchmark not in labels:
        raise ValidationError(f"benchmark {benchmark!r} not in the grid {labels}")


def base_forecasts(
    structure: CrossTemporalStructure, models: dict, data: dict
) -> np.ndarray:
    """Stacked point forecasts of every (series, order) model, one
    most-aggregated period ahead of its training data."""
    st = structure
    xhat = np.empty(st.dim)
    for i in range(st.n):
        for k in st.te.factors:
            xhat[st.block_slice(i, k)] = forecast(
                models[(i, k)], data[(i, k)], st.te.periods_at(k)
            )
    return xhat


def _reconcile(mth, draws, st, maps) -> np.ndarray:
    if mth == "base":
        return draws
    if mth == "ct-bu":
        return bottom_up(st, draws[:, st.bottom_hf_indices()])
    if mth in COMPOSITES:
        return maps[mth](draws)
    return _apply_unchecked(maps[mth], draws)  # sampled draws are finite


def evaluate_origin(
    structure: CrossTemporalStructure,
    train: np.ndarray,
    z: np.ndarray,
    methods: tuple[str, ...],
    samplers: tuple[str, ...],
    L: int,
    seeds,
    *,
    max_order: int,
    criterion: str,
    residuals: str,
    nonneg: bool,
    omega_true=None,
):
    """Score every method x sampler cell at one forecast origin.

    ``train`` is the (n, T) highest-frequency panel before the origin (T a
    multiple of m), ``z`` the stacked held-out period, ``seeds`` one seed
    per sampler; the names must have passed ``check_grid``.  With
    ``nonneg`` the draws of every method but ``base`` are clamped.
    Returns CRPS per (method, sampler, series, order), energy score per
    (method, sampler, order) and, given the true error covariance
    ``omega_true``, each cell's Frobenius gap from it (else None).
    """
    st = structure
    data = aggregate_levels(st, train)
    models = fit_level_models(data, max_order=max_order, criterion=criterion)
    one_step = assemble_onestep(st, models, data)
    if residuals == "overlapping_multi_step":
        multi = assemble_overlapping(st, models, train)
    else:
        multi = assemble_multistep(st, models, data)
    xhat = base_forecasts(st, models, data)

    sources = {"one_step": one_step, "multi": multi, None: None}
    maps = {}  # built once per origin, applied to every sampler's draws
    for mth in methods:
        if mth in PROJECTIONS:
            kind, source = PROJECTIONS[mth]
            omega = build_omega(CovarianceSpec(kind), st, sources[source])
            maps[mth] = build_projection(st, omega)
        elif mth in COMPOSITES:
            mode, inner = COMPOSITES[mth]
            maps[mth] = composite_map(st, mode, CovarianceSpec(inner), one_step)

    shape = (len(methods), len(samplers))
    crps = np.empty(shape + (st.n, len(st.te.factors)))
    es = np.empty(shape + (len(st.te.factors),))
    frobenius = None if omega_true is None else np.empty(shape)
    for s_idx, smp in enumerate(samplers):
        if smp == "ctjb":
            sample = ctjb_sample(st, models, data, one_step, L, seed=seeds[s_idx])
        else:
            sigma = build_omega(CovarianceSpec(GAUSS_KINDS[smp], lam=0.0), st, multi)
            sample = sample_gaussian(
                GaussianForecast(xhat, sigma), st, L, seed=seeds[s_idx]
            )
        for m_idx, mth in enumerate(methods):
            draws = _reconcile(mth, sample.draws, st, maps)
            if nonneg and mth != "base":
                draws = set_negative_to_zero(st, draws)
            raw = score_draws(st, draws, z)
            crps[m_idx, s_idx] = raw.crps
            es[m_idx, s_idx] = raw.es
            if omega_true is not None:
                emp_cov = np.cov(draws.T, bias=True)
                frobenius[m_idx, s_idx] = frobenius_gap(emp_cov, omega_true)
    return crps, es, frobenius


def relative_reports(
    methods, samplers, orders, crps, es, benchmark: str = "base@ctjb"
) -> dict:
    """ScoreReport of every ``"method@sampler"`` cell against the benchmark
    cell, from scores laid out as ``evaluate_origin`` returns them."""
    b_mth, b_smp = benchmark.split("@")
    b = methods.index(b_mth), samplers.index(b_smp)
    bench = ScoreRaw(benchmark, orders, crps[b], es[b])
    reports = {}
    for m_idx, mth in enumerate(methods):
        for s_idx, smp in enumerate(samplers):
            raw = ScoreRaw(
                f"{mth}@{smp}", orders, crps[m_idx, s_idx], es[m_idx, s_idx]
            )
            reports[raw.label] = relative_indices(raw, bench)
    return reports

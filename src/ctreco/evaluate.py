"""The method registry, the per-origin evaluation kernel and the origin loop.

``REGISTRY`` maps every reconciliation method to a family, the covariance
kind it weights with and the residuals that covariance is built on;
``reconciler`` builds a family's map once, for this kernel and for the
CLI's ``reconcile`` alike.

The Monte Carlo study (``simulation.run_study``) and the expanding-window
experiment (``pipeline.run_pipeline``) both evaluate forecast origins
here: ``evaluate_origin`` scores every method x sampler cell of one
origin, and ``evaluate_origins``, the one origin loop, runs it serially or
over a process pool; every origin brings its own seeds, so the scores do
not depend on the pool.  The study and the pipeline only choose the data
and the seeds and average the scores.  Every map works row by row, so a
ctjb cell reconciles each drawn period's paths once, then gathers.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from ctreco.covariance import CovarianceSpec, build_omega
from ctreco.exceptions import ValidationError
from ctreco.hierarchy import CrossTemporalStructure
from ctreco.probabilistic import (GaussianForecast, _stacked_paths, ctjb_paths,
                                  sample_gaussian)
from ctreco.reconcile import build_projection, composite_map, set_negative_to_zero
from ctreco.residuals import (
    ResidualSet,
    aggregate_levels,
    assemble_multistep,
    assemble_onestep,
    assemble_overlapping,
    fit_level_models,
)
from ctreco.scoring import ScoreRaw, frobenius_gap, relative_indices, score_draws

__all__ = [
    "REGISTRY",
    "METHODS",
    "GAUSS_KINDS",
    "SAMPLERS",
    "check_grid",
    "reconciler",
    "base_forecasts",
    "evaluate_origin",
    "evaluate_origins",
    "relative_reports",
]

# method -> (family, covariance kind, residuals the covariance is built on)
REGISTRY = {
    "base": ("base", None, None),
    "ct-bu": ("ct-bu", None, None),
    "ct-shrcs-bute": ("cs_then_te_bu", "shr", "one_step"),
    "ct-wlsvte-bucs": ("te_then_cs_bu", "wlsv", "one_step"),
    "oct-ols": ("oct", "ols", None),
    "oct-struc": ("oct", "struc", None),
    "oct-wlsv": ("oct", "wlsv", "one_step"),
    "oct-bdshr": ("oct", "bdshr", "one_step"),
    "octh-shr": ("oct", "shr", "multi"),
    "octh-bshr": ("oct", "b", "multi"),
    "octh-hshr": ("oct", "h", "multi"),
    "octh-hbshr": ("oct", "hb", "multi"),
}
METHODS = tuple(REGISTRY)

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
    return _stacked_paths(structure, models, data, np.zeros((1, structure.dim)))[0]


def reconciler(
    structure: CrossTemporalStructure,
    family: str,
    spec: CovarianceSpec | None = None,
    residuals: ResidualSet | None = None,
):
    """The function reconciling a stacked vector or an (L, dim) block by
    one family, built once: ``base`` is the identity, ``oct`` the
    ``ReconciliationMap`` of the covariance ``spec`` builds from
    ``residuals``, ``ct-bu`` bottom-up and ``cs_then_te_bu`` /
    ``te_then_cs_bu`` the composites weighting with ``spec``.  None of
    them checks that its input is finite."""
    if family == "base":
        return lambda x: x
    if family == "oct":
        return build_projection(structure, build_omega(spec, structure, residuals))
    if family == "ct-bu":  # both inner steps bottom-up
        family, spec = "te_then_cs_bu", None
    return composite_map(structure, family, spec, residuals)


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
    ``nonneg`` the draws of every method but ``base`` are clamped.  A ctjb
    cell maps its distinct paths (``ctjb_paths``), then gathers the draws in
    the layout scores were summed in: C order for ``base``, F for the rest.
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
        family, kind, source = REGISTRY[mth]
        spec = CovarianceSpec(kind) if kind else None
        maps[mth] = reconciler(st, family, spec, sources[source])

    shape = (len(methods), len(samplers))
    crps = np.empty(shape + (st.n, len(st.te.factors)))
    es = np.empty(shape + (len(st.te.factors),))
    frobenius = None if omega_true is None else np.empty(shape)
    for s_idx, smp in enumerate(samplers):
        if smp == "ctjb":  # the distinct paths, and the row of each draw
            rows, index = ctjb_paths(st, models, data, one_step, L, seed=seeds[s_idx])
            # the cells gather into one buffer: new L-row blocks would page-fault
            c_out = np.empty((L, st.dim))
            f_out = c_out.reshape(st.dim, L)  # the same memory, for F order
        else:
            sigma = build_omega(CovarianceSpec(GAUSS_KINDS[smp], lam=0.0), st, multi)
            gauss = GaussianForecast(xhat, sigma)
            rows, index = sample_gaussian(gauss, st, L, seed=seeds[s_idx]).draws, None
        for m_idx, mth in enumerate(methods):
            draws = maps[mth](rows)  # sampled rows are finite
            if nonneg and mth != "base":
                draws = set_negative_to_zero(st, draws)
            if index is not None:  # "clip" (indices in range): out is unbuffered
                draws = (np.take(draws, index, 0, out=c_out, mode="clip")
                         if mth == "base" else
                         np.take(draws.T, index, 1, out=f_out, mode="clip").T)
            raw = score_draws(st, draws, z)
            crps[m_idx, s_idx] = raw.crps
            es[m_idx, s_idx] = raw.es
            if omega_true is not None:
                emp_cov = np.cov(draws.T, bias=True)
                frobenius[m_idx, s_idx] = frobenius_gap(emp_cov, omega_true)
    return crps, es, frobenius


def _evaluate_at(structure, methods, samplers, L, kw, origin):
    """``evaluate_origin`` at one ``(train, z, seeds)``, as a pool maps it."""
    train, z, seeds = origin
    return evaluate_origin(structure, train, z, methods, samplers, L, seeds, **kw)


def evaluate_origins(structure, origins, methods, samplers, L, *, jobs=1, **kw):
    """``evaluate_origin`` with the keywords ``kw`` at each of the (one or
    more) ``(train, z, sampler_seeds)`` that ``origins`` yields, taken one
    at a time or, with ``jobs`` > 1, by a pool of that many processes, each
    job carrying its own origin's data.  Returns the CRPS, energy scores and
    Frobenius gaps (None without ``omega_true``), stacked origin first."""
    score = partial(_evaluate_at, structure, methods, samplers, L, kw)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            crps, es, frobenius = zip(*pool.map(score, origins))
    else:
        crps, es, frobenius = zip(*map(score, origins))
    return (np.stack(crps), np.stack(es),
            None if frobenius[0] is None else np.stack(frobenius))


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

"""Traced replicas of one pipeline origin and one study replicate.

Each replica calls the layers' public functions in the order the driver
calls them (``pipeline._score_origin`` and the replicate body of
``simulation.run_study``) and times every call from outside through a
``Tracer``.  With the same inputs it produces the same draws and scores as
the driver, which the verification step checks, so the replica also
hands the verification step the draws the driver never exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ctreco.covariance import CovarianceSpec, build_omega
from ctreco.hierarchy import CrossTemporalStructure, stack_window
from ctreco.io import Dataset
from ctreco.models import forecast
from ctreco.pipeline import PipelineConfig, origin_indices
from ctreco.probabilistic import GaussianForecast, ctjb_sample, sample_gaussian
from ctreco.reconcile import (
    bottom_up,
    build_projection,
    partly_bottom_up,
    reconcile_point,
)
from ctreco.residuals import (
    aggregate_levels,
    assemble_multistep,
    assemble_onestep,
    assemble_overlapping,
    fit_level_models,
)
from ctreco.scoring import ScoreRaw, frobenius_gap, relative_indices, score_draws
from ctreco.simulation import (
    SimulationConfig,
    simulate_dgp,
    study_structure,
    true_covariance,
)

from spans import Tracer

# The paper's method and sampler definitions, as the drivers use them.
OMEGA_OF_METHOD = {
    "oct-wlsv": ("wlsv", "one_step"),
    "oct-bdshr": ("bdshr", "one_step"),
    "octh-shr": ("shr", "multi"),
}
COMPOSITES = {
    "ct-shrcs-bute": ("cs_then_te_bu", "shr"),
    "ct-wlsvte-bucs": ("te_then_cs_bu", "wlsv"),
}
GAUSS_KIND = {"gauss-g": "sam", "gauss-b": "b", "gauss-h": "h", "gauss-hb": "hb"}


def _mb(dim: int) -> float:
    """Size of one dense (dim, dim) float64 matrix in MB (2**20 bytes)."""
    return dim * dim * 8 / 2**20


@dataclass
class OriginRun:
    """What one replicated origin produced."""

    structure: CrossTemporalStructure
    methods: tuple[str, ...]
    samplers: tuple[str, ...]
    z: np.ndarray = field(repr=False)
    crps: np.ndarray = field(repr=False)  # (methods, samplers, n, p)
    es: np.ndarray = field(repr=False)  # (methods, samplers, p)
    maps: dict = field(repr=False)  # method -> ReconciliationMap
    base: dict = field(repr=False, default_factory=dict)  # sampler -> draws
    draws: dict = field(repr=False, default_factory=dict)  # (mth, smp) -> draws
    frobenius: np.ndarray | None = field(repr=False, default=None)
    relative: dict = field(repr=False, default_factory=dict)  # label -> report
    # sampler -> its base draws drawn again with the same seed (kept runs)
    redraw: Callable[[str], np.ndarray] | None = field(repr=False, default=None)


@dataclass(frozen=True)
class Fitted:
    """Per-origin models, residuals and base point forecasts."""

    data: dict
    models: dict
    one_step: object
    multi: object
    xhat: np.ndarray


def _fit_and_forecast(tr: Tracer, st, train, max_order, criterion, residual_kind):
    with tr.span("residuals.aggregate"):
        data = aggregate_levels(st, train)
    with tr.span("models.fit") as c:
        models = fit_level_models(data, max_order=max_order, criterion=criterion)
        c["fits"] = len(models)
    with tr.span("residuals.assemble") as c:
        one_step = assemble_onestep(st, models, data)
        c["rows"] = one_step.n_periods
    with tr.span("residuals.assemble") as c:
        if residual_kind == "overlapping_multi_step":
            multi = assemble_overlapping(st, models, train)
        else:
            multi = assemble_multistep(st, models, data)
        c["rows"] = multi.n_periods
    with tr.span("models.forecast"):
        xhat = np.empty(st.dim)
        for i in range(st.n):
            for k in st.te.factors:
                xhat[st.block_slice(i, k)] = forecast(
                    models[(i, k)], data[(i, k)], st.te.periods_at(k)
                )
    return Fitted(data, models, one_step, multi, xhat)


def _maps(tr: Tracer, st, methods, fit: Fitted) -> dict:
    maps = {}
    for mth in methods:
        if mth not in OMEGA_OF_METHOD:
            continue
        kind, which = OMEGA_OF_METHOD[mth]
        with tr.span("covariance.build") as c:
            omega = build_omega(
                CovarianceSpec(kind), st,
                fit.one_step if which == "one_step" else fit.multi,
            )
            c.update(builds=1, dense_mb=_mb(st.dim))
        with tr.span("reconcile.projection") as c:
            maps[mth] = build_projection(st, omega)
            c["map_mb"] = _mb(st.dim)
    return maps


def _sample(tr: Tracer, st, smp, L, seed, fit: Fitted) -> np.ndarray:
    if smp == "ctjb":
        with tr.span("probabilistic.sample") as c:
            sample = ctjb_sample(st, fit.models, fit.data, fit.one_step, L, seed=seed)
            c["draws"] = L
        return sample.draws
    with tr.span("covariance.build") as c:
        sigma = build_omega(CovarianceSpec(GAUSS_KIND[smp], lam=0.0), st, fit.multi)
        c.update(builds=1, dense_mb=_mb(st.dim))
    with tr.span("probabilistic.sample") as c:
        sample = sample_gaussian(GaussianForecast(fit.xhat, sigma), st, L, seed=seed)
        c["draws"] = L
    return sample.draws


def _reconcile(tr: Tracer, st, mth, base, one_step, maps) -> np.ndarray:
    if mth == "base":
        return base
    with tr.span("reconcile.apply") as c:
        if mth == "ct-bu":
            out = bottom_up(st, base[:, st.bottom_hf_indices()])
        elif mth in COMPOSITES:
            mode, inner = COMPOSITES[mth]
            out = partly_bottom_up(st, mode, base, CovarianceSpec(inner), one_step)
        else:
            out = reconcile_point(maps[mth], base)
        c["draws"] = base.shape[0]
    return out


def _grid(tr: Tracer, st, methods, samplers, L, seeds, fit: Fitted, z,
          keep: bool, omega_true=None) -> OriginRun:
    """Maps, then per sampler its draws, reconciled and scored per method;
    with ``omega_true`` also the study's Frobenius gaps.  Ends with the
    drivers' relative indices against base@ctjb."""
    shape = (len(methods), len(samplers))
    run = OriginRun(
        structure=st, methods=methods, samplers=samplers, z=z,
        crps=np.empty(shape + (st.n, len(st.te.factors))),
        es=np.empty(shape + (len(st.te.factors),)),
        maps=_maps(tr, st, methods, fit),
        frobenius=None if omega_true is None else np.empty(shape),
    )
    if keep:
        run.redraw = lambda smp: _sample(
            Tracer(), st, smp, L, seeds[samplers.index(smp)], fit
        )
    for s_idx, smp in enumerate(samplers):
        base = _sample(tr, st, smp, L, seeds[s_idx], fit)
        if keep:
            run.base[smp] = base
        for m_idx, mth in enumerate(methods):
            draws = _reconcile(tr, st, mth, base, fit.one_step, run.maps)
            with tr.span("scoring.score") as c:
                raw = score_draws(st, draws, z)
                c["crps_cells"] = st.dim
            run.crps[m_idx, s_idx] = raw.crps
            run.es[m_idx, s_idx] = raw.es
            if omega_true is not None:
                with tr.span("simulation.frobenius"):
                    emp_cov = np.cov(draws.T, bias=True)
                    run.frobenius[m_idx, s_idx] = frobenius_gap(emp_cov, omega_true)
            if keep:
                run.draws[(mth, smp)] = draws
    b_m, b_s = methods.index("base"), samplers.index("ctjb")
    with tr.span("scoring.relative_indices"):
        bench = ScoreRaw("base@ctjb", st.te.factors, run.crps[b_m, b_s], run.es[b_m, b_s])
        for m_idx, mth in enumerate(methods):
            for s_idx, smp in enumerate(samplers):
                raw = ScoreRaw(
                    f"{mth}@{smp}", st.te.factors,
                    run.crps[m_idx, s_idx], run.es[m_idx, s_idx],
                )
                run.relative[raw.label] = relative_indices(raw, bench)
    return run


def pipeline_origin(
    tr: Tracer, dataset: Dataset, cfg: PipelineConfig, keep: bool = False
) -> OriginRun:
    """Replica of ``run_pipeline`` on a dataset holding exactly one origin."""
    st = dataset.structure
    m = st.te.m
    origins = origin_indices(dataset.n_obs, m, cfg.first_window, cfg.origin_step)
    if len(origins) != 1:
        raise ValueError(f"dataset holds {len(origins)} origins, expected 1")
    t0 = origins[0]
    with tr.span("hierarchy.stack_window"):
        z = stack_window(st, dataset.values[:, t0 : t0 + m])
    fit = _fit_and_forecast(
        tr, st, dataset.values[:, t0 % m : t0], cfg.max_order, cfg.criterion,
        cfg.residuals,
    )
    seeds = np.random.SeedSequence(cfg.seed, spawn_key=(0,)).spawn(len(cfg.samplers))
    return _grid(tr, st, cfg.methods, cfg.samplers, cfg.L, seeds, fit, z, keep)


def study_replicate(
    tr: Tracer,
    config: SimulationConfig,
    methods: tuple[str, ...],
    samplers: tuple[str, ...],
    keep: bool = False,
) -> OriginRun:
    """Replica of ``run_study`` with ``replicates=1``."""
    if config.replicates != 1 or config.redraw_sigmas:
        raise ValueError("the replica covers one replicate with fixed sigmas")
    with tr.span("hierarchy.study_structure"):
        st = study_structure()
    with tr.span("simulation.frobenius"):
        omega_true = true_covariance(config)
    child = np.random.SeedSequence(config.seed).spawn(1)[0]
    sim_seed, _sigma_seed, *seeds = child.spawn(2 + len(samplers))
    with tr.span("simulation.dgp"):
        hf = simulate_dgp(config, seed=sim_seed, extra_periods=1)
    with tr.span("hierarchy.stack_window"):
        z = stack_window(st, hf[:, -2:])
    fit = _fit_and_forecast(tr, st, hf[:, :-2], config.max_order, "aicc", "multi_step")
    return _grid(tr, st, methods, samplers, config.L, seeds, fit, z, keep, omega_true)

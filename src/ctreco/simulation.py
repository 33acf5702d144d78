"""Monte Carlo study on the two-bottom-series semi-annual hierarchy.

The data-generating process is a pair of AR(2) bottom series with
correlated Gaussian innovations, summed into one upper series and
temporally aggregated over two half-periods.  Because the process is
known, the one-period-ahead forecast error covariance of the stacked
vector has a closed form, against which the sample covariances of base
and reconciled draws can be compared (Frobenius gap), alongside
CRPS/energy-score accuracy relative to the bootstrap base forecasts.

Each replicate is one origin of ``evaluate.evaluate_origin``, the kernel
the expanding-window pipeline uses too; this module adds the process,
its closed-form covariance, the per-replicate seeds and the averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ctreco.covariance import CovarianceMatrix, CovarianceSpec
from ctreco.evaluate import (
    METHODS,
    SAMPLERS,
    check_grid,
    evaluate_origin,
    relative_reports,
)
from ctreco.hierarchy import (
    CrossTemporalStructure,
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    stack_window,
)

__all__ = [
    "SimulationConfig",
    "StudyResult",
    "study_structure",
    "true_covariance",
    "simulate_dgp",
    "run_study",
    "DEFAULT_METHODS",
    "DEFAULT_SAMPLERS",
]

# the study's grid: every method but the two projections that use no
# residuals, by every sampler
DEFAULT_METHODS = tuple(m for m in METHODS if m not in ("oct-ols", "oct-struc"))
DEFAULT_SAMPLERS = SAMPLERS


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of the study; defaults reproduce the reference setup."""

    phi_b: tuple[float, float] = (1.34, -0.74)
    phi_c: tuple[float, float] = (0.95, -0.42)
    sigma_b: float = 0.9
    sigma_c: float = 1.8
    rho: float = -0.8
    years: int = 500
    replicates: int = 50
    L: int = 500
    seed: int = 0
    max_order: int = 5
    redraw_sigmas: bool = False  # draw sigmas from U(0.5, 2) per replicate

    def __post_init__(self):
        if not abs(self.rho) < 1:
            raise ValueError("innovation correlation must satisfy |rho| < 1")
        if self.sigma_b <= 0 or self.sigma_c <= 0:
            raise ValueError("innovation scales must be positive")
        for phi in (self.phi_b, self.phi_c):
            companion = np.array([[phi[0], phi[1]], [1.0, 0.0]])
            if np.max(np.abs(np.linalg.eigvals(companion))) >= 1.0:
                raise ValueError(f"AR coefficients {phi} are not stationary")
        if min(self.years, self.replicates, self.L) < 1:
            raise ValueError("years, replicates and L must be positive")


def study_structure() -> CrossTemporalStructure:
    """The fixed hierarchy of the study: A = B + C, m = 2."""
    cs = build_cross_sectional(np.array([[1.0, 1.0]]))
    return build_cross_temporal(cs, build_temporal(2))


def true_covariance(config: SimulationConfig) -> CovarianceMatrix:
    """Closed-form one-period-ahead error covariance of the stacked vector.

    Built from the 4x4 covariance of the high-frequency bottom forecast
    errors (order B then C, two steps each) and expanded through the
    summation matrix.
    """
    st = study_structure()
    pb1 = config.phi_b[0]
    pc1 = config.phi_c[0]
    vb = config.sigma_b**2
    vc = config.sigma_c**2
    vbc = config.rho * config.sigma_b * config.sigma_c
    Q = np.array(
        [
            [vb, pb1 * vb, vbc, pc1 * vbc],
            [pb1 * vb, vb * (1 + pb1**2), pb1 * vbc, vbc * (1 + pb1 * pc1)],
            [vbc, pb1 * vbc, vc, pc1 * vc],
            [pc1 * vbc, vbc * (1 + pb1 * pc1), pc1 * vc, vc * (1 + pc1**2)],
        ]
    )
    values = st.summation @ Q @ st.summation.T
    return CovarianceMatrix(
        values, CovarianceSpec("hb", lam=0.0), factor=st.summation, core=Q
    )


def simulate_dgp(
    config: SimulationConfig, seed=None, extra_periods: int = 0
) -> np.ndarray:
    """Simulate the (3, T) highest-frequency panel, A = B + C.

    ``extra_periods`` appends whole extra most-aggregated periods, used
    as held-out truth in the study.
    """
    rng = np.random.default_rng(seed)
    m = 2
    T = (config.years + extra_periods) * m
    burn = 300
    cov = np.array(
        [
            [config.sigma_b**2, config.rho * config.sigma_b * config.sigma_c],
            [config.rho * config.sigma_b * config.sigma_c, config.sigma_c**2],
        ]
    )
    chol = np.linalg.cholesky(cov)
    eps = rng.standard_normal(size=(T + burn, 2)) @ chol.T
    phis = np.array([config.phi_b, config.phi_c])
    y = np.zeros((T + burn, 2))
    for t in range(2, T + burn):
        y[t] = phis[:, 0] * y[t - 1] + phis[:, 1] * y[t - 2] + eps[t]
    bottoms = y[burn:].T
    return np.vstack([bottoms.sum(axis=0, keepdims=True), bottoms])


@dataclass(frozen=True, eq=False)
class StudyResult:
    """Averaged study outputs, one row per method, one column per sampler."""

    methods: tuple[str, ...]
    samplers: tuple[str, ...]
    orders: tuple[int, ...]
    frobenius: np.ndarray = field(repr=False)  # (methods, samplers)
    # (methods, samplers), relative to base@ctjb
    avg_rel_crps: dict = field(repr=False)  # keys: k values and "all"
    rel_es: dict = field(repr=False)  # keys: k values and "all"
    raw_crps: np.ndarray = field(repr=False)  # (methods, samplers, n, p)
    raw_es: np.ndarray = field(repr=False)  # (methods, samplers, p)


def run_study(
    config: SimulationConfig,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    samplers: tuple[str, ...] = DEFAULT_SAMPLERS,
    nonneg: bool = False,
) -> StudyResult:
    """Full sampling-by-reconciliation grid, averaged over replicates.

    Per replicate: simulate, then ``evaluate.evaluate_origin`` fits one
    AR model per (series, order) by AICc, draws L base samples per
    sampler, reconciles per method, scores against the held-out period,
    and measures the Frobenius gap between each cell's draw covariance
    and the closed-form truth.  Relative indices use the bootstrap base
    forecasts as benchmark.

    Raises:
        ValidationError: an unknown method or sampler, or a grid without
            the (base, ctjb) cell.
    """
    check_grid(methods, samplers)
    st = study_structure()
    omega_true = true_covariance(config)
    n, p = st.n, len(st.te.factors)
    n_m, n_s = len(methods), len(samplers)

    crps_sum = np.zeros((n_m, n_s, n, p))
    es_sum = np.zeros((n_m, n_s, p))
    frob_sum = np.zeros((n_m, n_s))

    root = np.random.SeedSequence(config.seed)
    for ss in root.spawn(config.replicates):
        sim_seed, sigma_seed, *sampler_seeds = ss.spawn(2 + n_s)
        cfg = config
        if config.redraw_sigmas:
            srng = np.random.default_rng(sigma_seed)
            cfg = replace(
                config,
                sigma_b=float(srng.uniform(0.5, 2.0)),
                sigma_c=float(srng.uniform(0.5, 2.0)),
            )
        hf = simulate_dgp(cfg, seed=sim_seed, extra_periods=1)
        crps, es, frob = evaluate_origin(
            st, hf[:, :-2], stack_window(st, hf[:, -2:]), methods, samplers,
            config.L, sampler_seeds, max_order=config.max_order,
            criterion="aicc", residuals="multi_step", nonneg=nonneg,
            omega_true=omega_true,
        )
        crps_sum += crps
        es_sum += es
        frob_sum += frob

    crps_avg = crps_sum / config.replicates
    es_avg = es_sum / config.replicates
    reports = relative_reports(methods, samplers, st.te.factors, crps_avg, es_avg)

    def table(index):
        return np.array(
            [[index(reports[f"{m}@{s}"]) for s in samplers] for m in methods]
        )

    crps_tables = {k: table(lambda r: r.avg_rel_crps[k]) for k in st.te.factors}
    crps_tables["all"] = table(lambda r: r.avg_rel_crps_overall)
    es_tables = {k: table(lambda r: r.rel_es[k]) for k in st.te.factors}
    es_tables["all"] = table(lambda r: r.avg_rel_es_overall)
    return StudyResult(
        methods=tuple(methods),
        samplers=tuple(samplers),
        orders=st.te.factors,
        frobenius=frob_sum / config.replicates,
        avg_rel_crps=crps_tables,
        rel_es=es_tables,
        raw_crps=crps_avg,
        raw_es=es_avg,
    )

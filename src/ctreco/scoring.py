"""Probabilistic scores and method comparison.

CRPS is computed from sample draws with the exact empirical formula,
its pairwise term evaluated through the order statistics.  The energy
score uses the consecutive-pair estimator for its second term, with an
all-pairs variant behind a flag for sensitivity checks.

``score_draws`` scores a whole ``(L, dim)`` draw block column-wise: one
sort of the block gives the CRPS of every cell, ``np.add.reduceat``
averages the cells of each (series, order) block, and both energy-score
terms of every order come from a product of squared differences with
the cell-to-order indicator.  A call holds a few ``L x dim``
temporaries and makes no per-cell Python calls.

Relative accuracy indices are geometric means of score ratios against a
benchmark method, with the overall exponents 1/(n (k* + m)) and
1/(k* + m).

Method comparison uses the Friedman rank test (average ranks on ties,
with the usual tie correction) and the Nemenyi critical distance from
the studentized range distribution at level ``MCB_ALPHA`` = 0.05.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from ctreco.hierarchy import CrossTemporalStructure

__all__ = [
    "ScoreRaw",
    "ScoreReport",
    "crps",
    "energy_score",
    "score_draws",
    "relative_indices",
    "frobenius_gap",
    "mcb_nemenyi",
]

MCB_ALPHA = 0.05  # level of the Nemenyi critical distance


def _crps_columns(D: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Empirical CRPS of every column of the (L, d) draws ``D``.

    ``diff`` is ``D`` minus the observation row.  Per column this is
    mean |x_l - z| - (1 / 2L^2) sum_{l,j} |x_l - x_j|, with the pairwise
    term taken from the order statistics:
    sum_{l<j} (x_(j) - x_(l)) = sum_i (2i + 1 - L) x_(i), zero-based i.
    """
    L = D.shape[0]
    w = 2.0 * np.arange(L) + 1.0 - L
    return np.mean(np.abs(diff), axis=0) - (w @ np.sort(D, axis=0)) / (L * L)


def crps(draws: np.ndarray, z: float) -> float:
    """Empirical CRPS of univariate sample draws against an observation.

    mean |x_l - z| - (1 / 2L^2) sum_{l,j} |x_l - x_j|; the one-column case
    of the kernel ``score_draws`` uses.
    """
    x = np.asarray(draws, dtype=float).reshape(-1, 1)
    if x.shape[0] < 1:
        raise ValueError("need at least one draw")
    return float(_crps_columns(x, x - z)[0])


def energy_score(
    draws: np.ndarray, z: np.ndarray, pair_estimator: str = "consecutive"
) -> float:
    """Empirical energy score of multivariate draws against an observation.

    The default second term averages distances of consecutive draws,
    1/(2(L-1)) sum_l ||x_l - x_{l+1}||; ``pair_estimator="all"`` uses the
    all-pairs average instead.  Note the consecutive estimator depends on
    the draw order by construction.
    """
    X = np.asarray(draws, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    L, d = X.shape
    if L < 2:
        raise ValueError("need at least two draws")
    if zv.shape != (d,):
        raise ValueError(f"observation must have dimension {d}")
    term1 = float(np.mean(np.linalg.norm(X - zv, axis=1)))
    if pair_estimator == "consecutive":
        gaps = np.linalg.norm(X[:-1] - X[1:], axis=1)
        term2 = float(np.sum(gaps)) / (2.0 * (L - 1))
    elif pair_estimator == "all":
        diffs = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
        term2 = float(np.sum(diffs)) / (2.0 * L * L)
    else:
        raise ValueError(f"unknown pair estimator {pair_estimator!r}")
    return term1 - term2


@dataclass(frozen=True, eq=False)
class ScoreRaw:
    """Raw scores of one method: CRPS per (series, order), ES per order."""

    label: str
    orders: tuple[int, ...]
    crps: np.ndarray = field(repr=False)  # (n, p)
    es: np.ndarray = field(repr=False)  # (p,)

    def __post_init__(self):
        c = np.asarray(self.crps, dtype=float)
        e = np.asarray(self.es, dtype=float)
        if c.ndim != 2 or c.shape[1] != len(self.orders) or e.shape != (
            len(self.orders),
        ):
            raise ValueError("score array shapes do not match the orders")
        object.__setattr__(self, "crps", c)
        object.__setattr__(self, "es", e)


@dataclass(frozen=True, eq=False)
class ScoreReport:
    """Relative accuracy of one method against a benchmark."""

    label: str
    benchmark_id: str
    orders: tuple[int, ...]
    crps: np.ndarray = field(repr=False)
    es: np.ndarray = field(repr=False)
    avg_rel_crps: dict[int, float]
    avg_rel_crps_overall: float
    rel_es: dict[int, float]
    avg_rel_es_overall: float


def score_draws(
    structure: CrossTemporalStructure, draws: np.ndarray, observation: np.ndarray,
    label: str = "",
) -> ScoreRaw:
    """Score sample draws of the stacked vector against the realised one.

    CRPS is computed per cell and averaged over the horizon positions of
    each (series, order) block; the energy score of order k is taken on
    the full n * M_k dimensional block of that order, its second term on
    consecutive draws in the given row order.
    """
    st = structure
    D = np.asarray(draws, dtype=float)
    z = np.asarray(observation, dtype=float)
    if D.ndim != 2 or D.shape[1] != st.dim or z.shape != (st.dim,):
        raise ValueError("draws must be (L, dim) and observation (dim,)")
    L = D.shape[0]
    if L < 2:
        raise ValueError("need at least two draws")
    orders = st.te.factors
    periods = np.array([st.te.periods_at(k) for k in orders])
    offsets = np.array([st.te.offset_of(k) for k in orders])

    diff = D - z
    cell_crps = _crps_columns(D, diff)
    # (series, order) blocks tile the stacked vector in layout order
    starts = st.cell_indices(range(st.n), offsets).ravel()
    crps_mat = np.add.reduceat(cell_crps, starts).reshape(st.n, len(orders))
    crps_mat /= periods

    cell_order = np.tile(np.repeat(np.arange(len(orders)), periods), st.n)
    ind = (cell_order[:, None] == np.arange(len(orders))).astype(float)
    np.square(diff, out=diff)
    term1 = np.mean(np.sqrt(diff @ ind), axis=0)
    gaps = np.subtract(D[1:], D[:-1], out=diff[1:])
    np.square(gaps, out=gaps)
    term2 = np.sum(np.sqrt(gaps @ ind), axis=0) / (2.0 * (L - 1))
    return ScoreRaw(label=label, orders=orders, crps=crps_mat, es=term1 - term2)


def relative_indices(scores: ScoreRaw, benchmark: ScoreRaw) -> ScoreReport:
    """Geometric-mean relative indices against a benchmark method."""
    if scores.orders != benchmark.orders:
        raise ValueError("methods were scored on different order sets")
    if np.any(benchmark.crps <= 0.0) or np.any(benchmark.es <= 0.0):
        raise ValueError("benchmark scores must be strictly positive")
    orders = scores.orders
    m = orders[0]
    cells = sum(m // k for k in orders)  # k* + m
    n = scores.crps.shape[0]

    log_ratio = np.log(scores.crps) - np.log(benchmark.crps)
    avg_rel_crps = {
        k: float(np.exp(np.mean(log_ratio[:, kk])))
        for kk, k in enumerate(orders)
    }
    overall_crps = float(np.exp(np.sum(log_ratio) / (n * cells)))

    log_es = np.log(scores.es) - np.log(benchmark.es)
    rel_es = {k: float(np.exp(log_es[kk])) for kk, k in enumerate(orders)}
    overall_es = float(np.exp(np.sum(log_es) / cells))

    return ScoreReport(
        label=scores.label,
        benchmark_id=benchmark.label,
        orders=orders,
        crps=scores.crps,
        es=scores.es,
        avg_rel_crps=avg_rel_crps,
        avg_rel_crps_overall=overall_crps,
        rel_es=rel_es,
        avg_rel_es_overall=overall_es,
    )


def frobenius_gap(estimated, truth) -> float:
    """Frobenius norm of the difference of two matrices."""
    A = estimated.values if hasattr(estimated, "values") else np.asarray(estimated)
    B = truth.values if hasattr(truth, "values") else np.asarray(truth)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    return float(np.linalg.norm(A - B, ord="fro"))


def mcb_nemenyi(score_matrix: np.ndarray) -> dict:
    """Friedman test plus Nemenyi critical-distance comparison.

    Args:
        score_matrix: (replicates, methods) scores, lower is better.

    Returns:
        dict with ``friedman_stat``, ``friedman_p``, ``mean_ranks``,
        ``critical_distance`` and ``equivalent_to_best`` (methods whose
        rank interval, mean rank +/- CD/2, overlaps the best method's).
    """
    S = np.asarray(score_matrix, dtype=float)
    if S.ndim != 2 or S.shape[0] < 2 or S.shape[1] < 2:
        raise ValueError("need at least 2 replicates and 2 methods")
    n_rep, k = S.shape
    ranks = np.apply_along_axis(stats.rankdata, 1, S)
    mean_ranks = ranks.mean(axis=0)

    rank_sums = ranks.sum(axis=0)
    statistic = (
        12.0 / (n_rep * k * (k + 1)) * np.sum(rank_sums**2)
        - 3.0 * n_rep * (k + 1)
    )
    # tie correction
    tie_term = 0.0
    for row in S:
        _, counts = np.unique(row, return_counts=True)
        tie_term += float(np.sum(counts**3 - counts))
    correction = 1.0 - tie_term / (n_rep * k * (k * k - 1))
    if correction <= 0.0:
        friedman_stat = 0.0
        friedman_p = 1.0
    else:
        friedman_stat = statistic / correction
        friedman_p = float(stats.chi2.sf(friedman_stat, df=k - 1))

    cd = float(
        stats.studentized_range.ppf(1.0 - MCB_ALPHA, k, np.inf)
        * np.sqrt(k * (k + 1) / (12.0 * n_rep))
    )
    best = int(np.argmin(mean_ranks))
    equivalent = np.abs(mean_ranks - mean_ranks[best]) <= cd
    return {
        "friedman_stat": float(friedman_stat),
        "friedman_p": friedman_p,
        "mean_ranks": mean_ranks,
        "critical_distance": cd,
        "best": best,
        "equivalent_to_best": equivalent,
    }

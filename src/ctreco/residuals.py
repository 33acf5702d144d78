"""Residual matrices for cross-temporal covariance estimation.

Residuals are laid out as one wide matrix E whose columns follow the
canonical stacked-vector ordering and whose rows correspond to
most-aggregated periods: row tau, block (series i, order k), column h
holds the error made for the h-th order-k value of period tau.

Three kinds are produced:

* ``multi_step``: the error of the h-step-ahead fitted value, forecast
  from the end of the previous most-aggregated period.  Suitable for all
  covariance estimators.
* ``one_step``: ordinary (rolling-origin, one-step-ahead) residuals,
  distributed into the same layout by target time.  Cells within an order
  are valid for per-series variances and same-time cross-series
  covariances, but cross-horizon cells are time-shifted copies, so this
  kind is only accepted by diagonal/block-diagonal estimators.
* ``overlapping_multi_step``: multi-step residuals pooled over all phase
  shifts of the aggregation windows, enlarging the row count.

All three come from one window kernel.  A window is a most-aggregated
period's worth of values starting at some highest-frequency time; its
row holds, for every (series, order) block, the gap between each value
and its fitted value at that horizon, read from one all-horizon fitted
array per block.  Multi-step residuals use the unshifted windows, one per
period; overlapping ones every shift of them; one-step ones the unshifted
windows with the one-step fitted value at every horizon.  Windows whose
origin lacks enough history for some fitted model are dropped before any
cell is read, so that E stays rectangular and time-aligned across blocks.

``ResidualSet.columns`` and ``h1_matrix`` gather cells through the
structure's index map ``cell_indices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ctreco.hierarchy import CrossTemporalStructure, temporally_aggregate
from ctreco.models import ARModel, _fitted_horizons, fit_ar

__all__ = [
    "ResidualSet",
    "aggregate_levels",
    "fit_level_models",
    "assemble_multistep",
    "assemble_onestep",
    "assemble_overlapping",
    "overlapping_series",
]

LevelKey = tuple[int, int]  # (series index, temporal aggregation order)


@dataclass(frozen=True, eq=False)
class ResidualSet:
    """Residuals in the canonical wide layout.

    Attributes:
        structure: the cross-temporal structure the columns refer to.
        E: (N, n * (m + k_star)) residual matrix.
        kind: one of ``one_step``, ``multi_step``,
            ``overlapping_multi_step``.
    """

    structure: CrossTemporalStructure
    E: np.ndarray = field(repr=False)
    kind: str

    def __post_init__(self):
        if self.kind not in ("one_step", "multi_step", "overlapping_multi_step"):
            raise ValueError(f"unknown residual kind {self.kind!r}")
        E = np.asarray(self.E, dtype=float)
        if E.ndim != 2 or E.shape[1] != self.structure.dim:
            raise ValueError(
                f"E must have {self.structure.dim} columns, got shape {E.shape}"
            )
        if not np.all(np.isfinite(E)):
            raise ValueError("residual matrix contains non-finite entries")
        E.flags.writeable = False
        object.__setattr__(self, "E", E)

    @property
    def n_periods(self) -> int:
        return self.E.shape[0]

    def block(self, series: int, k: int) -> np.ndarray:
        """Rows-by-horizons residuals of one (series, order) block."""
        return self.E[:, self.structure.block_slice(series, k)]

    def h1_matrix(self, k: int) -> np.ndarray:
        """One-step residuals of order k, one column per series.

        A one-step set pools every cell of the order, one row per
        (period, position) pair; a multi-step one keeps its h = 1 cells,
        one row per period.  Rows are aligned across series, as needed by
        per-order cross-sectional estimators.  The array is C-ordered.
        """
        st = self.structure
        width = st.te.periods_at(k) if self.kind == "one_step" else 1
        idx = st.cell_indices(range(st.n), st.te.offset_of(k) + np.arange(width))
        return self.E.take(idx.T, axis=1).reshape(-1, st.n)

    @cached_property
    def h1_mean_squares(self) -> np.ndarray:
        """Mean squared one-step residual of every (series, order) block,
        repeated over the block's cells in the stacked layout.

        A one-step block pools all of its columns, a multi-step one uses
        its h = 1 column.  This is the ``wlsv`` covariance diagonal; it is
        computed once per residual set and is read-only.
        """
        st = self.structure
        diag = np.empty(st.dim)
        for i in range(st.n):
            for k in st.te.factors:
                block = self.block(i, k)
                vals = block.reshape(-1) if self.kind == "one_step" else block[:, 0]
                diag[st.block_slice(i, k)] = np.mean(vals**2)
        diag.flags.writeable = False
        return diag

    def columns(self, series_indices, orders) -> np.ndarray:
        """Sub-matrix of E for given series (major) and orders (descending)."""
        te = self.structure.te
        cols = np.concatenate([te.offset_of(k) + np.arange(te.periods_at(k))
                               for k in orders])
        return self.E[:, self.structure.cell_indices(series_indices, cols).ravel()]


def aggregate_levels(
    structure: CrossTemporalStructure, hf: np.ndarray
) -> dict[LevelKey, np.ndarray]:
    """Aggregate an (n, T) highest-frequency panel to every order.

    T must be a multiple of m.  Returns a dict keyed by (series, k).
    """
    hf = np.asarray(hf, dtype=float)
    n, T = hf.shape
    st = structure
    if n != st.n:
        raise ValueError(f"expected {st.n} series, got {n}")
    if T % st.te.m:
        raise ValueError(f"series length {T} not divisible by m={st.te.m}")
    return {
        (i, k): temporally_aggregate(hf[i], k)
        for i in range(n)
        for k in st.te.factors
    }


def fit_level_models(
    data: dict[LevelKey, np.ndarray],
    max_order: int = 5,
    criterion: str = "aicc",
) -> dict[LevelKey, ARModel]:
    """Fit one AR model per (series, order) series."""
    return {
        key: fit_ar(series, max_order=max_order, criterion=criterion)
        for key, series in data.items()
    }


def _check_inputs(structure, models, data):
    st = structure
    keys = {(i, k) for i in range(st.n) for k in st.te.factors}
    missing = keys - set(models) | keys - set(data)
    if missing:
        raise ValueError(f"missing models or data for levels: {sorted(missing)}")
    lengths = {k: data[(0, k)].size for k in st.te.factors}
    N = lengths[st.te.factors[0]]
    for (i, k), series in data.items():
        if series.size != N * (st.te.m // k):
            raise ValueError(
                f"series ({i}, {k}) has length {series.size}, expected "
                f"{N * (st.te.m // k)}"
            )
    return N


def _assemble(structure, models, shifted, shifts, n_periods, kind):
    """Residual rows of the windows of ``n_periods`` periods, one per
    (period, shift) pair with the shift in ``shifts``, by window origin.

    The window of period tau and shift s starts at highest-frequency time
    o = tau m + s.  In the order-k series of shift sk = o % k,
    ``shifted[(i, k, sk)]`` (of equal length for every series i), its h-th
    value is element t = o // k + h - 1.  A window is kept when it ends
    inside the sample and every block's model has its ``order`` values
    before the window (o >= order k).  Each cell holds x[t] - F[h - 1, t],
    F being the block's all-horizon fitted values; a ``one_step`` cell
    reads the h = 1 row at every horizon.
    """
    st = structure
    m = st.te.m
    origins = (np.arange(n_periods)[:, None] * m + np.asarray(shifts)).ravel()
    history = max(
        models[(i, k)].order * k for i in range(st.n) for k in st.te.factors
    )
    origins = origins[(origins >= history) & (origins <= (n_periods - 1) * m)]
    if origins.size == 0:
        raise ValueError("not enough periods to form any residual row")
    E = np.empty((origins.size, st.dim))
    for k in st.te.factors:
        Mk = st.te.periods_at(k)
        horizons = np.zeros(Mk, int) if kind == "one_step" else np.arange(Mk)
        for sk in {s % k for s in shifts}:
            # a basic slice when every window has this phase: it assigns
            # several times faster than an index array
            rows = (slice(None) if all(s % k == sk for s in shifts)
                    else np.flatnonzero(origins % k == sk))
            T = shifted[(0, k, sk)].size
            # flat index of cell (h, row) into the (H, T) residual array
            cells = (horizons * T + np.arange(Mk))[:, None] + origins[rows] // k
            for i in range(st.n):
                x = shifted[(i, k, sk)]
                F = _fitted_horizons(models[(i, k)], x, horizons[-1] + 1)
                E[rows, st.block_slice(i, k)] = (x - F).take(cells).T
    return ResidualSet(structure=st, E=E, kind=kind)


def assemble_multistep(
    structure: CrossTemporalStructure,
    models: dict[LevelKey, ARModel],
    data: dict[LevelKey, np.ndarray],
) -> ResidualSet:
    """Multi-step residuals: every value of period tau is predicted from
    the end of period tau - 1, at its own horizon."""
    N = _check_inputs(structure, models, data)
    shifted = {(i, k, 0): x for (i, k), x in data.items()}
    return _assemble(structure, models, shifted, (0,), N, "multi_step")


def assemble_onestep(
    structure: CrossTemporalStructure,
    models: dict[LevelKey, ARModel],
    data: dict[LevelKey, np.ndarray],
) -> ResidualSet:
    """Ordinary one-step residuals arranged by target time."""
    N = _check_inputs(structure, models, data)
    shifted = {(i, k, 0): x for (i, k), x in data.items()}
    return _assemble(structure, models, shifted, (0,), N, "one_step")


def overlapping_series(series: np.ndarray, k: int, s: int) -> np.ndarray:
    """k-period sums with the window start shifted by s observations.

    Element j sums entries jk+s .. (j+1)k+s-1 (0-based); the result has
    floor((T - s) / k) elements.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not 0 <= s < k:
        raise ValueError(f"shift must satisfy 0 <= s < k, got s={s}, k={k}")
    n_windows = (y.size - s) // k
    return y[s : s + n_windows * k].reshape(n_windows, k).sum(axis=1)


def assemble_overlapping(
    structure: CrossTemporalStructure,
    models: dict[LevelKey, ARModel],
    hf: np.ndarray,
) -> ResidualSet:
    """Multi-step residuals pooled over all window phase shifts.

    Models must already be fit on the unshifted series; they are applied
    to each shifted series without re-estimation.  One row is produced per
    (period, shift) window with full horizon coverage, ordered by window
    end time.
    """
    st = structure
    hf = np.asarray(hf, dtype=float)
    m = st.te.m
    n, T = hf.shape
    if n != st.n or T % m:
        raise ValueError("hf panel must be (n, T) with m dividing T")
    shifted = {
        (i, k, sk): overlapping_series(hf[i], k, sk)
        for i in range(n)
        for k in st.te.factors
        for sk in range(k)
    }
    return _assemble(st, models, shifted, range(m), T // m,
                     "overlapping_multi_step")

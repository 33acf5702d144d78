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
and its fitted value: the zero-shock AR path of ``models._simulate_paths``
from the window's origin (multi-step) or from the value's own origin
(one-step), run for every series of an order at once.  Multi-step
residuals use the unshifted windows, one per period; overlapping ones
every shift of them; one-step ones the unshifted windows.  Windows whose
origin lacks enough history for some fitted model are dropped before any
cell is read, so that E stays rectangular and time-aligned across blocks.

``ResidualSet.columns`` and ``h1_matrix`` gather cells through the
structure's index map ``cell_indices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ctreco.hierarchy import CrossTemporalStructure
from ctreco.models import ARModel, _fit_rows, _simulate_paths

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
        diag = np.empty((st.n, st.te.dim))
        for k in st.te.factors:
            # one contiguous row per series: each mean sums as a 1-D one
            rows = np.ascontiguousarray(self.h1_matrix(k).T)
            diag[:, st.block_slice(0, k)] = np.mean(rows**2, axis=1)[:, None]
        diag = diag.reshape(-1)
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
    sums = {k: _phase_sums(hf, k, 0) for k in st.te.factors}
    return {(i, k): sums[k][i] for i in range(n) for k in st.te.factors}


def _phase_sums(hf: np.ndarray, k: int, s: int) -> np.ndarray:
    """``overlapping_series(hf[i], k, s)`` of every row i of ``hf``."""
    n, T = hf.shape
    return hf[:, s : s + (T - s) // k * k].reshape(n, -1, k).sum(axis=2)


def fit_level_models(
    data: dict[LevelKey, np.ndarray],
    max_order: int = 5,
    criterion: str = "aicc",
) -> dict[LevelKey, ARModel]:
    """Fit one AR model per (series, order) series as ``fit_ar`` does,
    with the same bits, the series of one length (one temporal order's)
    in one batched QR.

    Raises:
        ValueError: as ``fit_ar``, once, naming every singular (series, order).
    """
    by_length: dict[int, list[LevelKey]] = {}
    for key, series in data.items():
        by_length.setdefault(np.size(series), []).append(key)
    fitted = {}
    for keys in by_length.values():
        Y = np.array([data[key] for key in keys], dtype=float)
        fitted.update(zip(keys, _fit_rows(Y, max_order, criterion)))
    singular = [key for key in data if fitted[key] is None]
    if singular:
        raise ValueError(f"singular design matrix (constant series?) at "
                         f"(series, order) {', '.join(map(str, singular))}")
    return {key: fitted[key] for key in data}


def _check_inputs(structure, models, data):
    """The levels' period count N, checked to hold a model and N m / k values
    for every (series, order k), and the levels as (k, 0) -> (n, N m / k) array."""
    st = structure
    keys = {(i, k) for i in range(st.n) for k in st.te.factors}
    missing = keys - set(models) | keys - set(data)
    if missing:
        raise ValueError(f"missing models or data for levels: {sorted(missing)}")
    N = data[(0, st.te.factors[0])].size
    for (i, k), series in data.items():
        if series.size != N * (st.te.m // k):
            raise ValueError(
                f"series ({i}, {k}) has length {series.size}, expected "
                f"{N * (st.te.m // k)}"
            )
    return N, {(k, 0): np.array([data[(i, k)] for i in range(st.n)], dtype=float)
               for k in st.te.factors}


def _assemble(structure, models, shifted, shifts, n_periods, kind):
    """Residual rows of the windows of ``n_periods`` periods, one per
    (period, shift) pair with the shift in ``shifts``, by window origin.

    The window of period tau and shift s starts at highest-frequency time
    o = tau m + s.  In the (n, T) order-k series of phase sk = o % k,
    ``shifted[(k, sk)]``, its h-th value is column t = o // k + h - 1.  A
    window is kept when it ends inside the sample and every block's model
    has its ``order`` values before the window (o >= order k).  Each cell
    holds x[t] less the zero-shock AR path's value at t: the path of M_k
    steps from the window's origin o // k, or (``one_step``) of one step
    from t.  One ``_simulate_paths`` call per (order, phase) runs every
    series and window of it.
    """
    st = structure
    m = st.te.m
    origins = (np.arange(n_periods)[:, None] * m + np.asarray(shifts)).ravel()
    history = max(models[(i, k)].order * k for i in range(st.n) for k in st.te.factors)
    origins = origins[(origins >= history) & (origins <= (n_periods - 1) * m)]
    if origins.size == 0:
        raise ValueError("not enough periods to form any residual row")
    E = np.empty((origins.size, st.n, st.te.dim))  # (row, series, cell)
    for k in st.te.factors:
        Mk = st.te.periods_at(k)
        ms = [models[(i, k)] for i in range(st.n)]
        for sk in {s % k for s in shifts}:
            # a basic slice when every window has this phase: it assigns
            # several times faster than an index array
            rows = (slice(None) if all(s % k == sk for s in shifts)
                    else np.flatnonzero(origins % k == sk))
            X = shifted[(k, sk)]
            targets = origins[rows, None] // k + np.arange(Mk)  # (window, position)
            starts, h = (targets.ravel(), 1) if kind == "one_step" else (targets[:, 0], Mk)
            shape = (st.n, starts.size, h)
            paths = _simulate_paths(ms, X, starts, np.zeros(shape), np.empty(shape))
            resid = X.take(targets, axis=1) - paths.reshape(st.n, -1, Mk)
            E[rows, :, st.block_slice(0, k)] = resid.transpose(1, 0, 2)
    return ResidualSet(structure=st, E=E.reshape(origins.size, -1), kind=kind)


def assemble_multistep(
    structure: CrossTemporalStructure,
    models: dict[LevelKey, ARModel],
    data: dict[LevelKey, np.ndarray],
) -> ResidualSet:
    """Multi-step residuals: every value of period tau is predicted from
    the end of period tau - 1, at its own horizon."""
    N, levels = _check_inputs(structure, models, data)
    return _assemble(structure, models, levels, (0,), N, "multi_step")


def assemble_onestep(
    structure: CrossTemporalStructure,
    models: dict[LevelKey, ARModel],
    data: dict[LevelKey, np.ndarray],
) -> ResidualSet:
    """Ordinary one-step residuals arranged by target time."""
    N, levels = _check_inputs(structure, models, data)
    return _assemble(structure, models, levels, (0,), N, "one_step")


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
    shifted = {(k, sk): _phase_sums(hf, k, sk) for k in st.te.factors
               for sk in range(k)}
    return _assemble(st, models, shifted, range(m), T // m,
                     "overlapping_multi_step")

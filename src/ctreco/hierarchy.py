"""Constraint and summation matrices for cross-temporal hierarchies.

A system of ``n`` time series observed at the highest frequency (seasonal
period ``m``) is linearly constrained in two directions:

* cross-sectionally, ``n_a`` upper series are linear combinations of the
  ``n_b`` bottom series (``u_t = A_cs @ b_t``);
* temporally, each series aggregated over ``k`` consecutive periods must
  equal the sum of its high-frequency values, for every factor ``k`` of
  ``m``.

All vectors produced or consumed by this package use one canonical layout
for the stacked observation of a single most-aggregated period: series
major, and within each series the temporal aggregation orders from the
largest factor (``k = m``) down to ``k = 1``, each order's values in time
order: vec(X') for the n x (m + k_star) observation matrix X.  Every
gather of layout cells goes through ``cell_indices``, the index map of
(series, within-series column) pairs; ``index_of`` gives one cell.  No
commutation matrix to the temporal-major vec(X) is held.

The joint constraint matrix C, its transpose C' and the summation matrix
S are held only as CSR arrays, built from the non-zeros of the small
cross-sectional and temporal matrices (``kron_csr`` builds every sparse
Kronecker product); their dense forms are derived when read.

Cross-sectional reconciliation is the joint case at m = 1, and temporal
reconciliation the joint case of one series with no upper series; a
structure holds both as ``cs_only`` and ``te_only``, built on first read.
Its ``reduced`` structures, each aggregated dimension cut to its bottom
level, are the spaces a structured covariance's core lives on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse

__all__ = [
    "CrossSectionalStructure",
    "TemporalStructure",
    "CrossTemporalStructure",
    "build_cross_sectional",
    "build_temporal",
    "build_cross_temporal",
    "temporally_aggregate",
    "stack_window",
    "factors_of",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _csr(rows, cols, vals, shape) -> scipy.sparse.csr_array:
    """Read-only CSR array of the entries (rows, cols, vals), sorted
    row-major: the order in which a product with it sums."""
    order = np.argsort(rows * shape[1] + cols, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(shape[0] + 1))
    sparse = scipy.sparse.csr_array((vals[order], cols[order], indptr), shape=shape)
    for part in (sparse.data, sparse.indices, sparse.indptr):
        part.flags.writeable = False
    return sparse


def kron_csr(A: np.ndarray, B: np.ndarray):
    """Read-only CSR form of the Kronecker product A (x) B of two dense
    matrices, built from their non-zeros: each value is the product of a
    non-zero of A and one of B."""
    ra, ca = np.nonzero(A)
    rb, cb = np.nonzero(B)
    rows = (ra[:, None] * B.shape[0] + rb).ravel()
    cols = (ca[:, None] * B.shape[1] + cb).ravel()
    vals = (A[ra, ca][:, None] * B[rb, cb]).ravel()
    shape = (A.shape[0] * B.shape[0], A.shape[1] * B.shape[1])
    return _csr(rows, cols, vals, shape)


@dataclass(frozen=True, eq=False)
class CrossSectionalStructure:
    """One-dimensional aggregation: ``n_a`` upper entries, each a linear
    combination of the ``n_b`` bottom ones.  The structure holds only
    ``agg``; the constraint and summation matrices are derived from it on
    first read and kept.

    Attributes:
        agg: (n_a, n_b) aggregation matrix mapping bottom to upper entries.
        constraints: (n_a, n) matrix ``[I | -agg]`` with ``constraints @ y = 0``.
        summation: (n, n_b) matrix ``[agg; I]`` with ``y = summation @ b``.
    """

    agg: np.ndarray

    @property
    def n_upper(self) -> int:
        return self.agg.shape[0]

    @property
    def n_bottom(self) -> int:
        return self.agg.shape[1]

    @property
    def n(self) -> int:
        return self.agg.shape[0] + self.agg.shape[1]

    @cached_property
    def constraints(self) -> np.ndarray:
        return _readonly(np.hstack([np.eye(self.n_upper), -self.agg]))

    @cached_property
    def summation(self) -> np.ndarray:
        return _readonly(np.vstack([self.agg, np.eye(self.n_bottom)]))


@dataclass(frozen=True, eq=False)
class TemporalStructure(CrossSectionalStructure):
    """Temporal aggregation of one series with seasonal period m: the
    one-dimensional aggregation whose k_star upper entries are the
    series' aggregated values and whose m bottom ones its
    high-frequency values.

    Attributes:
        m: seasonal period of the highest-frequency series.
        factors: all factors of m in descending order, ending with 1.
        agg: (k_star, m) 0/1 aggregation matrix, one block per factor > 1.
    """

    m: int
    factors: tuple[int, ...]

    @property
    def k_star(self) -> int:
        return self.n_upper

    @property
    def dim(self) -> int:
        """Length of one series' stacked vector, m + k_star."""
        return self.n

    def periods_at(self, k: int) -> int:
        """Number of order-k values inside one most-aggregated period."""
        if k not in self.factors:
            raise ValueError(f"{k} is not a factor of m={self.m}")
        return self.m // k

    def offset_of(self, k: int) -> int:
        """Column offset of order k inside the per-series stacked block."""
        if k not in self.factors:
            raise ValueError(f"{k} is not a factor of m={self.m}")
        return sum(self.m // kk for kk in self.factors if kk > k)


@dataclass(frozen=True, eq=False)
class CrossTemporalStructure:
    """Joint cross-sectional and temporal structure.

    The stacked vector for one most-aggregated period has length
    ``n * (m + k_star)`` in the canonical layout (see module docstring).

    Attributes:
        cs: cross-sectional component.
        te: temporal component.
        summation_csr: (n * (m + k_star), n_b * m) Kronecker product of
            the two summation matrices; its columns span the coherent
            subspace.
        constraints_csr: full-row-rank zero-constraints matrix C with
            ``C @ S = 0``.
        constraints_t_csr: its transpose C'.

    The three matrices are held only as read-only CSR arrays;
    ``summation`` and ``constraints`` are their dense forms, derived on
    first read and kept with the structure.
    """

    cs: CrossSectionalStructure
    te: TemporalStructure
    summation_csr: scipy.sparse.csr_array = field(repr=False)
    constraints_csr: scipy.sparse.csr_array = field(repr=False)
    constraints_t_csr: scipy.sparse.csr_array = field(repr=False)

    @property
    def n(self) -> int:
        return self.cs.n

    @property
    def dim(self) -> int:
        """Length of the stacked vector, n * (m + k_star)."""
        return self.cs.n * self.te.dim

    @property
    def bottom_dim(self) -> int:
        """Dimension of the coherent subspace, n_b * m."""
        return self.cs.n_bottom * self.te.m

    def cell_indices(self, series, columns) -> np.ndarray:
        """(len(series), len(columns)) array of the canonical indices of
        every (series, column) pair, unchecked; a series' column
        ``te.offset_of(k) + j`` holds order k, position j."""
        return np.add.outer(np.asarray(series, dtype=np.intp) * self.te.dim,
                            np.asarray(columns, dtype=np.intp))

    def index_of(self, series: int, k: int, j: int) -> int:
        """Canonical index of series ``series``, order ``k``, position ``j``.

        ``j`` counts order-k periods inside the window, starting at 0.
        """
        if not 0 <= series < self.n:
            raise ValueError(f"series index {series} out of range")
        if not 0 <= j < self.te.periods_at(k):
            raise ValueError(f"position {j} out of range for k={k}")
        return series * self.te.dim + self.te.offset_of(k) + j

    def block_slice(self, series: int, k: int) -> slice:
        """Slice of the stacked vector holding (series, k) cells."""
        start = self.index_of(series, k, 0)
        return slice(start, start + self.te.periods_at(k))

    @cached_property
    def summation(self) -> np.ndarray:
        return _readonly(self.summation_csr.toarray())

    @cached_property
    def constraints(self) -> np.ndarray:
        return _readonly(self.constraints_csr.toarray())

    @cached_property
    def cs_only(self) -> CrossTemporalStructure:
        """The cross-sectional structure alone: ``cs`` at m = 1, dim n."""
        return build_cross_temporal(self.cs, build_temporal(1))

    @cached_property
    def te_only(self) -> CrossTemporalStructure:
        """The temporal structure alone: one bottom series, dim m + k_star."""
        return build_cross_temporal(build_cross_sectional(np.zeros((0, 1))), self.te)

    def reduced(self, aggregate_cs: bool, aggregate_te: bool) -> CrossTemporalStructure:
        """The structure in which each aggregated dimension keeps only its
        bottom level: n_b bottom series with no uppers, or the m
        high-frequency values with no aggregates.  Built once per structure."""
        cache = self.__dict__.setdefault("_reduced", {})
        if (aggregate_cs, aggregate_te) not in cache:
            cs = replace(self.cs, agg=_readonly(np.zeros((0, self.cs.n_bottom))))
            te = replace(self.te, agg=_readonly(np.zeros((0, self.te.m))), factors=(1,))
            cache[aggregate_cs, aggregate_te] = build_cross_temporal(
                cs if aggregate_cs else self.cs, te if aggregate_te else self.te)
        return cache[aggregate_cs, aggregate_te]

    @cached_property
    def _bottom_hf(self) -> np.ndarray:
        te = self.te  # order 1 occupies the last m columns of each series
        idx = self.cell_indices(range(self.cs.n_upper, self.n),
                                range(te.k_star, te.dim)).ravel()
        idx.flags.writeable = False
        return idx

    def bottom_hf_indices(self) -> np.ndarray:
        """Indices of the high-frequency bottom cells, in the order the
        summation matrix expects them (bottom series major, time ascending).
        Computed once per structure; the array is read-only."""
        return self._bottom_hf

    def stack(self, X: np.ndarray) -> np.ndarray:
        """Stack an n x (m + k_star) observation matrix canonically."""
        X = np.asarray(X, dtype=float)
        if X.shape != (self.n, self.te.dim):
            raise ValueError(
                f"expected shape {(self.n, self.te.dim)}, got {X.shape}"
            )
        return X.reshape(-1).copy()

    def unstack(self, x: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`stack`."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected shape {(self.dim,)}, got {x.shape}")
        return x.reshape(self.n, self.te.dim).copy()

    def coherence_gap(self, x: np.ndarray) -> float:
        """Max-norm of the constraint residual, relative to the vector scale."""
        x = np.asarray(x, dtype=float)
        resid = self.constraints_csr @ x
        return float(np.max(np.abs(resid), initial=0.0) / (1.0 + np.max(np.abs(x))))

    def is_coherent(self, x: np.ndarray, tol: float = 1e-8) -> bool:
        return self.coherence_gap(x) <= tol


def factors_of(m: int) -> tuple[int, ...]:
    """All factors of m in descending order (trial division; m <= 366)."""
    if m < 1:
        raise ValueError(f"seasonal period must be >= 1, got {m}")
    return tuple(k for k in range(m, 0, -1) if m % k == 0)


def build_cross_sectional(agg: np.ndarray) -> CrossSectionalStructure:
    """Build the cross-sectional structure from an aggregation matrix.

    Args:
        agg: (n_a, n_b) real matrix; entries may be any finite reals.
    """
    agg = np.atleast_2d(np.asarray(agg, dtype=float))
    if agg.shape[1] == 0:
        raise ValueError("aggregation matrix must have at least one column")
    if not np.all(np.isfinite(agg)):
        raise ValueError("aggregation matrix must have finite entries")
    return CrossSectionalStructure(_readonly(agg))


def build_temporal(m: int) -> TemporalStructure:
    """Build the temporal structure for seasonal period m.

    The aggregation matrix stacks one block per factor k > 1, largest
    first; the block for factor k is I_{m/k} ⊗ 1'_k.
    """
    facs = factors_of(int(m))
    blocks = [np.kron(np.eye(m // k), np.ones((1, k))) for k in facs if k > 1]
    agg = np.vstack(blocks) if blocks else np.zeros((0, m))
    return TemporalStructure(_readonly(agg), int(m), facs)


def build_cross_temporal(
    cs: CrossSectionalStructure, te: TemporalStructure
) -> CrossTemporalStructure:
    """Combine the two structures into the joint one.

    The summation matrix is the Kronecker product of the cross-sectional
    and temporal summation matrices.  The constraint matrix stacks the
    cross-sectional constraints applied at each high-frequency position on
    top of the per-series temporal constraints; constraints at aggregated
    orders are implied and omitted, keeping full row rank.  All three are
    built as CSR by index arithmetic on the two structures' non-zeros.
    """
    n, n_a, m, k_star, dim_te = cs.n, cs.n_upper, te.m, te.k_star, te.dim

    # C_star = C_cs (x) [0 | I_m] with row (a, t) moved to t*n_a + a: the
    # cross-sectional constraints at each high-frequency position t, in
    # canonical column order (series i's column k_star + t); below it the
    # per-series temporal constraints I_n (x) C_te
    ra, ca = np.nonzero(cs.constraints)
    rk, ck = np.nonzero(te.constraints)
    t, i = np.arange(m)[:, None], np.arange(n)[:, None]
    cell = np.arange(n * dim_te).reshape(n, dim_te)  # the canonical layout
    rows = np.concatenate([(t * n_a + ra).ravel(),
                           (n_a * m + i * k_star + rk).ravel()])
    cols = np.concatenate([cell[ca, k_star + t].ravel(), cell[i, ck].ravel()])
    vals = np.concatenate([np.tile(cs.constraints[ra, ca], m),
                           np.tile(te.constraints[rk, ck], n)])
    shape = (n_a * m + n * k_star, n * dim_te)
    return CrossTemporalStructure(
        cs, te, kron_csr(cs.summation, te.summation),
        _csr(rows, cols, vals, shape), _csr(cols, rows, vals, shape[::-1]))


def stack_window(structure: CrossTemporalStructure, hf: np.ndarray) -> np.ndarray:
    """Stack one most-aggregated period of highest-frequency observations.

    ``hf`` is (n, m); every aggregation order of the window is computed
    and the result is returned in the canonical stacked layout.
    """
    hf = np.asarray(hf, dtype=float)
    if hf.shape != (structure.n, structure.te.m):
        raise ValueError(
            f"expected shape {(structure.n, structure.te.m)}, got {hf.shape}"
        )
    # per series, the non-overlapping k-sums of every order k, largest first
    return np.hstack([hf.reshape(structure.n, -1, k).sum(axis=2)
                      for k in structure.te.factors]).ravel()


def temporally_aggregate(series: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping sums of k successive values.

    Args:
        series: length-T vector with k dividing T.
        k: aggregation order.

    Returns:
        Length T/k vector; element j sums entries jk..(j+1)k-1.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if k < 1:
        raise ValueError(f"aggregation order must be >= 1, got {k}")
    if y.size % k:
        raise ValueError(f"k={k} does not divide series length {y.size}")
    return y.reshape(-1, k).sum(axis=1)

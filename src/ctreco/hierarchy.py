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
order.  ``index_of`` gives the explicit index map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _readonly_csr(a: np.ndarray) -> scipy.sparse.csr_array:
    # from the non-zeros (found in row-major order, as CSR keeps them):
    # half the cost of converting the dense array at the study's size
    rows, cols = np.nonzero(a)
    indptr = np.searchsorted(rows, np.arange(a.shape[0] + 1))
    sparse = scipy.sparse.csr_array((a[rows, cols], cols, indptr), shape=a.shape)
    for part in (sparse.data, sparse.indices, sparse.indptr):
        part.flags.writeable = False
    return sparse


@dataclass(frozen=True, eq=False)
class CrossSectionalStructure:
    """Cross-sectional aggregation, constraint and summation matrices.

    Attributes:
        agg: (n_a, n_b) aggregation matrix mapping bottom to upper series.
        constraints: (n_a, n) matrix ``[I | -agg]`` with ``constraints @ y = 0``.
        summation: (n, n_b) matrix ``[agg; I]`` with ``y = summation @ b``.
    """

    agg: np.ndarray
    constraints: np.ndarray = field(repr=False)
    summation: np.ndarray = field(repr=False)

    @property
    def n_upper(self) -> int:
        return self.agg.shape[0]

    @property
    def n_bottom(self) -> int:
        return self.agg.shape[1]

    @property
    def n(self) -> int:
        return self.agg.shape[0] + self.agg.shape[1]


@dataclass(frozen=True, eq=False)
class TemporalStructure:
    """Temporal aggregation matrices for one series with seasonal period m.

    Attributes:
        m: seasonal period of the highest-frequency series.
        factors: all factors of m in descending order, ending with 1.
        agg: (k_star, m) 0/1 aggregation matrix, one block per factor > 1.
        constraints: (k_star, m + k_star) matrix ``[I | -agg]``.
        summation: (m + k_star, m) matrix ``[agg; I]``.
    """

    m: int
    factors: tuple[int, ...]
    agg: np.ndarray = field(repr=False)
    constraints: np.ndarray = field(repr=False)
    summation: np.ndarray = field(repr=False)

    @property
    def k_star(self) -> int:
        return self.agg.shape[0]

    @property
    def dim(self) -> int:
        """Length of one series' stacked vector, m + k_star."""
        return self.m + self.agg.shape[0]

    def periods_at(self, k: int) -> int:
        """Number of order-k values inside one most-aggregated period."""
        if k not in self.factors:
            raise ValueError(f"{k} is not a factor of m={self.m}")
        return self.m // k

    def offset_of(self, k: int) -> int:
        """Column offset of order k inside the per-series stacked block."""
        if k not in self.factors:
            raise ValueError(f"{k} is not a factor of m={self.m}")
        off = 0
        for kk in self.factors:
            if kk == k:
                return off
            off += self.m // kk
        raise AssertionError("unreachable")


@dataclass(frozen=True, eq=False)
class CrossTemporalStructure:
    """Joint cross-sectional and temporal structure.

    The stacked vector for one most-aggregated period has length
    ``n * (m + k_star)`` in the canonical layout (see module docstring).

    Attributes:
        cs: cross-sectional component.
        te: temporal component.
        summation: (n * (m + k_star), n_b * m) Kronecker product of the two
            summation matrices; its columns span the coherent subspace.
        constraints: full-row-rank zero-constraints matrix with
            ``constraints @ summation = 0``.
        perm: index permutation encoding the commutation matrix P, the
            one with P[i, perm[i]] = 1 and P @ vec(X) = vec(X') for the
            n x (m + k_star) observation matrix X (``vec`` stacks
            columns, so vec(X') is the canonical stacked vector).

    ``summation_csr``, ``constraints_csr`` and ``constraints_t_csr``
    (the transpose C') are read-only CSR forms of the two matrices, built
    on first use and kept with the structure.
    """

    cs: CrossSectionalStructure
    te: TemporalStructure
    summation: np.ndarray = field(repr=False)
    constraints: np.ndarray = field(repr=False)
    perm: np.ndarray = field(repr=False)

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
    def summation_csr(self) -> scipy.sparse.csr_array:
        return _readonly_csr(self.summation)

    @cached_property
    def constraints_csr(self) -> scipy.sparse.csr_array:
        return _readonly_csr(self.constraints)

    @cached_property
    def constraints_t_csr(self) -> scipy.sparse.csr_array:
        return _readonly_csr(self.constraints.T)

    @cached_property
    def _bottom_hf(self) -> np.ndarray:
        idx = np.asarray(
            [
                self.index_of(i, 1, j)
                for i in range(self.cs.n_upper, self.n)
                for j in range(self.te.m)
            ],
            dtype=np.intp,
        )
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
        resid = self.constraints @ x
        return float(np.max(np.abs(resid)) / (1.0 + np.max(np.abs(x))))

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
    n_a, n_b = agg.shape
    constraints = np.hstack([np.eye(n_a), -agg])
    summation = np.vstack([agg, np.eye(n_b)])
    return CrossSectionalStructure(
        agg=_readonly(agg),
        constraints=_readonly(constraints),
        summation=_readonly(summation),
    )


def build_temporal(m: int) -> TemporalStructure:
    """Build the temporal structure for seasonal period m.

    The aggregation matrix stacks one block per factor k > 1, largest
    first; the block for factor k is I_{m/k} ⊗ 1'_k.
    """
    facs = factors_of(int(m))
    blocks = [np.kron(np.eye(m // k), np.ones((1, k))) for k in facs if k > 1]
    if blocks:
        agg = np.vstack(blocks)
    else:
        agg = np.zeros((0, m))
    k_star = agg.shape[0]
    constraints = np.hstack([np.eye(k_star), -agg])
    summation = np.vstack([agg, np.eye(m)])
    return TemporalStructure(
        m=int(m),
        factors=facs,
        agg=_readonly(agg),
        constraints=_readonly(constraints),
        summation=_readonly(summation),
    )


def build_cross_temporal(
    cs: CrossSectionalStructure, te: TemporalStructure
) -> CrossTemporalStructure:
    """Combine the two structures into the joint one.

    The summation matrix is the Kronecker product of the cross-sectional
    and temporal summation matrices.  The constraint matrix stacks the
    cross-sectional constraints applied at each high-frequency position on
    top of the per-series temporal constraints; constraints at aggregated
    orders are implied and omitted, keeping full row rank.
    """
    n, dim_te = cs.n, te.dim
    S_ct = np.kron(cs.summation, te.summation)

    # perm[a] maps canonical (series-major) index a = i*dim_te + t to the
    # temporal-major index t*n + i of vec(X).
    a = np.arange(n * dim_te)
    perm = (a % dim_te) * n + a // dim_te

    # Cross-sectional constraints at the m high-frequency positions,
    # written directly in canonical column order; equals
    # [0 | I_m (x) C_cs] @ P' on the temporal-major layout.
    n_a = cs.n_upper
    hf_off = dim_te - te.m
    C_star = np.zeros((n_a * te.m, n * dim_te))
    for t in range(te.m):
        rows = slice(t * n_a, (t + 1) * n_a)
        for i in range(n):
            C_star[rows, i * dim_te + hf_off + t] = cs.constraints[:, i]
    C_te_block = np.kron(np.eye(n), te.constraints)
    C_ct = np.vstack([C_star, C_te_block])

    return CrossTemporalStructure(
        cs=cs,
        te=te,
        summation=_readonly(S_ct),
        constraints=_readonly(C_ct),
        perm=perm,
    )


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
    X = np.empty((structure.n, structure.te.dim))
    for i in range(structure.n):
        off = 0
        for k in structure.te.factors:
            Mk = structure.te.periods_at(k)
            X[i, off : off + Mk] = temporally_aggregate(hf[i], k)
            off += Mk
    return structure.stack(X)


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

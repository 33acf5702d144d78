"""Point reconciliation maps.

The optimal map is the oblique projection onto the coherent subspace,
``M = I - Omega C' (C Omega C')^{-1} C``, for a positive-definite
weighting Omega.  It equals the structural form ``M = S G`` with
``G = (S' Omega^{-1} S)^{-1} S' Omega^{-1}`` for any PD Omega.  Only G,
the (n_b m) x d map from a stacked vector to its reconciled
high-frequency bottom cells, carries information: it is the rows of M at
those cells.  A map is applied as ``S (G x)`` with the sparse S, so the
d x d matrix M is formed only when a caller reads ``ReconciliationMap.M``.

A covariance held as a diagonal delta > 0 plus an optional low-rank part
(``ols``, ``struc``, ``wlsv``, ``shr``) takes that structural form: W
scales the rows of the CSR S (``shr`` adds a Woodbury term) and only
S'WS, (n_b m) x (n_b m), is factored; a constant delta gives ``hb``'s
G = S^+.  It does so when S'WS (and the Woodbury capacitance) factors
with a 1-norm condition number ||A||_1 ||A^{-1}||_1 <= 1e5.  A small
delta on an aggregated cell makes S'WS ill-conditioned, and the
structural solve then loses about that number times 5e-17 of relative
accuracy (measured against 40-digit arithmetic), while C Omega C' stays
well-conditioned; such a covariance, and any other (a zero in delta,
``sam``, ``bdshr``, a dense covariance read from JSON, a structured
kind), takes the path
G = G_Q F^+, G_Q the rows at the kept cells of the zero-constrained map
I - Q C_r' (C_r Q C_r')^{-1} C_r of a reduced space with factor F.  A
full kind has F = I, Q = Omega and C_r = C, the sparse C, and keeps the
high-frequency bottom cells.  A structured covariance (``hb``, ``h``,
``b``) is held factored, Omega = F Q F', and is singular; its map is the
limit of the map at Omega + eps I as eps -> 0.  G_Q reconciles a = F^+ x
with the core Q in the reduced space S = F T, T constrained by
C_cs (x) I_m (``h``), I (x) C_te (``b``) or nothing (``hb``, whose
G = S^+ is the ``ols`` map), so no d x d Omega is formed.

Every zero-constrained solve factors its matrix A (``C Omega C'`` or the
reduced ``C Q C'``) by Cholesky, A = R'R, and accepts the factor when
||A||_1 ||R^{-1}||_F^2 <= 1e11.  That product is an upper bound on the
2-norm condition number of A (||A||_2 <= ||A||_1 for symmetric A, and
||A^{-1}||_2 = ||R^{-1}||_2^2 <= ||R^{-1}||_F^2), a decade under the
1e12 limit.  When the factorisation fails or the bound is larger, the
eigenvalues of A decide: A is rejected as numerically singular, with
``NumericalError`` naming the covariance kind, when its smallest
eigenvalue is not positive or its eigenvalue ratio exceeds 1e12.  So a
matrix is accepted exactly when the eigenvalue rule accepts it.

Besides the optimal map, ``composite_map`` builds the classic
composites once: the two partly-bottom-up schemes (one-dimensional
reconciliation followed by bottom-up along the other dimension) and, with
no inner covariance, plain bottom-up.  The one-dimensional step is the
optimal map of the structure's ``cs_only`` or ``te_only``, built by
``build_omega`` and ``build_projection`` as every ``oct`` map is; the
temporal maps of a kind ``covariance.series_diagonals`` holds as a
diagonal are built together, by one batched inversion.  A
``ReconciliationMap`` and a composite are both called on a stacked
vector or an (L, dim) block, and ``evaluate.reconciler`` picks one by
method family.  A map's call does not check its input;
``reconcile_point`` does.  ``set_negative_to_zero`` is the
clamp-negatives-then-aggregate heuristic for non-negative data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from ctreco.covariance import (
    STRUCTURED_KINDS,
    CovarianceMatrix,
    CovarianceSpec,
    _factor_blocks,
    build_omega,
    series_diagonals,
)
from ctreco.exceptions import NumericalError, ValidationError
from ctreco.hierarchy import CrossTemporalStructure, kron_csr
from ctreco.residuals import ResidualSet

__all__ = [
    "ReconciliationMap",
    "build_projection",
    "reconcile_point",
    "bottom_up",
    "composite_map",
    "partly_bottom_up",
    "set_negative_to_zero",
]

_MAX_COND = 1e12
_COND_BOUND = 1e11  # a factor bounded by this is accepted without eigenvalues
_STRUCTURAL_BOUND = 1e5  # a larger condition number of S'WS: zero-constrained


@dataclass(frozen=True, eq=False)
class ReconciliationMap:
    """A linear reconciliation x_tilde = M x_hat = S G x_hat.

    M is a projection onto the coherent subspace: ``C M = 0``,
    ``M S = S`` and ``M M = M`` all hold (to solver precision).  The map
    holds ``G``, the (bottom_dim, dim) matrix giving the reconciled
    high-frequency bottom cells, and is applied as ``S (G x)``; ``M`` is
    derived as S G on first use and kept.
    """

    structure: CrossTemporalStructure
    omega: CovarianceMatrix
    G: np.ndarray = field(repr=False)

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        if G.shape != (self.structure.bottom_dim, self.structure.dim):
            raise ValueError(f"G has wrong shape {G.shape}")
        G.flags.writeable = False
        object.__setattr__(self, "G", G)

    @cached_property
    def M(self) -> np.ndarray:
        """The d x d map, S G."""
        M = self.structure.summation_csr @ self.G
        M.flags.writeable = False
        return M

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The map applied to a (dim,) vector or (L, dim) block, unchecked;
        ``reconcile_point`` checks its input first."""
        return bottom_up(self.structure, (self.G @ x.T).T)


def _cho_inverse(A: np.ndarray) -> np.ndarray | None:
    """R^{-1} (upper triangular) for the Cholesky factor R'R = A, or None
    when A does not factor."""
    try:
        R = scipy.linalg.cho_factor(A)[0]
    except scipy.linalg.LinAlgError:
        return None
    R_inv, info = scipy.linalg.lapack.dtrtri(R, lower=0)
    return np.triu(R_inv) if info == 0 else None


def _bounded_inverse(A: np.ndarray):
    """(A^{-1}, R^{-1}) for the Cholesky factor R'R = A, when A factors and
    its 1-norm condition number ||A||_1 ||A^{-1}||_1 is at most
    ``_STRUCTURAL_BOUND``; else (None, None)."""
    R_inv = _cho_inverse(A)
    if R_inv is None:
        return None, None
    A_inv = R_inv @ R_inv.T
    if not np.linalg.norm(A, 1) * np.linalg.norm(A_inv, 1) <= _STRUCTURAL_BOUND:
        return None, None
    return A_inv, R_inv


def _checked_cho_factor(A: np.ndarray, what: str, kind: str) -> np.ndarray:
    """R^{-1} (upper triangular) for the Cholesky factor R'R = A, or
    NumericalError if A is numerically singular.

    R^{-1} gives both the condition bound ||A||_1 ||R^{-1}||_F^2 and the
    solve, A^{-1} = R^{-1} R^{-T}.  A factor whose bound is at most
    ``_COND_BOUND`` is accepted as it is; otherwise the eigenvalue rule
    decides (module docstring).
    """
    R_inv = _cho_inverse(A)
    if R_inv is not None and np.linalg.norm(A, 1) * np.sum(R_inv**2) <= _COND_BOUND:
        return R_inv
    eig = np.linalg.eigvalsh(A)
    if eig[0] <= 0 or eig[-1] / eig[0] > _MAX_COND:
        cond = np.inf if eig[0] <= 0 else eig[-1] / eig[0]
        raise NumericalError(
            f"{what} is numerically singular for covariance kind "
            f"{kind!r} (condition number {cond:.2e})"
        )
    if R_inv is None:  # pragma: no cover
        raise NumericalError(f"{what} failed to factor for covariance kind {kind!r}")
    return R_inv


def _zero_constrained(C, C_t, Omega, keep, what: str, kind: str) -> np.ndarray:
    """Rows ``keep`` of I - Omega C' (C Omega C')^{-1} C, computed as
    E_keep - (C Omega)'[keep] R^{-1} R^{-T} C with R'R = C Omega C'; C and
    its transpose ``C_t`` may be sparse, ``what`` names C Omega C'."""
    if C.shape[0] == 0:  # no constraints: every vector is coherent
        return np.eye(Omega.shape[0])[keep]
    CO = C @ Omega
    R_inv = _checked_cho_factor(C @ CO.T, what, kind)
    W = (CO[:, keep].T @ R_inv) @ R_inv.T  # (C Omega)'[keep] (C Omega C')^{-1}
    G = -(C_t @ W.T).T
    G[np.arange(keep.size), keep] += 1.0
    return G


def _kron_pinv(P_cs: np.ndarray, P_te: np.ndarray) -> np.ndarray:
    """S^+ = S_cs^+ (x) S_te^+ from its two factors, dense and C-ordered,
    which fixes how G x sums; + 0.0 turns each -0.0 product into the +0.0
    of a sparse form."""
    return np.kron(P_cs, P_te) + 0.0


def _structural(st: CrossTemporalStructure, omega: CovarianceMatrix):
    """G = (S'WS)^{-1} S'W, W = Omega^{-1}, for Omega = D + A A' held as its
    diagonal D > 0 and low-rank part A: W = D^{-1} - U K^{-1} U' with
    U = D^{-1} A and K = I + A'U (Woodbury), so no d x d matrix is formed.
    None when K or S'WS does not pass ``_bounded_inverse``."""
    S, A = st.summation_csr, omega.low_rank
    w = 1.0 / omega.diag
    if A is None and np.all(w == w[0]):  # a scalar W: G = S^+, as hb's
        P_cs, P_te = np.linalg.pinv(st.cs.summation), np.linalg.pinv(st.te.summation)
        return _kron_pinv(P_cs, P_te)
    SWS = S.T @ (w[:, None] * S.toarray())
    if A is not None:  # K^{-1} = R R': S'W S = S'D^{-1}S - Y Y', Y = S'U R
        U = w[:, None] * A
        R = _bounded_inverse(np.eye(A.shape[1]) + A.T @ U)[1]
        if R is None:
            return None
        Y, Z = (S.T @ U) @ R, U @ R
        SWS -= Y @ Y.T
    P = _bounded_inverse(SWS)[0]  # (S'WS)^{-1}
    if P is None:
        return None
    del SWS  # before the d x b products
    G_t = S @ P
    G_t *= w[:, None]
    if A is None:
        return G_t.T
    # G = P S'D^{-1} - (P Y) Z', the product subtracted in place
    return scipy.linalg.blas.dgemm(-1.0, P @ Y, Z, 1.0, G_t.T, trans_b=1, overwrite_c=1)


def _stacked_maps(sub: CrossTemporalStructure, deltas, kind: str) -> np.ndarray:
    """(k, b, d) maps G_i of a one-series structure ``sub`` at Omega_i =
    diag(deltas[i]), as ``build_projection`` builds them: the rows with
    every delta > 0 in structural form, (S'W_iS)^{-1} S'W_i, by one
    batched inversion, and zero-constrained every row with a zero delta
    or whose S'W_iS has a 1-norm condition number over
    ``_STRUCTURAL_BOUND``."""
    S = sub.te.summation
    G = np.empty((len(deltas),) + S.T.shape)
    positive = np.all(deltas > 0.0, axis=1)
    SW = S.T * (1.0 / deltas[positive])[:, None, :]
    A = SW @ S
    try:
        P = np.linalg.inv(A)
    except np.linalg.LinAlgError:  # a numerically singular S'W_iS
        P = np.full_like(A, np.inf)
    G[positive] = P @ SW
    cond = np.full(len(deltas), np.inf)
    cond[positive] = np.linalg.norm(A, 1, axis=(1, 2)) * np.linalg.norm(P, 1, axis=(1, 2))
    for i in np.flatnonzero(~(cond <= _STRUCTURAL_BOUND)):
        G[i] = _zero_constrained(sub.constraints_csr, sub.constraints_t_csr,
                                 np.diag(deltas[i]), sub.bottom_hf_indices(),
                                 "C Omega C'", kind)
    return G


def build_projection(
    structure: CrossTemporalStructure, omega: CovarianceMatrix
) -> ReconciliationMap:
    """Optimal projection map for a given covariance, in structural form or
    held as G = G_Q F^+ (module docstring).  A full kind uses the
    structure's CSR forms of S or C.
    A structured kind builds F^+ and C_r as CSR Kronecker products
    (``kron_csr``; ``hb``'s G = F^+ is formed dense), reads Q from
    ``omega.core`` and raises ValidationError when it holds none, as a
    covariance read from a JSON cache does, or when its factor is not
    the kind's F, as a reconciled covariance's S is not.
    Each call computes a new map; callers that apply one covariance more
    than once keep it.
    """
    st, kind = structure, omega.spec.kind
    G = (_structural(st, omega)
         if omega.diag is not None and np.all(omega.diag > 0.0) else None)
    if G is not None:
        return ReconciliationMap(st, omega, G)
    if kind not in STRUCTURED_KINDS:
        G = _zero_constrained(st.constraints_csr, st.constraints_t_csr,
                              omega.values, st.bottom_hf_indices(),
                              "C Omega C'", kind)
        return ReconciliationMap(st, omega, G)
    if omega.core is None:
        raise ValidationError(f"covariance kind {kind!r} reconciles from its "
                              f"core, and this covariance holds none")
    te, n_b = st.te, st.cs.n_bottom
    S_cs, S_te = _factor_blocks(kind, st)
    P_cs = np.eye(st.n) if S_cs is None else np.linalg.pinv(S_cs)
    P_te = np.eye(te.dim) if S_te is None else np.linalg.pinv(S_te)
    width = P_cs.shape[0] * P_te.shape[0]
    if omega.factor.shape[1] != width:  # as S, after gaussian_reconcile
        raise ValidationError(
            f"covariance kind {kind!r} reconciles through a factor of {width} "
            f"columns, and this covariance's factor has {omega.factor.shape[1]}")
    if S_cs is None:  # h: cells (series, period) under C_cs (x) I_m
        A, B = st.cs.constraints, np.eye(te.m)
        keep = np.arange(st.cs.n_upper * te.m, st.n * te.m)
    elif S_te is None:  # b: cells (bottom series, temporal cell) under I (x) C_te
        A, B = np.eye(n_b), te.constraints
        keep = st.cell_indices(range(n_b), range(te.k_star, te.dim)).ravel()
    else:  # hb: T = I, G_Q = I; G = S^+
        return ReconciliationMap(st, omega, _kron_pinv(P_cs, P_te))
    G_Q = _zero_constrained(kron_csr(A, B), kron_csr(A, B, transpose=True),
                            omega.core.values, keep, "C Q C'", kind)
    return ReconciliationMap(st, omega, (kron_csr(P_cs, P_te).T @ G_Q.T).T)


def reconcile_point(rec_map: ReconciliationMap, xhat: np.ndarray) -> np.ndarray:
    """Apply the map to a stacked vector or to rows of draws."""
    x = np.asarray(xhat, dtype=float)
    dim = rec_map.structure.dim
    if x.ndim > 2 or x.shape[-1] != dim:
        raise ValueError(f"expected trailing dimension {dim}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    return rec_map(x)


def bottom_up(structure: CrossTemporalStructure, b_forecasts: np.ndarray) -> np.ndarray:
    """Aggregate high-frequency bottom forecasts through the summation matrix.

    Takes a (bottom_dim,) vector or an (L, bottom_dim) block and
    multiplies by the CSR summation matrix; a block comes back F-ordered.
    """
    b = np.asarray(b_forecasts, dtype=float)
    if b.ndim > 2 or b.shape[-1] != structure.bottom_dim:
        raise ValueError(
            f"expected trailing dimension {structure.bottom_dim}, got {b.shape}"
        )
    return (structure.summation_csr @ b.T).T


def composite_map(
    structure: CrossTemporalStructure,
    mode: str,
    inner_spec: CovarianceSpec | None,
    residuals: ResidualSet | None = None,
):
    """Build a two-step composite once; return the function applying it
    to a stacked vector or an (L, dim) block.

    ``cs_then_te_bu``: cross-sectionally reconcile the highest-frequency
    forecasts, then rebuild all temporal orders bottom-up.
    ``te_then_cs_bu``: temporally reconcile each bottom series, then
    rebuild the upper series bottom-up per order.
    ``inner_spec=None`` replaces the inner step by bottom-up too,
    collapsing both modes to plain ct(bu).  Either way the result is
    cross-temporally coherent.  The inner map is the G of the optimal
    map on a one-dimensional structure: on ``cs_only`` (n x n weights,
    from the order-1 one-step residuals) or, one per bottom series, on
    ``te_only`` (from that series' columns of the residuals; one map for
    every series when there are none or the kind reads none), the
    per-series maps applied as one stacked product; a diagonal kind's are
    built together by ``_stacked_maps``.  It takes every kind
    ``build_omega`` builds there and is built here, once for every block
    applied.
    """
    st = structure
    n, n_a, dim_te = st.n, st.cs.n_upper, st.te.dim
    if mode not in ("cs_then_te_bu", "te_then_cs_bu"):
        raise ValueError(f"unknown partly-bottom-up mode {mode!r}")

    def inner_map(sub, rows, kind=None):
        """G of the optimal map on ``sub``, weighted from the residual
        rows ``rows(residuals)`` of ``kind`` (default: the residuals')."""
        res = (None if residuals is None
               else ResidualSet(sub, rows(residuals), kind or residuals.kind))
        return build_projection(sub, build_omega(inner_spec, sub, res)).G

    if inner_spec is None:
        # both inner steps bottom-up, in either order: plain ct(bu)
        bottom_hf = st.bottom_hf_indices()

        def reconcile_hf(X):
            return X[:, bottom_hf]

    elif mode == "cs_then_te_bu":
        # at m = 1 every residual is a one-step one, so the pooled order-1
        # rows are a valid multi-step set
        M_b = inner_map(st.cs_only, lambda r: r.h1_matrix(1), "multi_step")
        hf_cols = st.cell_indices(range(n), range(st.te.k_star, dim_te)).ravel()

        def reconcile_hf(X):
            # the (n, m L) block of high-frequency cells: one product
            hf = X.T[hf_cols].reshape(n, -1)
            return (M_b @ hf).reshape(st.bottom_dim, -1).T

    else:  # te_then_cs_bu
        deltas = series_diagonals(inner_spec, st, residuals)
        if deltas is not None:  # (n_b, m, dim_te) maps, or one for all
            M_te = _stacked_maps(st.te_only, deltas, inner_spec.kind)
        else:  # one oct map per series
            M_te = np.stack([
                inner_map(st.te_only, lambda r: r.E[:, i * dim_te:(i + 1) * dim_te])
                for i in range(n_a, n)])

        def reconcile_hf(X):
            # every bottom series in one product, (n_b, m, L)
            b_hf = M_te @ X.reshape(-1, n, dim_te)[:, n_a:, :].transpose(1, 2, 0)
            return b_hf.reshape(st.bottom_dim, -1).T

    def apply(base: np.ndarray) -> np.ndarray:
        x = np.asarray(base, dtype=float)
        if x.shape[-1:] != (st.dim,):
            raise ValueError(f"expected trailing dimension {st.dim}")
        b = reconcile_hf(x.reshape(-1, st.dim))
        return bottom_up(st, b.reshape(x.shape[:-1] + (st.bottom_dim,)))

    return apply


def partly_bottom_up(
    structure: CrossTemporalStructure,
    mode: str,
    base: np.ndarray,
    inner_spec: CovarianceSpec | None,
    residuals: ResidualSet | None = None,
) -> np.ndarray:
    """Two-step composite reconciliation of ``base`` by the composite
    ``composite_map`` builds, built for this one call."""
    return composite_map(structure, mode, inner_spec, residuals)(base)


def set_negative_to_zero(
    structure: CrossTemporalStructure, values: np.ndarray
) -> np.ndarray:
    """Clamp the high-frequency bottom cells at zero and re-aggregate.

    The output is always coherent, and non-negative everywhere whenever
    the aggregation matrices are non-negative.
    """
    x = np.asarray(values, dtype=float)
    if x.shape[-1:] != (structure.dim,):
        raise ValueError(f"expected trailing dimension {structure.dim}")
    return bottom_up(structure, np.maximum(x[..., structure.bottom_hf_indices()], 0.0))

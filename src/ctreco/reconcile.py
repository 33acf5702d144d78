"""Point reconciliation maps.

The optimal map is the oblique projection onto the coherent subspace,
``M = I - Omega C' (C Omega C')^{-1} C``, for a positive-definite
weighting Omega.  It equals the structural form ``M = S G`` with
``G = (S' Omega^{-1} S)^{-1} S' Omega^{-1}`` for any PD Omega.  Only G,
the (n_b m) x d map from a stacked vector to its reconciled
high-frequency bottom cells, carries information: it is the rows of M at
those cells.  ``build_projection`` computes it from the zero-constrained
form through the sparse C, and a map is applied as ``S (G x)`` with the
sparse S, so the d x d matrix M is formed only when a caller reads
``ReconciliationMap.M``.

Every linear solve factors its matrix A (``C Omega C'`` or the inner
``C W C'`` of a composite) by Cholesky, A = R'R, and accepts the factor
when ||A||_1 ||R^{-1}||_F^2 <= 1e11.  That product is an upper bound on
the 2-norm condition number of A (||A||_2 <= ||A||_1 for symmetric A,
and ||A^{-1}||_2 = ||R^{-1}||_2^2 <= ||R^{-1}||_F^2), a decade under the
1e12 limit.  When the factorisation fails or the bound is larger, the
eigenvalues of A decide: A is rejected as numerically singular, with
``NumericalError`` naming the covariance kind, when its smallest
eigenvalue is not positive or its eigenvalue ratio exceeds 1e12.  So a
matrix is accepted exactly when the eigenvalue rule accepts it.

The structured covariances (``hb``, ``h``, ``b``) are rank deficient by
construction, so ``C Omega C'`` is singular for them at any shrinkage
intensity.  For those kinds a small relative diagonal ridge is added
before projecting, which yields the well-defined limit of the projection
as the ridge vanishes (for ``hb`` that limit is exactly the ols
projection, since the ridge is the only incoherent component).  Their
ridged M is off coherence by up to about 1e-6, so it is not S G: these
kinds keep the dense M, built and applied as ``x M'``.

Besides the optimal map, the classic composites are provided: plain
bottom-up, the two partly-bottom-up schemes (one-dimensional
reconciliation followed by bottom-up along the other dimension), and the
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
    _h1_matrix,
    _shrunk,
)
from ctreco.exceptions import NumericalError
from ctreco.hierarchy import CrossTemporalStructure
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

_RIDGE = 1e-8  # relative ridge for the rank-deficient structured kinds
_MAX_COND = 1e12
_COND_BOUND = 1e11  # a factor bounded by this is accepted without eigenvalues


@dataclass(frozen=True, eq=False)
class ReconciliationMap:
    """A linear reconciliation x_tilde = M x_hat = S G x_hat.

    M is a projection onto the coherent subspace: ``C M = 0``,
    ``M S = S`` and ``M M = M`` all hold (to solver precision).  The map
    holds ``G``, the (bottom_dim, dim) matrix giving the reconciled
    high-frequency bottom cells, and is applied as ``S (G x)``; ``M`` is
    derived as S G on first use and kept.  A ridged structured kind
    (``hb``, ``h``, ``b``) holds its dense map as ``ridged_M`` instead,
    with ``G`` None, because its ridged M is not exactly S G.
    """

    structure: CrossTemporalStructure
    omega: CovarianceMatrix
    G: np.ndarray | None = field(default=None, repr=False)
    ridged_M: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.G is None) == (self.ridged_M is None):
            raise ValueError("give exactly one of G and ridged_M")
        st = self.structure
        name = "ridged_M" if self.G is None else "G"
        rows = st.dim if self.G is None else st.bottom_dim
        a = np.asarray(getattr(self, name), dtype=float)
        if a.shape != (rows, st.dim):
            raise ValueError(f"{name} has wrong shape {a.shape}")
        a.flags.writeable = False
        object.__setattr__(self, name, a)

    @cached_property
    def M(self) -> np.ndarray:
        """The d x d map, S G (or the ridged dense map)."""
        if self.G is None:
            return self.ridged_M
        M = self.structure.summation_csr @ self.G
        M.flags.writeable = False
        return M

    def apply(self, xhat: np.ndarray) -> np.ndarray:
        return reconcile_point(self, xhat)


def _checked_cho_factor(A: np.ndarray, what: str, kind: str):
    """Cholesky factor of A, or NumericalError if A is numerically singular.

    Returns ``(cho, R_inv)``: ``cho`` as ``scipy.linalg.cho_factor``
    returns it, with A = R'R, and R_inv = R^{-1} (upper triangular), which
    the condition bound ||A||_1 ||R^{-1}||_F^2 needs anyway.  A factor
    whose bound is at most ``_COND_BOUND`` is accepted as it is;
    otherwise the eigenvalue rule decides (module docstring).
    """
    try:
        cho = scipy.linalg.cho_factor(A)
    except scipy.linalg.LinAlgError as exc:
        cho, failure = None, exc
    if cho is not None:
        R_inv, info = scipy.linalg.lapack.dtrtri(cho[0], lower=0)
        R_inv = np.triu(R_inv)
        bound = np.inf if info != 0 else np.linalg.norm(A, 1) * np.sum(R_inv**2)
        if bound <= _COND_BOUND:
            return cho, R_inv
    eig = np.linalg.eigvalsh(A)
    if eig[0] <= 0 or eig[-1] / eig[0] > _MAX_COND:
        cond = np.inf if eig[0] <= 0 else eig[-1] / eig[0]
        raise NumericalError(
            f"{what} is numerically singular for covariance kind "
            f"{kind!r} (condition number {cond:.2e})"
        )
    if cho is None:  # pragma: no cover
        raise NumericalError(f"{what} failed to factor: {failure}") from failure
    return cho, R_inv


def build_projection(
    structure: CrossTemporalStructure, omega: CovarianceMatrix
) -> ReconciliationMap:
    """Optimal projection map for a given covariance, in structural form.

    With R'R = C Omega C', the rows of M at the bottom high-frequency
    cells (bhf) are G = E_bhf - (C Omega)'[bhf] R^{-1} R^{-T} C, where
    E_bhf selects those cells; every product with C goes through its CSR
    form.  The ridged structured kinds are built densely by
    ``_ridged_projection``.  Each call computes a new map; callers that
    apply one covariance more than once keep the returned map.
    """
    kind = omega.spec.kind
    if kind in STRUCTURED_KINDS:
        return _ridged_projection(structure, omega)
    C = structure.constraints_csr
    CO = C @ omega.values
    _, R_inv = _checked_cho_factor(C @ CO.T, "C Omega C'", kind)
    bhf = structure.bottom_hf_indices()
    W = (CO[:, bhf].T @ R_inv) @ R_inv.T  # (C Omega)'[bhf] (C Omega C')^{-1}
    G = -(structure.constraints_t_csr @ W.T).T
    G[np.arange(bhf.size), bhf] += 1.0
    return ReconciliationMap(structure=structure, omega=omega, G=G)


def _ridged_projection(
    structure: CrossTemporalStructure, omega: CovarianceMatrix
) -> ReconciliationMap:
    """Dense M = I - Omega_r C' (C Omega_r C')^{-1} C for a structured kind,
    Omega_r being Omega plus a relative diagonal ridge.

    Kept byte for byte as before the structural form: these maps miss
    coherence by up to about 1e-6, and any change of arithmetic moves
    them by as much.
    ROADMAP item 4 deletes this path when the ridge is retired.
    """
    Om = omega.values
    ridge = _RIDGE * np.trace(Om) / Om.shape[0]
    Om = Om + ridge * np.eye(Om.shape[0])
    C = structure.constraints
    CO = C @ Om
    cho, _ = _checked_cho_factor(CO @ C.T, "C Omega C'", omega.spec.kind)
    M = np.eye(structure.dim) - CO.T @ scipy.linalg.cho_solve(cho, C)
    return ReconciliationMap(structure=structure, omega=omega, ridged_M=M)


def _apply_unchecked(rec_map: ReconciliationMap, x: np.ndarray) -> np.ndarray:
    """The map applied to a (dim,) vector or (L, dim) block, unchecked."""
    if rec_map.G is None:
        return x @ rec_map.ridged_M.T
    return bottom_up(rec_map.structure, (rec_map.G @ x.T).T)


def reconcile_point(rec_map: ReconciliationMap, xhat: np.ndarray) -> np.ndarray:
    """Apply the map to a stacked vector or to rows of draws."""
    x = np.asarray(xhat, dtype=float)
    dim = rec_map.structure.dim
    if x.ndim > 2 or x.shape[-1] != dim:
        raise ValueError(f"expected trailing dimension {dim}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    return _apply_unchecked(rec_map, x)


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


def _cross_sectional_weights(
    spec: CovarianceSpec, structure: CrossTemporalStructure,
    residuals: ResidualSet | None,
) -> np.ndarray:
    cs = structure.cs
    kind = spec.kind
    if kind == "ols":
        return np.eye(cs.n)
    if kind == "struc":
        return np.diag(cs.summation @ np.ones(cs.n_bottom))
    if residuals is None:
        raise ValueError(f"inner covariance {kind!r} requires residuals")
    if kind == "wlsv":  # the k = 1 cells of the wlsv covariance diagonal
        first_hf = [structure.index_of(i, 1, 0) for i in range(cs.n)]
        return np.diag(residuals.h1_mean_squares[first_hf])
    if kind == "shr":
        return _shrunk(_h1_matrix(residuals, 1), spec.lam)[0]
    raise ValueError(f"unsupported inner cross-sectional covariance {kind!r}")


def composite_map(
    structure: CrossTemporalStructure,
    mode: str,
    inner_spec: CovarianceSpec | None,
    residuals: ResidualSet | None = None,
):
    """Build a two-step composite once; return the function applying it.

    The inner map -- the cross-sectional ``M_cs`` or one temporal ``M_te``
    per bottom series -- is built here, so a caller reconciling several
    draw blocks with one composite builds it once.  The returned function
    takes a stacked vector or an (L, dim) block and returns what
    ``partly_bottom_up`` returns for it.
    """
    st = structure
    n, n_a = st.n, st.cs.n_upper
    m, k_star = st.te.m, st.te.k_star

    if inner_spec is None:
        # both inner steps bottom-up, in either order: plain ct(bu)
        bottom_hf = st.bottom_hf_indices()

        def reconcile_hf(X):
            return X[:, bottom_hf]

    elif mode == "cs_then_te_bu":
        W = _cross_sectional_weights(inner_spec, st, residuals)
        C = st.cs.constraints
        CW = C @ W
        cho, _ = _checked_cho_factor(CW @ C.T, "C W C'", inner_spec.kind)
        M_cs = np.eye(n) - CW.T @ scipy.linalg.cho_solve(cho, C)
        M_b = M_cs[n_a:]
        hf_cols = np.array(
            [st.index_of(i, 1, j) for i in range(n) for j in range(m)]
        )

        def reconcile_hf(X):
            # the (n, m L) block of high-frequency cells: one product
            hf = X.T[hf_cols].reshape(n, -1)
            return (M_b @ hf).reshape(st.bottom_dim, -1).T

    elif mode == "te_then_cs_bu":
        C_te = st.te.constraints
        if inner_spec.kind == "ols":
            diags = np.ones((n, st.te.dim))
        elif inner_spec.kind == "struc":
            diags = np.tile(st.te.summation @ np.ones(m), (n, 1))
        elif inner_spec.kind == "wlsv":
            if residuals is None:
                raise ValueError("inner wlsv requires residuals")
            diags = residuals.h1_mean_squares.reshape(n, st.te.dim)
        else:
            raise ValueError(
                f"unsupported inner temporal covariance {inner_spec.kind!r}"
            )
        M_te = []
        for i in range(n_a, n):
            COm = C_te * diags[i]  # C @ diag(d)
            cho, _ = _checked_cho_factor(
                COm @ C_te.T, "C Omega C'", inner_spec.kind
            )
            M = np.eye(st.te.dim) - COm.T @ scipy.linalg.cho_solve(cho, C_te)
            M_te.append(M[k_star:])  # the high-frequency rows

        def reconcile_hf(X):
            Xmat = X.reshape(-1, n, st.te.dim)
            b_hf = np.empty((n - n_a, m, X.shape[0]))
            for bi, M in enumerate(M_te):
                b_hf[bi] = M @ Xmat[:, n_a + bi, :].T
            return b_hf.reshape(st.bottom_dim, -1).T

    else:
        raise ValueError(f"unknown partly-bottom-up mode {mode!r}")

    def apply(base: np.ndarray) -> np.ndarray:
        x = np.asarray(base, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        if X.shape[-1] != st.dim:
            raise ValueError(f"expected trailing dimension {st.dim}")
        out = bottom_up(st, reconcile_hf(X))
        return out[0] if single else out

    return apply


def partly_bottom_up(
    structure: CrossTemporalStructure,
    mode: str,
    base: np.ndarray,
    inner_spec: CovarianceSpec | None,
    residuals: ResidualSet | None = None,
) -> np.ndarray:
    """Two-step composite reconciliation.

    ``cs_then_te_bu``: cross-sectionally reconcile the highest-frequency
    forecasts, then rebuild all temporal orders bottom-up.
    ``te_then_cs_bu``: temporally reconcile each bottom series, then
    rebuild the upper series bottom-up per order.

    ``inner_spec=None`` replaces the inner reconciliation by bottom-up
    too, collapsing both modes to plain ct(bu).  Either way the result is
    cross-temporally coherent.  Builds the composite for this one call;
    ``composite_map`` keeps it for several.
    """
    return composite_map(structure, mode, inner_spec, residuals)(base)


def set_negative_to_zero(
    structure: CrossTemporalStructure, values: np.ndarray
) -> np.ndarray:
    """Clamp the high-frequency bottom cells at zero and re-aggregate.

    The output is always coherent, and non-negative everywhere whenever
    the aggregation matrices are non-negative.
    """
    x = np.asarray(values, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[-1] != structure.dim:
        raise ValueError(f"expected trailing dimension {structure.dim}")
    out = bottom_up(structure, np.maximum(X[:, structure.bottom_hf_indices()], 0.0))
    return out[0] if single else out

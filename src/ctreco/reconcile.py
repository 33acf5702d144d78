"""Point reconciliation maps.

The optimal map is the oblique projection onto the coherent subspace,
``M = I - Omega C' (C Omega C')^{-1} C``, for a positive-definite
weighting Omega.  The equivalent structural form ``M = S G`` with
``G = (S' Omega^{-1} S)^{-1} S' Omega^{-1}`` is also provided and the two
agree entrywise for any PD Omega.

The structured covariances (``hb``, ``h``, ``b``) are rank deficient by
construction, so ``C Omega C'`` is singular for them at any shrinkage
intensity.  For those kinds a small relative diagonal ridge is added
before projecting, which yields the well-defined limit of the projection
as the ridge vanishes (for ``hb`` that limit is exactly the ols
projection, since the ridge is the only incoherent component).

Besides the optimal map, the classic composites are provided: plain
bottom-up, the two partly-bottom-up schemes (one-dimensional
reconciliation followed by bottom-up along the other dimension), and the
clamp-negatives-then-aggregate heuristic for non-negative data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ctreco.covariance import (
    STRUCTURED_KINDS,
    CovarianceMatrix,
    CovarianceSpec,
    _h1_matrix,
    _shrunk,
    wlsv_diagonal,
)
from ctreco.exceptions import NumericalError
from ctreco.hierarchy import CrossTemporalStructure
from ctreco.residuals import ResidualSet

__all__ = [
    "ReconciliationMap",
    "build_projection",
    "build_projection_structural",
    "reconcile_point",
    "bottom_up",
    "partly_bottom_up",
    "set_negative_to_zero",
]

_RIDGE = 1e-8  # relative ridge for the rank-deficient structured kinds
_MAX_COND = 1e12


@dataclass(frozen=True, eq=False)
class ReconciliationMap:
    """A linear reconciliation x_tilde = M x_hat.

    M is a projection onto the coherent subspace: ``C M = 0``,
    ``M S = S`` and ``M M = M`` all hold (to solver precision).  ``G`` is
    set when the map was built in structural form, with ``M = S G``.
    """

    structure: CrossTemporalStructure
    omega: CovarianceMatrix
    M: np.ndarray = field(repr=False)
    G: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if M.shape != (self.structure.dim, self.structure.dim):
            raise ValueError("projection matrix has wrong shape")
        M.flags.writeable = False
        object.__setattr__(self, "M", M)

    def apply(self, xhat: np.ndarray) -> np.ndarray:
        return reconcile_point(self, xhat)


def _solve_weights(omega: CovarianceMatrix) -> np.ndarray:
    """Omega values, ridged when the kind is structurally rank deficient."""
    Om = omega.values
    if omega.spec.kind in STRUCTURED_KINDS:
        ridge = _RIDGE * np.trace(Om) / Om.shape[0]
        Om = Om + ridge * np.eye(Om.shape[0])
    return Om


def _checked_cho_factor(A: np.ndarray, what: str, kind: str):
    eig = np.linalg.eigvalsh(A)
    if eig[0] <= 0 or eig[-1] / eig[0] > _MAX_COND:
        cond = np.inf if eig[0] <= 0 else eig[-1] / eig[0]
        raise NumericalError(
            f"{what} is numerically singular for covariance kind "
            f"{kind!r} (condition number {cond:.2e})"
        )
    try:
        return scipy.linalg.cho_factor(A)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"{what} failed to factor: {exc}") from exc


def build_projection(
    structure: CrossTemporalStructure, omega: CovarianceMatrix
) -> ReconciliationMap:
    """Optimal projection map for a given covariance.

    Each call computes a new map; callers that apply one covariance more
    than once keep the returned map.
    """
    C = structure.constraints
    Om = _solve_weights(omega)
    CO = C @ Om
    A = CO @ C.T
    cho = _checked_cho_factor(A, "C Omega C'", omega.spec.kind)
    M = np.eye(structure.dim) - CO.T @ scipy.linalg.cho_solve(cho, C)
    return ReconciliationMap(structure=structure, omega=omega, M=M)


def build_projection_structural(
    structure: CrossTemporalStructure, omega: CovarianceMatrix
) -> ReconciliationMap:
    """Same map in structural form, M = S (S' Omega^-1 S)^-1 S' Omega^-1."""
    S = structure.summation
    Om = _solve_weights(omega)
    cho = _checked_cho_factor(Om, "Omega", omega.spec.kind)
    Oinv_S = scipy.linalg.cho_solve(cho, S)
    inner = S.T @ Oinv_S
    cho_inner = _checked_cho_factor(inner, "S' Omega^-1 S", omega.spec.kind)
    G = scipy.linalg.cho_solve(cho_inner, Oinv_S.T)
    return ReconciliationMap(structure=structure, omega=omega, M=S @ G, G=G)


def reconcile_point(rec_map: ReconciliationMap, xhat: np.ndarray) -> np.ndarray:
    """Apply the map to a stacked vector or to rows of draws."""
    x = np.asarray(xhat, dtype=float)
    dim = rec_map.structure.dim
    if x.shape[-1] != dim:
        raise ValueError(f"expected trailing dimension {dim}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    return x @ rec_map.M.T


def bottom_up(structure: CrossTemporalStructure, b_forecasts: np.ndarray) -> np.ndarray:
    """Aggregate high-frequency bottom forecasts through the summation matrix."""
    b = np.asarray(b_forecasts, dtype=float)
    if b.shape[-1] != structure.bottom_dim:
        raise ValueError(
            f"expected trailing dimension {structure.bottom_dim}, got {b.shape}"
        )
    return b @ structure.summation.T


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
    X = _h1_matrix(residuals, 1)
    if kind == "wlsv":  # per-series variance scaling
        return np.diag(np.mean(X**2, axis=0))
    if kind == "shr":
        return _shrunk(X, spec.lam)[0]
    raise ValueError(f"unsupported inner cross-sectional covariance {kind!r}")


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
    cross-temporally coherent.
    """
    st = structure
    x = np.asarray(base, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[-1] != st.dim:
        raise ValueError(f"expected trailing dimension {st.dim}")
    n, n_a = st.n, st.cs.n_upper
    m, k_star = st.te.m, st.te.k_star
    hf_cols = np.array(
        [st.index_of(i, 1, j) for i in range(n) for j in range(m)]
    )

    if inner_spec is None:
        # both inner steps bottom-up, in either order: plain ct(bu)
        out = bottom_up(st, X[:, st.bottom_hf_indices()])
        return out[0] if single else out

    if mode == "cs_then_te_bu":
        W = _cross_sectional_weights(inner_spec, st, residuals)
        C = st.cs.constraints
        CW = C @ W
        cho = _checked_cho_factor(CW @ C.T, "C W C'", inner_spec.kind)
        M_cs = np.eye(n) - CW.T @ scipy.linalg.cho_solve(cho, C)
        hf = X[:, hf_cols].reshape(-1, n, m)
        rec = np.einsum("ab,rbt->rat", M_cs, hf)
        out = rec[:, n_a:, :].reshape(-1, st.bottom_dim) @ st.summation.T
    elif mode == "te_then_cs_bu":
        C_te = st.te.constraints
        Xmat = X.reshape(-1, n, st.te.dim)
        b_hf = np.empty((X.shape[0], n - n_a, m))
        if inner_spec.kind == "ols":
            diags = np.ones((n, st.te.dim))
        elif inner_spec.kind == "struc":
            diags = np.tile(st.te.summation @ np.ones(m), (n, 1))
        elif inner_spec.kind == "wlsv":
            if residuals is None:
                raise ValueError("inner wlsv requires residuals")
            diags = wlsv_diagonal(residuals).reshape(n, st.te.dim)
        else:
            raise ValueError(
                f"unsupported inner temporal covariance {inner_spec.kind!r}"
            )
        for bi, i in enumerate(range(n_a, n)):
            COm = C_te * diags[i]  # C @ diag(d)
            cho = _checked_cho_factor(COm @ C_te.T, "C Omega C'", inner_spec.kind)
            M_te = np.eye(st.te.dim) - COm.T @ scipy.linalg.cho_solve(cho, C_te)
            rec = Xmat[:, i, :] @ M_te.T
            b_hf[:, bi, :] = rec[:, k_star:]
        out = b_hf.reshape(-1, st.bottom_dim) @ st.summation.T
    else:
        raise ValueError(f"unknown partly-bottom-up mode {mode!r}")

    return out[0] if single else out


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
    b = np.maximum(X[:, structure.bottom_hf_indices()], 0.0)
    out = b @ structure.summation.T
    return out[0] if single else out

"""Covariance matrices for reconciliation and Gaussian sampling.

Two families are provided.  The classic approximations (``ols``,
``struc``, ``wlsv``, ``bdshr``, ``shr``, ``sam``) parameterise the full
error covariance directly.  The structured estimators (``hb``, ``h``,
``b``) estimate a smaller core Q on a sub-block of the residuals -- the
high-frequency bottom cells, all high-frequency cells, or all bottom
series -- shrink it toward its diagonal, and are held factored as
Omega = F Q F' through the corresponding summation factor F, cutting the
parameter count by an order of magnitude on realistic hierarchies.

Covariances built from residuals alone -- ``sam`` = E'E/N and the
structured cores at lambda = 0, X'X/N -- are held as a root R' (R'R =
X'X/N, from one QR of the residual rows), which has min(N, r) columns
for N rows of r columns.  No d x d matrix is formed or decomposed for a
structured kind or ``sam`` unless its dense ``values`` are read.

Shrinkage intensities follow the Ledoit-Wolf estimator in the
Schafer-Strimmer correlation form, computed on the sub-block actually
being shrunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from ctreco.exceptions import ValidationError
from ctreco.hierarchy import CrossTemporalStructure, kron_csr
from ctreco.residuals import ResidualSet

__all__ = [
    "CovarianceSpec",
    "CovarianceMatrix",
    "shrinkage_intensity",
    "sample_covariance",
    "build_omega",
    "parameter_count",
    "FULL_KINDS",
    "STRUCTURED_KINDS",
]

FULL_KINDS = ("ols", "struc", "wlsv", "bdshr", "shr", "sam")
STRUCTURED_KINDS = ("hb", "h", "b")
_ALIASES = {"g": "sam"}


@dataclass(frozen=True)
class CovarianceSpec:
    """Which estimator builds the covariance, and how lambda is chosen.

    ``lam`` fixes the shrinkage intensity; ``None`` means estimate it.
    ``"g"`` is accepted as an alias for ``"sam"``, as the ``gauss-g``
    sampler reads it.
    """

    kind: str
    lam: float | None = None

    def __post_init__(self):
        kind = _ALIASES.get(self.kind.lower(), self.kind.lower())
        if kind not in FULL_KINDS + STRUCTURED_KINDS:
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        if self.lam is not None and not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")
        object.__setattr__(self, "kind", kind)


class CovarianceMatrix:
    """A built covariance Sigma with its provenance, held as ``values``
    (d x d), as a ``root`` A (d x q, Sigma = A A'), as both, or as a
    ``factor`` F (d x r, held as a CSR array) with a ``core`` Q, an r x r
    CovarianceMatrix, for Sigma = F Q F'.  ``factor`` and ``core`` are
    None for an unfactored Sigma.

    A form that was not given is derived on first read and kept:

    * ``values`` = A A', or F Q F' made exactly symmetric.  It is positive
      semi-definite by construction and is not checked again.
    * ``root`` = F (root of Q), or else the lower Cholesky factor of
      ``values`` or, when that fails (a singular Sigma), U sqrt(max(w, 0))
      from the eigenpairs (w, U) of ``values``.

    A given ``values`` must be finite, symmetric to 1e-10 of its largest
    entry (it is stored as its symmetric part) and positive semi-definite
    up to a relative 1e-8: lambda_min >= -1e-8 * lambda_max.  The check is
    one Cholesky factorisation of V + tau I with tau = 0.5e-8 * max(diag
    V); since max(diag V) <= lambda_max, its success already implies the
    rule.  Only when it fails are the eigenvalues computed, and the rule
    decides on them, so the two steps accept and reject exactly what the
    eigenvalue rule alone would.  A given root or factor must be finite.
    Every dense form is read-only; the factor is a CSR copy of the one given.
    """

    def __init__(self, values, spec: CovarianceSpec,
                 lambda_used: float | None = None, root=None, *,
                 factor=None, core: CovarianceMatrix | None = None):
        if (factor is None) != (core is None) or values is root is core is None:
            raise ValueError("give values or a root array, or a factor and its core")
        self.spec = spec
        self.lambda_used = lambda_used
        self._values = None if values is None else _checked_values(values)
        self._root = None if root is None else _checked_root(root)
        self.core = core
        self.factor = (None if core is None
                       else scipy.sparse.csr_array(factor, dtype=float, copy=True))
        if core is not None and not np.isfinite(self.factor.data).all():
            raise ValueError("covariance factor has non-finite entries")

    def __repr__(self) -> str:
        return (f"CovarianceMatrix(spec={self.spec!r}, "
                f"lambda_used={self.lambda_used!r}, dim={self.dim})")

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            if self.core is None:
                V = self._root @ self._root.T  # one syrk: exactly symmetric
            else:
                V = self.factor @ self.core.values @ self.factor.T
                V = 0.5 * (V + V.T)
            V.flags.writeable = False
            self._values = V
        return self._values

    @property
    def root(self) -> np.ndarray:
        if self._root is None:
            if self.core is None:
                A = _values_root(self._values)
            else:
                A = self.factor @ self.core.root
            A.flags.writeable = False
            self._root = A
        return self._root

    @property
    def dim(self) -> int:
        held = self._values if self._values is not None else self._root
        return (self.factor if held is None else held).shape[0]


def _require_finite(A: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first non-finite entries of A."""
    if np.isfinite(A).all():
        return
    bad = np.argwhere(~np.isfinite(A))
    shown = ", ".join(f"({i}, {j}) = {A[i, j]}" for i, j in bad[:5])
    more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
    raise ValueError(f"{what} has {len(bad)} non-finite entries: {shown}{more}")


def _checked_values(values) -> np.ndarray:
    V = np.asarray(values, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("covariance must be square")
    buf = np.abs(V, order="C")  # one buffer for every elementwise step
    scale = np.max(buf)
    if not np.isfinite(scale):
        _require_finite(V, "covariance")
    np.abs(np.subtract(V, V.T, out=buf), out=buf)
    sym_gap = np.max(buf)
    if sym_gap > 1e-10 * max(1.0, scale):
        raise ValueError(f"covariance not symmetric (gap {sym_gap:.2e})")
    V = np.multiply(0.5, np.add(V, V.T, out=buf), out=buf)
    if not _factors_with_margin(V):
        eig = np.linalg.eigvalsh(V)
        if eig[0] < -1e-8 * max(eig[-1], 1e-30):
            raise ValueError(
                f"covariance has negative eigenvalue {eig[0]:.3e} "
                f"(rank {int(np.sum(eig > 1e-12 * eig[-1]))})"
            )
    V.flags.writeable = False
    return V


def _checked_root(root) -> np.ndarray:
    A = np.array(root, dtype=float)
    if A.ndim != 2:
        raise ValueError("covariance root must be a matrix")
    _require_finite(A, "covariance root")
    A.flags.writeable = False
    return A


def _values_root(V: np.ndarray) -> np.ndarray:
    """A with A A' = V: Cholesky, or the eigenpairs for a singular V."""
    try:
        return np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        w, U = np.linalg.eigh(V)
        return U * np.sqrt(np.clip(w, 0.0, None))


def _factors_with_margin(V: np.ndarray) -> bool:
    """Whether V + tau I has a Cholesky factor, tau = 0.5e-8 * max(diag V).

    V must be exactly symmetric, so its transpose -- the Fortran-ordered
    view LAPACK factors in place -- is V itself.
    """
    W = V.copy()
    W.flat[:: W.shape[0] + 1] += 0.5e-8 * np.max(np.diagonal(V))
    try:
        scipy.linalg.cho_factor(W.T, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return False
    return True


def _as_matrix(residuals) -> np.ndarray:
    if isinstance(residuals, ResidualSet):
        return residuals.E
    return np.asarray(residuals, dtype=float)


def shrinkage_intensity(residuals) -> float:
    """Ledoit-Wolf shrinkage intensity toward the diagonal.

    On the sample correlations r_ij of the residual rows,
    lambda = sum_{i != j} var(r_ij) / sum_{i != j} r_ij^2, clamped to
    [0, 1]; an exactly diagonal sample covariance gives lambda = 1.

    Args:
        residuals: a ResidualSet or an (N, d) array, N >= 3, taken as
            mean zero (model residuals).
    """
    X = _as_matrix(residuals)
    N, d = X.shape
    if N < 3:
        raise ValueError(f"need at least 3 residual rows, got {N}")
    scale = np.sqrt(np.mean(X**2, axis=0))
    Z = np.divide(X, scale, out=np.zeros_like(X), where=scale > 0)
    W_mean = (Z.T @ Z) / N  # sample correlations
    var_w = (Z**2).T @ (Z**2) / N - W_mean**2
    var_r = var_w / (N - 1.0)
    off = ~np.eye(d, dtype=bool)
    denom = float(np.sum(W_mean[off] ** 2))
    if denom <= 0.0:
        return 1.0
    lam = float(np.sum(var_r[off])) / denom
    return min(max(lam, 0.0), 1.0)


def sample_covariance(residuals) -> np.ndarray:
    """Sample covariance X'X/N of the N residual rows, taken as mean zero."""
    X = _as_matrix(residuals)
    N = X.shape[0]
    if N < 1:
        raise ValueError("not enough rows for a sample covariance")
    return (X.T @ X) / N


def _residual_root(X: np.ndarray) -> np.ndarray:
    """R' with R'R = X'X/N, for the rows of the (N, r) array X.

    R is the upper factor of the economic QR of X/sqrt(N), its rows
    signed to a non-negative diagonal, so R' is (r, min(N, r)); for
    N >= r it is the Cholesky factor of X'X/N.
    """
    R = np.linalg.qr(X / np.sqrt(X.shape[0]), mode="r")
    R *= np.where(np.diagonal(R) < 0.0, -1.0, 1.0)[:, None]
    return R.T


def _shrunk(X: np.ndarray, lam: float | None) -> tuple[np.ndarray, float]:
    """Shrink the sample covariance of X toward its diagonal."""
    cov = sample_covariance(X)
    if lam is None:
        lam = shrinkage_intensity(X)
    out = lam * np.diag(np.diag(cov)) + (1.0 - lam) * cov
    return out, lam


def _require_kind(spec, residuals, allowed):
    if residuals is None:
        raise ValueError(f"covariance kind {spec.kind!r} requires residuals")
    if residuals.kind not in allowed:
        raise ValueError(
            f"covariance kind {spec.kind!r} requires residual kind in "
            f"{allowed}, got {residuals.kind!r}"
        )


def _h1_matrix(residuals: ResidualSet, k: int) -> np.ndarray:
    """One-step-only residuals of order k, one column per series."""
    st = residuals.structure
    if residuals.kind == "one_step":
        return residuals.order_matrix(k)
    return np.stack(
        [residuals.block(i, k)[:, 0] for i in range(st.n)], axis=1
    )


def _factor_blocks(kind: str, structure: CrossTemporalStructure):
    """The factor F = F_cs (x) F_te of a structured kind, as its two blocks:
    the summation matrix of each dimension F aggregates, None (an identity)
    for each it keeps.  ``hb`` aggregates both, ``h`` time, ``b`` series."""
    return (structure.cs.summation if kind in ("hb", "b") else None,
            structure.te.summation if kind in ("hb", "h") else None)


def build_omega(
    spec: CovarianceSpec,
    structure: CrossTemporalStructure,
    residuals: ResidualSet | None = None,
) -> CovarianceMatrix:
    """Build the covariance matrix selected by ``spec``.

    Residual-kind requirements: the full-matrix estimators (``shr``,
    ``sam``) and the structured ones (``hb``, ``h``, ``b``) need
    multi-step (optionally overlapping) residuals; ``wlsv`` and ``bdshr``
    accept one-step residuals, and with multi-step input fall back to the
    one-step (h = 1) cells only.
    """
    st = structure
    kind = spec.kind
    dim = st.dim
    multi = ("multi_step", "overlapping_multi_step")

    if kind == "ols":
        return CovarianceMatrix(np.eye(dim), spec)

    if kind == "struc":
        diag = st.summation_csr @ np.ones(st.bottom_dim)
        idle = sorted({int(i) // st.te.dim for i in np.flatnonzero(diag <= 0)})
        if idle:
            raise ValidationError(
                f"covariance kind 'struc' weights each cell by S 1, which is "
                f"<= 0 for series {idle}"
            )
        return CovarianceMatrix(np.diag(diag), spec)

    if kind == "wlsv":
        _require_kind(spec, residuals, ("one_step",) + multi)
        return CovarianceMatrix(np.diag(residuals.h1_mean_squares), spec)

    if kind == "bdshr":
        _require_kind(spec, residuals, ("one_step",) + multi)
        W_bd = np.zeros((dim, dim))
        lams = []
        off = 0
        n = st.n
        for k in st.te.factors:
            Mk = st.te.periods_at(k)
            Wk, lam = _shrunk(_h1_matrix(residuals, k), spec.lam)
            lams.append(lam)
            for _ in range(Mk):
                W_bd[off : off + n, off : off + n] = Wk
                off += n
        # permute from temporal-major to the canonical series-major layout
        Omega = W_bd[np.ix_(st.perm, st.perm)]
        return CovarianceMatrix(Omega, spec, lambda_used=float(np.mean(lams)))

    if kind in ("shr", "sam"):
        _require_kind(spec, residuals, multi)
        if kind == "sam":
            return CovarianceMatrix(None, spec, root=_residual_root(residuals.E))
        values, lam = _shrunk(residuals.E, spec.lam)
        return CovarianceMatrix(values, spec, lambda_used=lam)

    # structured kinds: estimate the core on the cells F spans and hold
    # Omega = F core F'; unshrunk, the core is held as its root R'
    _require_kind(spec, residuals, multi)
    S_cs, S_te = _factor_blocks(kind, st)
    series = range(0 if S_cs is None else st.cs.n_upper, st.n)
    data = residuals.columns(series, st.te.factors if S_te is None else [1])
    factor = kron_csr(np.eye(st.n) if S_cs is None else S_cs,
                      np.eye(st.te.dim) if S_te is None else S_te)
    if spec.lam == 0.0:
        core, lam = CovarianceMatrix(None, spec, root=_residual_root(data)), 0.0
    else:
        values, lam = _shrunk(data, spec.lam)
        core = CovarianceMatrix(values, spec)
    return CovarianceMatrix(None, spec, lambda_used=lam, factor=factor, core=core)


def parameter_count(
    kind: str, structure, include_variances: bool = False
) -> int:
    """Number of distinct covariance parameters the estimator must fit.

    Counts the off-diagonal entries of the symmetric matrix being
    estimated; with ``include_variances`` the diagonal is counted too.

    ``structure`` may be a CrossTemporalStructure or an
    ``(n, n_bottom, m, k_star)`` tuple, so counts for large hierarchies
    do not require materialising their matrices.
    """
    if isinstance(structure, CrossTemporalStructure):
        n, n_b = structure.n, structure.cs.n_bottom
        m, k_star = structure.te.m, structure.te.k_star
    else:
        n, n_b, m, k_star = structure
    kind = _ALIASES.get(kind.lower(), kind.lower())
    sizes = {
        "shr": n * (m + k_star),
        "sam": n * (m + k_star),
        "hb": n_b * m,
        "h": n * m,
        "b": n_b * (m + k_star),
    }
    if kind not in sizes:
        raise ValueError(f"parameter_count is defined for {list(sizes)}, "
                         f"got {kind!r}")
    q = sizes[kind]
    return q * (q + 1) // 2 if include_variances else q * (q - 1) // 2

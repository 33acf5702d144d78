"""Covariance matrices for reconciliation and Gaussian sampling.

Two families are provided.  The classic approximations (``ols``,
``struc``, ``wlsv``, ``bdshr``, ``shr``, ``sam``) parameterise the full
error covariance directly.  The structured estimators (``hb``, ``h``,
``b``) estimate a smaller core Q on a sub-block of the residuals -- the
high-frequency bottom cells, all high-frequency cells, or all bottom
series, the cells of the structure's ``reduced`` space -- and are held
factored as Omega = F Q F' through the corresponding summation factor F,
cutting the parameter count by an order of magnitude on realistic
hierarchies.

Besides dense and factored, a covariance is held as diag(delta) + A A',
either part optional; ``ols``, ``struc`` and ``wlsv`` are delta alone.
Every residual-built estimate (``sam``, ``shr``, each ``bdshr`` order
block, the structured cores) is lambda diag(X'X/N) + (1 - lambda) X'X/N
of a block X of N residual rows and r columns, built by one estimator in
the cheapest exact form: at lambda = 0 (``sam`` always) a root A alone,
A A' = X'X/N with min(N, r) columns (X'/sqrt(N) itself from N <= r
rows, R' from one QR of X from more); dense from N >= r rows; else
delta = lambda mean X^2 plus sqrt(1 - lambda) A.  No d x d matrix is
formed or decomposed for a root or a diagonal unless its dense
``values`` are read.

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
    "series_diagonals",
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
    (d x d), as a ``factor`` F (d x r, held as a CSR array) with a
    ``core`` Q, an r x r CovarianceMatrix, for Sigma = F Q F', or as a
    ``diag`` delta >= 0 and a ``low_rank`` A (d x q), either one optional,
    for Sigma = diag(delta) + A A'.  The attributes of a form Sigma is not
    held in are None.

    A form that was not given is derived on first read and kept:

    * ``values`` = diag(delta) + A A', A A' or F Q F' made exactly
      symmetric.  It is positive semi-definite by construction and is not
      checked again.
    * ``root``, a d x q matrix with root root' = Sigma: A when there is
      no diagonal, F (root of Q), or else the lower Cholesky factor of
      ``values`` or, when that fails (a singular Sigma), U sqrt(max(w, 0))
      from the eigenpairs (w, U) of ``values``.

    A given ``values`` must be finite, symmetric to 1e-10 of its largest
    entry (it is stored as its symmetric part) and positive semi-definite
    up to a relative 1e-8: lambda_min >= -1e-8 * lambda_max.  The check is
    one Cholesky factorisation of V + tau I with tau = 0.5e-8 * max(diag
    V); since max(diag V) <= lambda_max, its success already implies the
    rule.  Only when it fails are the eigenvalues computed, and the rule
    decides on them, so the two steps accept and reject exactly what the
    eigenvalue rule alone would.  A given factor, diagonal or low-rank
    part must be finite, and a diagonal non-negative.
    Every dense form is read-only; the factor is a CSR copy of the one given.
    """

    def __init__(self, values, spec: CovarianceSpec,
                 lambda_used: float | None = None, *,
                 factor=None, core: CovarianceMatrix | None = None,
                 diag=None, low_rank=None):
        forms = (values, core, low_rank if diag is None else diag)
        if (factor is None) != (core is None) or sum(f is not None for f in forms) != 1:
            raise ValueError("give values, a factor and its core, or a "
                             "diagonal and a low-rank part")
        self.spec = spec
        self.lambda_used = lambda_used
        self._values = None if values is None else _checked_values(values)
        self.diag = None if diag is None else _checked_root([diag], "diagonal")[0]
        if diag is not None and np.any(self.diag < 0.0):
            raise ValueError(f"covariance diagonal is negative at "
                             f"{np.flatnonzero(self.diag < 0.0)}")
        self.low_rank = None if low_rank is None else _checked_root(low_rank)
        self._root = self.low_rank if diag is None else None
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
            A = self.low_rank
            if self.core is not None:
                V = self.factor @ self.core.values @ self.factor.T
                V = 0.5 * (V + V.T)
            elif self.diag is None:
                V = A @ A.T  # one syrk: exactly symmetric
            else:
                V = np.diag(self.diag) + (0.0 if A is None else A @ A.T)
            V.flags.writeable = False
            self._values = V
        return self._values

    @property
    def root(self) -> np.ndarray:
        if self._root is None:
            if self.core is None:
                A = _values_root(self.values)
            else:
                A = self.factor @ self.core.root
            A.flags.writeable = False
            self._root = A
        return self._root

    @property
    def dim(self) -> int:
        held = (self._values, self.low_rank, self.diag, self.factor)
        return next(a for a in held if a is not None).shape[0]


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


def _checked_root(root, what: str = "root") -> np.ndarray:
    A = np.array(root, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"covariance {what} must be a matrix")
    _require_finite(A, f"covariance {what}")
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

    Both sums come from the d x d products of Z, the rows scaled to unit
    mean square, or, with fewer rows than columns, from the N x N ones:
    sum_ij (Z'Z)_ij^2 = ||ZZ'||_F^2 and the sum of (Z o Z)'(Z o Z) from
    the row sums of Z o Z, each less its diagonal part.

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
    if N < d:
        Z2 = Z**2
        col, row = np.sum(Z2, axis=0), np.sum(Z2, axis=1)
        denom = (np.sum((Z @ Z.T) ** 2) - np.sum(col**2)) / N**2
        var_sum = ((np.sum(row**2) - np.sum(Z2**2)) / N - denom) / (N - 1.0)
    else:
        W_mean = (Z.T @ Z) / N  # sample correlations
        var_r = ((Z**2).T @ (Z**2) / N - W_mean**2) / (N - 1.0)
        off = ~np.eye(d, dtype=bool)
        denom, var_sum = np.sum(W_mean[off] ** 2), np.sum(var_r[off])
    if denom <= 0.0:
        return 1.0
    lam = float(var_sum) / float(denom)
    return min(max(lam, 0.0), 1.0)


def sample_covariance(residuals) -> np.ndarray:
    """Sample covariance X'X/N of the N residual rows, taken as mean zero."""
    X = _as_matrix(residuals)
    N = X.shape[0]
    if N < 1:
        raise ValueError("not enough rows for a sample covariance")
    return (X.T @ X) / N


def _residual_root(X: np.ndarray) -> np.ndarray:
    """An (r, min(N, r)) root A, A A' = X'X/N, of the (N, r) array X:
    X'/sqrt(N) from N <= r rows, exact and continuous in X (an unpivoted
    QR of a wide X is not, at dependent leading columns); from more, R',
    R the economic QR factor of X/sqrt(N) with its rows signed to a
    non-negative diagonal: the Cholesky factor of X'X/N."""
    if X.shape[0] <= X.shape[1]:
        return X.T / np.sqrt(X.shape[0])
    R = np.linalg.qr(X / np.sqrt(X.shape[0]), mode="r")
    R *= np.where(np.diagonal(R) < 0.0, -1.0, 1.0)[:, None]
    return R.T


def _estimate(X: np.ndarray, spec: CovarianceSpec) -> CovarianceMatrix:
    """lam diag(X'X/N) + (1 - lam) X'X/N from the N residual rows of the
    (N, r) block X, lam = ``spec.lam`` or, when None, the estimated
    intensity (``sam`` is never shrunk), in the cheapest exact form: the
    root A = ``_residual_root(X)`` alone at lam = 0, dense from N >= r
    rows, else diag(lam mean X^2) + sqrt(1 - lam) A.  Its
    ``lambda_used`` is lam, None for ``sam``."""
    lam = (0.0 if spec.kind == "sam" else
           shrinkage_intensity(X) if spec.lam is None else spec.lam)
    if lam == 0.0:
        return CovarianceMatrix(None, spec, None if spec.kind == "sam" else lam,
                                low_rank=_residual_root(X))
    if X.shape[0] >= X.shape[1]:  # a root would be no narrower than the matrix
        cov = sample_covariance(X)
        return CovarianceMatrix(lam * np.diag(np.diag(cov)) + (1.0 - lam) * cov,
                                spec, lam)
    return CovarianceMatrix(None, spec, lam, diag=lam * np.mean(X**2, axis=0),
                            low_rank=np.sqrt(1.0 - lam) * _residual_root(X))


def _require_kind(spec, residuals, allowed):
    if residuals is None:
        raise ValueError(f"covariance kind {spec.kind!r} requires residuals")
    if residuals.kind not in allowed:
        raise ValueError(
            f"covariance kind {spec.kind!r} requires residual kind in "
            f"{allowed}, got {residuals.kind!r}"
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
        return CovarianceMatrix(None, spec, diag=np.ones(dim))

    if kind == "struc":
        diag = st.summation_csr @ np.ones(st.bottom_dim)
        idle = sorted({int(i) // st.te.dim for i in np.flatnonzero(diag <= 0)})
        if idle:
            raise ValidationError(
                f"covariance kind 'struc' weights each cell by S 1, which is "
                f"<= 0 for series {idle}"
            )
        return CovarianceMatrix(None, spec, diag=diag)

    if kind == "wlsv":
        _require_kind(spec, residuals, ("one_step",) + multi)
        return CovarianceMatrix(None, spec, diag=residuals.h1_mean_squares)

    if kind == "bdshr":
        _require_kind(spec, residuals, ("one_step",) + multi)
        # Omega[(i, c), (j, c)] = W_k[i, j] at each position c of order k
        te = st.te
        Omega = np.zeros((st.n, te.dim, st.n, te.dim))
        blocks = []
        for k in te.factors:
            blocks.append(_estimate(residuals.h1_matrix(k), spec))
            c = te.offset_of(k) + np.arange(te.periods_at(k))
            Omega[:, c, :, c] = blocks[-1].values
        return CovarianceMatrix(Omega.reshape(dim, dim), spec, lambda_used=float(
            np.mean([block.lambda_used for block in blocks])))

    if kind in ("shr", "sam"):
        _require_kind(spec, residuals, multi)
        return _estimate(residuals.E, spec)

    # structured kinds: estimate the core on the cells F spans and hold
    # Omega = F core F'
    _require_kind(spec, residuals, multi)
    S_cs, S_te = _factor_blocks(kind, st)
    series = range(0 if S_cs is None else st.cs.n_upper, st.n)
    core = _estimate(residuals.columns(series, st.te.factors if S_te is None else [1]),
                     spec)
    factor = kron_csr(np.eye(st.n) if S_cs is None else S_cs,
                      np.eye(st.te.dim) if S_te is None else S_te)
    return CovarianceMatrix(None, spec, core.lambda_used, factor=factor, core=core)


def series_diagonals(spec: CovarianceSpec, structure, residuals=None):
    """The diagonal delta ``build_omega`` builds on ``structure.te_only``
    for each bottom series, from that series' residual columns: an
    (n_b, m + k_star) array, or one row for a kind that reads no residuals,
    and None for a kind not held as a diagonal alone."""
    if spec.kind not in ("ols", "struc", "wlsv"):
        return None
    if residuals is None or spec.kind != "wlsv":  # ols and struc read none
        return build_omega(spec, structure.te_only).diag[None]
    # a one-series block's delta is the same on the whole structure
    delta = build_omega(spec, structure, residuals).diag
    return delta.reshape(structure.n, -1)[structure.cs.n_upper:]


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

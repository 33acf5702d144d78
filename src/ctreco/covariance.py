"""Covariance matrices for reconciliation and Gaussian sampling.

Two families are provided.  The classic approximations (``ols``,
``struc``, ``wlsv``, ``bdshr``, ``shr``, ``sam``) parameterise the full
error covariance directly.  The structured estimators (``hb``, ``h``,
``b``) estimate a smaller matrix on a sub-block of the residuals -- the
high-frequency bottom cells, all high-frequency cells, or all bottom
series -- shrink it toward its diagonal, and expand it back through the
corresponding summation factor, cutting the parameter count by an order
of magnitude on realistic hierarchies.

Shrinkage intensities follow the Ledoit-Wolf estimator in the
Schafer-Strimmer correlation form, computed on the sub-block actually
being shrunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ctreco.hierarchy import CrossTemporalStructure
from ctreco.residuals import ResidualSet

__all__ = [
    "CovarianceSpec",
    "CovarianceMatrix",
    "shrinkage_intensity",
    "sample_covariance",
    "build_omega",
    "wlsv_diagonal",
    "parameter_count",
    "FULL_KINDS",
    "STRUCTURED_KINDS",
]

FULL_KINDS = ("ols", "struc", "wlsv", "bdshr", "shr", "sam")
STRUCTURED_KINDS = ("hb", "h", "b")
_ALIASES = {"g": "shr"}


@dataclass(frozen=True)
class CovarianceSpec:
    """Which estimator builds the covariance, and how lambda is chosen.

    ``lam`` fixes the shrinkage intensity; ``None`` means estimate it.
    ``"g"`` is accepted as an alias for ``"shr"`` (global shrinkage).
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

    @property
    def needs_residuals(self) -> bool:
        return self.kind not in ("ols", "struc")


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """A built covariance with its provenance.

    ``factor`` and ``core`` are set for the structured kinds, with
    ``values = factor @ core @ factor.T``; samplers use them to draw in
    the reduced space.
    """

    values: np.ndarray = field(repr=False)
    spec: CovarianceSpec
    lambda_used: float | None = None
    factor: np.ndarray | None = field(default=None, repr=False)
    core: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        V = np.asarray(self.values, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1]:
            raise ValueError("covariance must be square")
        sym_gap = np.max(np.abs(V - V.T))
        if sym_gap > 1e-10 * max(1.0, np.max(np.abs(V))):
            raise ValueError(f"covariance not symmetric (gap {sym_gap:.2e})")
        V = 0.5 * (V + V.T)
        eig = np.linalg.eigvalsh(V)
        if eig[0] < -1e-8 * max(eig[-1], 1e-30):
            raise ValueError(
                f"covariance has negative eigenvalue {eig[0]:.3e} "
                f"(rank {int(np.sum(eig > 1e-12 * eig[-1]))})"
            )
        V.flags.writeable = False
        object.__setattr__(self, "values", V)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _as_matrix(residuals) -> np.ndarray:
    if isinstance(residuals, ResidualSet):
        return residuals.E
    return np.asarray(residuals, dtype=float)


def shrinkage_intensity(residuals, center: bool = False) -> float:
    """Ledoit-Wolf shrinkage intensity toward the diagonal.

    On the sample correlations r_ij of the residual rows,
    lambda = sum_{i != j} var(r_ij) / sum_{i != j} r_ij^2, clamped to
    [0, 1]; an exactly diagonal sample covariance gives lambda = 1.

    Args:
        residuals: a ResidualSet or an (N, d) array, N >= 3.
        center: subtract column means first (default treats model
            residuals as mean zero).
    """
    X = _as_matrix(residuals)
    N, d = X.shape
    if N < 3:
        raise ValueError(f"need at least 3 residual rows, got {N}")
    if center:
        X = X - X.mean(axis=0)
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


def sample_covariance(
    residuals, center: bool = False, unbiased: bool = False
) -> np.ndarray:
    """Sample covariance of residual rows (divisor N by default)."""
    X = _as_matrix(residuals)
    N = X.shape[0]
    if center:
        X = X - X.mean(axis=0)
    div = N - 1 if unbiased else N
    if div < 1:
        raise ValueError("not enough rows for a sample covariance")
    return (X.T @ X) / div


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


def wlsv_diagonal(residuals: ResidualSet) -> np.ndarray:
    """Diagonal of the ``wlsv`` covariance in the stacked layout.

    Every cell of a (series, order) block gets the mean squared one-step
    residual of that block: all of its columns for one-step residuals,
    the h = 1 column for multi-step ones.
    """
    st = residuals.structure
    diag = np.empty(st.dim)
    for i in range(st.n):
        for k in st.te.factors:
            block = residuals.block(i, k)
            vals = block.reshape(-1) if residuals.kind == "one_step" else block[:, 0]
            diag[st.block_slice(i, k)] = np.mean(vals**2)
    return diag


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
        diag = st.summation @ np.ones(st.bottom_dim)
        return CovarianceMatrix(np.diag(diag), spec)

    if kind == "wlsv":
        _require_kind(spec, residuals, ("one_step",) + multi)
        return CovarianceMatrix(np.diag(wlsv_diagonal(residuals)), spec)

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
            return CovarianceMatrix(sample_covariance(residuals), spec)
        values, lam = _shrunk(residuals.E, spec.lam)
        return CovarianceMatrix(values, spec, lambda_used=lam)

    # structured kinds: estimate on a sub-block, shrink, expand
    _require_kind(spec, residuals, multi)
    n_a, n_b = st.cs.n_upper, st.cs.n_bottom
    bottoms = range(n_a, st.n)
    if kind == "hb":
        data = residuals.columns(bottoms, [1])
        factor = st.summation
    elif kind == "h":
        data = residuals.columns(range(st.n), [1])
        factor = np.kron(np.eye(st.n), st.te.summation)
    else:  # "b"
        data = residuals.columns(bottoms, st.te.factors)
        factor = np.kron(st.cs.summation, np.eye(st.te.dim))
    core, lam = _shrunk(data, spec.lam)
    values = factor @ core @ factor.T
    return CovarianceMatrix(
        values, spec, lambda_used=lam, factor=factor, core=core
    )


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
        "hb": n_b * m,
        "h": n * m,
        "b": n_b * (m + k_star),
    }
    if kind not in sizes:
        raise ValueError(f"parameter_count is defined for {list(sizes)}, "
                         f"got {kind!r}")
    q = sizes[kind]
    return q * (q + 1) // 2 if include_variances else q * (q - 1) // 2

"""Reference implementations the tests compare the package against.

Each one is a slower or differently built form of a package routine:
the cross-temporal summation and constraint matrices built dense, a
window stacked series by series and order by order, the
commutation matrix as a dense d x d matrix, the shrinkage intensity
from d x d products, a residual set's one-step rows of one order stacked
series by series, ``bdshr`` built
temporal-major and permuted by the commutation matrix, the residual-built
covariances as F core F' (the package holds the unshrunk ones as a
root), the projection as a dense d x d matrix (also at a ridged Omega,
the form the structured kinds had before their exact limit) and in
structural form, the structured kinds' limit map in structural form, the
eigenvalue accept rules that the Cholesky-first checks must agree with,
and the partly-bottom-up composite as one function that rebuilds its
inner map on every call, from weights built by kind with the dense C.
``spectral_matrices`` draws the symmetric matrices the accept rules are
compared on, and ``gdp`` is the GDP-shaped hierarchy the package is
compared at where a small one hides rounding.
"""

import math
from functools import lru_cache

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from ctreco.covariance import _shrunk
from ctreco.exceptions import NumericalError
from ctreco.hierarchy import (
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    temporally_aggregate,
)
from ctreco.reconcile import ReconciliationMap, _checked_cho_factor, bottom_up
from ctreco.residuals import ResidualSet, _check_inputs, overlapping_series


@lru_cache(maxsize=1)
def gdp():
    """The Australian-GDP shape: 62 bottoms under 24 subgroups, 8 groups
    and a total (n = 95), m = 4, dim 665."""
    sizes = [3] * 14 + [2] * 10
    starts = np.cumsum([0] + sizes)
    sub = np.zeros((24, 62))
    for j in range(24):
        sub[j, starts[j] : starts[j + 1]] = 1.0
    groups = sub.reshape(8, 3, 62).sum(axis=1)
    agg = np.vstack([np.ones(62), groups, sub])
    return build_cross_temporal(build_cross_sectional(agg), build_temporal(4))


def dense_cross_temporal(cs, te):
    """The dense summation and constraint matrices (S, C) of the joint
    structure: S = S_cs (x) S_te, and C stacks the cross-sectional
    constraints at each high-frequency position (rows time-major), written
    in canonical column order, on top of I_n (x) C_te."""
    n, n_a, dim_te = cs.n, cs.n_upper, te.dim
    S = np.kron(cs.summation, te.summation)
    hf_off = dim_te - te.m
    C_star = np.zeros((n_a * te.m, n * dim_te))
    for t in range(te.m):
        rows = slice(t * n_a, (t + 1) * n_a)
        for i in range(n):
            C_star[rows, i * dim_te + hf_off + t] = cs.constraints[:, i]
    C = np.vstack([C_star, np.kron(np.eye(n), te.constraints)])
    return S, C


def stack_window_loop(structure, hf) -> np.ndarray:
    """``hierarchy.stack_window`` as a loop over series and orders."""
    X = np.empty((structure.n, structure.te.dim))
    for i in range(structure.n):
        off = 0
        for k in structure.te.factors:
            Mk = structure.te.periods_at(k)
            X[i, off : off + Mk] = temporally_aggregate(hf[i], k)
            off += Mk
    return X.ravel()


def commutation_dense(structure) -> np.ndarray:
    """Dense commutation matrix P with P @ vec(X) = vec(X').

    ``vec`` stacks columns; X is the n x (m + k_star) observation matrix,
    so vec(X) is temporal-major and vec(X') is the canonical series-major
    stacked vector: P[a, perm[a]] = 1, where perm maps the canonical index
    a = i (m + k_star) + t to the temporal-major index t n + i.
    """
    d, n, dim_te = structure.dim, structure.n, structure.te.dim
    a = np.arange(d)
    P = np.zeros((d, d))
    P[a, (a % dim_te) * n + a // dim_te] = 1.0
    return P


def h1_matrix_stacked(residuals, k) -> np.ndarray:
    """``ResidualSet.h1_matrix`` as a stack of per-series blocks: all of
    a one-step block's cells, or a multi-step block's h = 1 column."""
    st = residuals.structure
    if residuals.kind == "one_step":
        cols = [residuals.block(i, k).reshape(-1) for i in range(st.n)]
    else:
        cols = [residuals.block(i, k)[:, 0] for i in range(st.n)]
    return np.stack(cols, axis=1)


def bdshr_commuted(structure, residuals, lam=None) -> np.ndarray:
    """The ``bdshr`` covariance built temporal-major, one shrunk n x n
    block per temporal position, and permuted to the canonical layout by
    the commutation matrix: Omega = P W_bd P'."""
    st = structure
    W_bd = np.zeros((st.dim, st.dim))
    off = 0
    for k in st.te.factors:
        Wk = _shrunk(h1_matrix_stacked(residuals, k), lam)[0]
        for _ in range(st.te.periods_at(k)):
            W_bd[off : off + st.n, off : off + st.n] = Wk
            off += st.n
    perm = np.argmax(commutation_dense(st), axis=1)
    return W_bd[np.ix_(perm, perm)]


def dense_factor(kind, structure) -> np.ndarray:
    """The dense factor F of a structured kind, Omega = F Q F'."""
    st = structure
    if kind == "hb":
        return st.summation
    if kind == "h":
        return np.kron(np.eye(st.n), st.te.summation)
    return np.kron(st.cs.summation, np.eye(st.te.dim))


def unshrunk_blocks(kind, structure, residuals):
    """The residual columns X a covariance kind is estimated on and the
    dense factor F that expands X'X/N to the stacked vector (F = I for
    ``sam`` and ``shr``)."""
    st = structure
    bottoms = range(st.cs.n_upper, st.n)
    if kind in ("sam", "shr"):
        return residuals.E, np.eye(st.dim)
    if kind == "hb":
        X = residuals.columns(bottoms, [1])
    elif kind == "h":
        X = residuals.columns(range(st.n), [1])
    else:
        X = residuals.columns(bottoms, st.te.factors)
    return X, dense_factor(kind, st)


def dense_covariance(kind, structure, residuals, lam) -> np.ndarray:
    """The covariance as the d x d matrix F core F', core being X'X/N
    shrunk toward its diagonal by ``lam`` (``sam`` is never shrunk)."""
    X, F = unshrunk_blocks(kind, structure, residuals)
    core = X.T @ X / X.shape[0]
    if kind != "sam":
        core = lam * np.diag(np.diag(core)) + (1.0 - lam) * core
    return F @ core @ F.T


def shrinkage_intensity_dense(X) -> float:
    """The Ledoit-Wolf intensity of ``covariance.shrinkage_intensity`` from
    the d x d matrices of sample correlations and their variances, with
    the off-diagonal entries picked by a mask."""
    N, d = X.shape
    scale = np.sqrt(np.mean(X**2, axis=0))
    Z = np.divide(X, scale, out=np.zeros_like(X), where=scale > 0)
    W_mean = (Z.T @ Z) / N  # sample correlations
    var_r = ((Z**2).T @ (Z**2) / N - W_mean**2) / (N - 1.0)
    off = ~np.eye(d, dtype=bool)
    denom = float(np.sum(W_mean[off] ** 2))
    if denom <= 0.0:
        return 1.0
    return min(max(float(np.sum(var_r[off])) / denom, 0.0), 1.0)


def covariance_eig_verdict(values: np.ndarray) -> str | None:
    """The ValueError message ``CovarianceMatrix`` raises for a finite,
    symmetric ``values`` by the eigenvalue rule alone, or None."""
    V = np.asarray(values, dtype=float)
    V = 0.5 * (V + V.T)
    eig = np.linalg.eigvalsh(V)
    if eig[0] < -1e-8 * max(eig[-1], 1e-30):
        return (
            f"covariance has negative eigenvalue {eig[0]:.3e} "
            f"(rank {int(np.sum(eig > 1e-12 * eig[-1]))})"
        )
    return None


def cho_eig_verdict(A: np.ndarray, what: str, kind: str) -> str | None:
    """The NumericalError message of the eigenvalue rule for a solve, or
    None when the rule accepts A (smallest eigenvalue positive and
    eigenvalue ratio at most 1e12)."""
    eig = np.linalg.eigvalsh(A)
    if eig[0] <= 0 or eig[-1] / eig[0] > 1e12:
        cond = np.inf if eig[0] <= 0 else eig[-1] / eig[0]
        return (
            f"{what} is numerically singular for covariance kind "
            f"{kind!r} (condition number {cond:.2e})"
        )
    return None


@st.composite
def spectral_matrices(draw):
    """A random symmetric matrix with a chosen spectrum, and its kind.

    ``rank_deficient``: PSD with some zero eigenvalues; ``near_gate``:
    lambda_min = s * 1e-8 * lambda_max for s in [-1.5, 1.5];
    ``ill_conditioned``: condition number 1e10 to 1e13; ``nonpositive``:
    lambda_min <= 0.  The largest eigenvalue spans 1e-6 to 1e6.
    """
    d = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(
        ["rank_deficient", "near_gate", "ill_conditioned", "nonpositive"]
    ))
    top = 10.0 ** draw(st.floats(-6, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = top * rng.uniform(1e-3, 1.0, size=d)
    lam[-1] = top
    if kind == "rank_deficient":
        lam[: draw(st.integers(1, d - 1))] = 0.0
    elif kind == "near_gate":
        lam[0] = draw(st.floats(-1.5, 1.5)) * 1e-8 * top
    elif kind == "ill_conditioned":
        lam[0] = top / 10.0 ** draw(st.floats(10, 13))
    else:
        lam[0] = -top * draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6, 1.0]))
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    V = (Q * lam) @ Q.T
    return 0.5 * (V + V.T), kind


RIDGE = 1e-8  # relative ridge the structured kinds were once solved with


def _cho_solve(A, B, what, kind):
    """A^{-1} B by a Cholesky solve, once the package's accept rule has
    accepted A (so a rejection raises the package's NumericalError)."""
    _checked_cho_factor(A, what, kind)
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), B)


def build_projection_dense(structure, omega, ridge=0.0) -> np.ndarray:
    """The optimal map as a dense matrix, M = I - Omega C' (C Omega C')^-1 C,
    from the dense C (the package's builder before the structural form).

    ``ridge`` > 0 adds ridge * tr(Omega) / d to the diagonal of Omega
    first; at ``RIDGE`` this is how the structured kinds were built before
    their exact limit."""
    Om = omega.values
    if ridge:
        Om = Om + ridge * np.trace(Om) / Om.shape[0] * np.eye(Om.shape[0])
    C = structure.constraints
    CO = C @ Om
    return np.eye(structure.dim) - CO.T @ _cho_solve(
        CO @ C.T, C, "C Omega C'", omega.spec.kind
    )


def build_projection_structural(structure, omega) -> ReconciliationMap:
    """The optimal map in structural form, M = S (S' Omega^-1 S)^-1 S' Omega^-1."""
    S = structure.summation
    kind = omega.spec.kind
    Oinv_S = _cho_solve(omega.values, S, "Omega", kind)
    G = _cho_solve(S.T @ Oinv_S, Oinv_S.T, "S' Omega^-1 S", kind)
    return ReconciliationMap(structure=structure, omega=omega, G=G)


def structured_limit_map(structure, omega) -> np.ndarray:
    """G of a structured kind as the eps -> 0 limit of its map at
    Omega + eps I, in structural form on the reduced space:
    G = (T' Q^-1 T)^-1 T' Q^-1 F^+, with F^+ = pinv(F), T = F^+ S and
    Q = F^+ Omega F^+'.  When T is square (``hb``) this is T^-1 F^+ for
    every Q.  Raises NumericalError when the eigenvalue rule finds Q
    singular."""
    kind = omega.spec.kind
    F_pinv = np.linalg.pinv(dense_factor(kind, structure))
    T = F_pinv @ structure.summation
    if T.shape[0] == T.shape[1]:
        return np.linalg.solve(T, F_pinv)
    Q = F_pinv @ omega.values @ F_pinv.T
    verdict = cho_eig_verdict(0.5 * (Q + Q.T), "Q", kind)
    if verdict is not None:
        raise NumericalError(verdict)
    Qinv_T = np.linalg.pinv(Q) @ T
    return np.linalg.lstsq(T.T @ Qinv_T, Qinv_T.T @ F_pinv, rcond=None)[0]


def cross_sectional_weights(spec, structure, residuals):
    """The n x n weights of the cross-sectional step of ``cs_then_te_bu``,
    built by kind rather than by ``build_omega`` on ``cs_only``: ``ols``
    I, ``struc`` diag(S_cs 1), ``wlsv`` the k = 1 cells of the wlsv
    diagonal and ``shr`` the shrunk covariance of the order-1 one-step
    residuals."""
    cs = structure.cs
    kind = spec.kind
    if kind == "ols":
        return np.eye(cs.n)
    if kind == "struc":
        return np.diag(cs.summation @ np.ones(cs.n_bottom))
    if kind == "wlsv":
        first_hf = [structure.index_of(i, 1, 0) for i in range(cs.n)]
        return np.diag(residuals.h1_mean_squares[first_hf])
    if kind == "shr":
        return _shrunk(h1_matrix_stacked(residuals, 1), spec.lam)[0]
    raise ValueError(f"no reference weights for inner kind {kind!r}")


def partly_bottom_up_per_call(structure, mode, base, inner_spec, residuals=None):
    """Partly-bottom-up reconciliation in one function, building the inner
    map inside the call (the form ``composite_map`` splits in two)."""
    st = structure
    x = np.asarray(base, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    n, n_a = st.n, st.cs.n_upper
    m, k_star = st.te.m, st.te.k_star
    if inner_spec is None:
        out = bottom_up(st, X[:, st.bottom_hf_indices()])
        return out[0] if single else out
    if mode == "cs_then_te_bu":
        hf_cols = np.array(
            [st.index_of(i, 1, j) for i in range(n) for j in range(m)]
        )
        W = cross_sectional_weights(inner_spec, st, residuals)
        C = st.cs.constraints
        CW = C @ W
        cho = scipy.linalg.cho_factor(CW @ C.T)
        M_cs = np.eye(n) - CW.T @ scipy.linalg.cho_solve(cho, C)
        hf = X[:, hf_cols].reshape(-1, n, m)
        rec = np.einsum("ab,rbt->rat", M_cs, hf)
        out = rec[:, n_a:, :].reshape(-1, st.bottom_dim) @ st.summation.T
    else:
        C_te = st.te.constraints
        Xmat = X.reshape(-1, n, st.te.dim)
        b_hf = np.empty((X.shape[0], n - n_a, m))
        if inner_spec.kind == "ols":
            diags = np.ones((n, st.te.dim))
        elif inner_spec.kind == "struc":
            diags = np.tile(st.te.summation @ np.ones(m), (n, 1))
        else:  # wlsv
            diags = np.empty((n, st.te.dim))
            for i in range(n):
                for k in st.te.factors:
                    block = residuals.block(i, k)
                    vals = (block.reshape(-1) if residuals.kind == "one_step"
                            else block[:, 0])
                    cells = st.block_slice(i, k)
                    diags.reshape(-1)[cells] = np.mean(vals**2)
        for bi, i in enumerate(range(n_a, n)):
            COm = C_te * diags[i]
            cho = scipy.linalg.cho_factor(COm @ C_te.T)
            M_te = np.eye(st.te.dim) - COm.T @ scipy.linalg.cho_solve(cho, C_te)
            rec = Xmat[:, i, :] @ M_te.T
            b_hf[:, bi, :] = rec[:, k_star:]
        out = b_hf.reshape(-1, st.bottom_dim) @ st.summation.T
    return out[0] if single else out



def fitted_multistep_loop(model, series, h) -> np.ndarray:
    """h-step-ahead fitted values by the recursion over horizons 1..h,
    with every unavailable lag held as NaN."""
    y = np.asarray(series, dtype=float)
    p = model.order
    T = y.size
    preds: list[np.ndarray] = []
    for step in range(1, h + 1):
        pred = np.full(T, model.intercept)
        for lag in range(1, p + 1):
            vals = np.full(T, np.nan)
            if lag >= step:
                vals[lag:] = y[: T - lag]
            else:
                vals[lag:] = preds[step - lag - 1][: T - lag]
            pred = pred + model.coefficients[lag - 1] * vals
        pred[: min(step + p - 1, T)] = np.nan
        preds.append(pred)
    return preds[h - 1]


def _row_offset(structure, models) -> int:
    """Periods to drop so every block's forecast origin has enough history."""
    st = structure
    off = 0
    for (i, k), model in models.items():
        Mk = st.te.periods_at(k)
        off = max(off, math.ceil(model.order / Mk))
    return off


def assemble_multistep_loop(structure, models, data) -> ResidualSet:
    """Multi-step residuals, one fitted series per (block, horizon)."""
    st = structure
    N = _check_inputs(st, models, data)
    off = _row_offset(st, models)
    if off >= N:
        raise ValueError("not enough periods to form any residual row")
    E = np.empty((N - off, st.dim))
    for (i, k), series in data.items():
        Mk = st.te.periods_at(k)
        block = np.empty((N - off, Mk))
        for h in range(1, Mk + 1):
            fitted = fitted_multistep_loop(models[(i, k)], series, h=h)
            targets = np.arange(off, N) * Mk + h - 1
            block[:, h - 1] = series[targets] - fitted[targets]
        E[:, st.block_slice(i, k)] = block
    return ResidualSet(structure=st, E=E, kind="multi_step")


def assemble_onestep_loop(structure, models, data) -> ResidualSet:
    """One-step residuals, one block at a time."""
    st = structure
    N = _check_inputs(st, models, data)
    off = _row_offset(st, models)
    if off >= N:
        raise ValueError("not enough periods to form any residual row")
    E = np.empty((N - off, st.dim))
    for (i, k), series in data.items():
        Mk = st.te.periods_at(k)
        res = series - fitted_multistep_loop(models[(i, k)], series, h=1)
        E[:, st.block_slice(i, k)] = res[off * Mk :].reshape(N - off, Mk)
    return ResidualSet(structure=st, E=E, kind="one_step")


def assemble_overlapping_loop(structure, models, hf) -> ResidualSet:
    """Overlapping multi-step residuals, one cell at a time over
    (period, shift, series, order, horizon)."""
    st = structure
    hf = np.asarray(hf, dtype=float)
    m = st.te.m
    n, T = hf.shape
    N = T // m
    shifted = {
        (i, k, sk): overlapping_series(hf[i], k, sk)
        for i in range(n)
        for k in st.te.factors
        for sk in range(k)
    }
    fitted_cache = {}

    def fitted_for(i, k, sk, h):
        key = (i, k, sk, h)
        if key not in fitted_cache:
            fitted_cache[key] = fitted_multistep_loop(
                models[(i, k)], shifted[(i, k, sk)], h=h
            )
        return fitted_cache[key]

    rows = []
    for tau in range(N):
        for s in range(m):
            if s > 0 and tau >= N - 1:
                continue  # shifted window runs past the sample
            row = np.empty(st.dim)
            ok = True
            for i in range(n):
                for k in st.te.factors:
                    Mk = st.te.periods_at(k)
                    sk = s % k
                    j0 = (tau * m + s - sk) // k
                    x = shifted[(i, k, sk)]
                    if j0 < models[(i, k)].order or j0 + Mk > x.size:
                        ok = False
                        break
                    for h in range(1, Mk + 1):
                        t = j0 + h - 1
                        row[st.index_of(i, k, h - 1)] = (
                            x[t] - fitted_for(i, k, sk, h)[t]
                        )
                if not ok:
                    break
            if ok:
                rows.append(row)
    if not rows:
        raise ValueError("not enough periods to form any residual row")
    return ResidualSet(
        structure=st, E=np.asarray(rows), kind="overlapping_multi_step"
    )

"""Reference implementations the tests compare the package against.

Each one is a slower or differently built form of a package routine:
the AR fit as one least-squares solve per candidate order, the AR
recursion of one model at a time, the cross-temporal summation and
constraint matrices built dense, a
window stacked series by series and order by order, the ``wlsv``
diagonal block by block, the
commutation matrix as a dense d x d matrix, the shrinkage intensity
from d x d products, a residual set's one-step rows of one order stacked
series by series, ``bdshr`` built
temporal-major and permuted by the commutation matrix, the residual-built
covariances as F core F' (the package holds the unshrunk ones as a
low-rank part), the projection as a dense d x d matrix (also at a ridged
Omega, the form the structured kinds had before their exact limit), in
structural form and in 50-digit arithmetic, the structured kinds' limit
map in structural form, the
eigenvalue accept rules that the Cholesky-first checks must agree with,
the partly-bottom-up composite as one function that rebuilds its
inner map on every call, from weights built by kind with the dense C,
the ``te_then_cs_bu`` composite from 50-digit per-series maps, the ctjb
cells of an origin scored draw by draw: one set of paths
simulated per draw, and every map applied to all L draws, and the two
origin loops the drivers ran before ``evaluate.evaluate_origins``: the
pipeline's jobs of the whole panel and an origin index, and the study's
running sums over replicates.
``spectral_matrices`` draws the symmetric matrices the accept rules are
compared on, and ``gdp`` is the GDP-shaped hierarchy the package is
compared at where a small one hides rounding.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import lru_cache

import mpmath
import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from ctreco.covariance import CovarianceSpec, build_omega, shrinkage_intensity
from ctreco.evaluate import REGISTRY, evaluate_origin, reconciler
from ctreco.exceptions import NumericalError
from ctreco.hierarchy import (
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    stack_window,
    temporally_aggregate,
)
from ctreco.models import ARModel
from ctreco.pipeline import origin_indices
from ctreco.probabilistic import _stacked_paths
from ctreco.reconcile import (ReconciliationMap, _checked_cho_factor, bottom_up,
                              set_negative_to_zero)
from ctreco.residuals import (
    ResidualSet,
    _check_inputs,
    aggregate_levels,
    assemble_multistep,
    assemble_onestep,
    assemble_overlapping,
    fit_level_models,
    overlapping_series,
)
from ctreco.scoring import score_draws
from ctreco.simulation import simulate_dgp, study_structure, true_covariance


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


def shrunk_dense(X, lam=None) -> np.ndarray:
    """lam diag(X'X/N) + (1 - lam) X'X/N as a dense matrix, lam estimated
    when None, whatever the rows and lam; the package picks a cheaper
    exact form where one exists."""
    cov = X.T @ X / X.shape[0]
    if lam is None:
        lam = shrinkage_intensity(X)
    return lam * np.diag(np.diag(cov)) + (1.0 - lam) * cov


def h1_matrix_stacked(residuals, k) -> np.ndarray:
    """``ResidualSet.h1_matrix`` as a stack of per-series blocks: all of
    a one-step block's cells, or a multi-step block's h = 1 column."""
    st = residuals.structure
    if residuals.kind == "one_step":
        cols = [residuals.block(i, k).reshape(-1) for i in range(st.n)]
    else:
        cols = [residuals.block(i, k)[:, 0] for i in range(st.n)]
    return np.stack(cols, axis=1)


def h1_mean_squares_loop(residuals) -> np.ndarray:
    """``ResidualSet.h1_mean_squares`` as one 1-D mean per (series, order)
    block."""
    st = residuals.structure
    diag = np.empty(st.dim)
    for i in range(st.n):
        for k in st.te.factors:
            block = residuals.block(i, k)
            vals = block.reshape(-1) if residuals.kind == "one_step" else block[:, 0]
            diag[st.block_slice(i, k)] = np.mean(vals**2)
    return diag


def bdshr_commuted(structure, residuals, block) -> np.ndarray:
    """The ``bdshr`` covariance built temporal-major, one n x n block
    ``block(X)`` of the order's h = 1 residual columns X per temporal
    position, and permuted to the canonical layout by the commutation
    matrix: Omega = P W_bd P'."""
    st = structure
    W_bd = np.zeros((st.dim, st.dim))
    off = 0
    for k in st.te.factors:
        Wk = block(h1_matrix_stacked(residuals, k))
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


def build_projection_exact(structure, omega, digits=50) -> np.ndarray:
    """G, the rows at the high-frequency bottom cells of the optimal map
    I - Omega C' (C Omega C')^-1 C, in ``digits``-digit arithmetic, with
    Omega formed there from its diagonal and low-rank parts when it has
    them.  At Omega = delta I + A A' with a small delta, the double
    precision ``build_projection_dense`` loses about 1/delta times its
    unit roundoff, so such maps are checked against this one."""
    if not structure.constraints.shape[0]:  # m = 1 on te_only: nothing to solve
        return np.eye(structure.dim)[structure.bottom_hf_indices()]
    with mpmath.workdps(digits):
        C = mpmath.matrix(structure.constraints.tolist())
        if omega.diag is None:
            Om = mpmath.matrix(omega.values.tolist())
        else:
            Om = mpmath.diag(omega.diag.tolist())
            if omega.low_rank is not None:
                A = mpmath.matrix(omega.low_rank.tolist())
                Om += A * A.T
        CO = C * Om
        M = mpmath.eye(structure.dim) - CO.T * ((CO * C.T) ** -1 * C)
        return np.array(M.tolist(), dtype=float)[structure.bottom_hf_indices()]


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
        return shrunk_dense(h1_matrix_stacked(residuals, 1), spec.lam)
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


def te_then_cs_bu_exact(structure, base, inner_spec, residuals) -> np.ndarray:
    """The ``te_then_cs_bu`` composite of an (L, dim) block from each
    bottom series' temporal map in 50-digit arithmetic
    (``build_projection_exact`` on ``te_only``, weighted from that
    series' residual columns), its bottom cells then aggregated by S."""
    st, sub, dim_te = structure, structure.te_only, structure.te.dim
    exact = {}  # one exact map per distinct covariance diagonal
    maps = []
    for i in range(st.cs.n_upper, st.n):
        res = ResidualSet(sub, residuals.E[:, i * dim_te:(i + 1) * dim_te],
                          residuals.kind)
        omega = build_omega(inner_spec, sub, res)
        key = omega.diag.tobytes()
        if key not in exact:
            exact[key] = build_projection_exact(sub, omega)
        maps.append(exact[key])
    X = np.asarray(base, dtype=float).reshape(-1, st.n, dim_te)[:, st.cs.n_upper:]
    b_hf = np.einsum("itk,lik->lit", np.array(maps), X)
    return b_hf.reshape(len(X), st.bottom_dim) @ st.summation.T


def fit_ar_lstsq(series, max_order, criterion="aicc") -> ARModel:
    """``fit_ar`` with one ``np.linalg.lstsq`` per candidate order on its
    own design, taking the rank from ``lstsq`` and raising at the first
    singular order."""
    y = np.asarray(series, dtype=float)
    if criterion not in ("aicc", "fixed"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if y.size <= max_order + 2:
        raise ValueError(f"series of length {y.size} too short")
    t0 = max_order
    T_eff = y.size - t0
    if criterion == "fixed":
        orders = [max_order]
    else:
        orders = [p for p in range(max_order + 1) if p == 0 or T_eff - p - 3 > 0]
    best = None
    for p in orders:
        X = np.empty((T_eff, p + 1))
        X[:, 0] = 1.0
        for lag in range(1, p + 1):
            X[:, lag] = y[t0 - lag : y.size - lag]
        target = y[t0:]
        beta, _, rank, _ = np.linalg.lstsq(X, target, rcond=None)
        if rank < p + 1:
            raise ValueError(f"singular design matrix at order {p} (constant series?)")
        sigma2 = float(np.sum((target - X @ beta) ** 2)) / T_eff
        if T_eff - p - 3 <= 0:
            aicc = np.inf
        else:
            aicc = T_eff * np.log(max(sigma2, 1e-300)) + (
                2.0 * (p + 2) * T_eff / (T_eff - p - 3)
            )
        if best is None or aicc < best[0] - 1e-12:
            best = (aicc, p, beta, sigma2)
    _, p, beta, sigma2 = best
    return ARModel(order=p, coefficients=beta[1:], intercept=float(beta[0]),
                   innovation_variance=sigma2)


def simulate_path_loop(model, history, h, shocks) -> np.ndarray:
    """``simulate_path`` of one model, its paths run side by side as the
    rows of an (L, h) shock block and its lags summed one at a time."""
    y = np.asarray(history, dtype=float)
    E = np.atleast_2d(np.asarray(shocks, dtype=float))
    p = model.order
    buf = np.empty((E.shape[0], p + h))
    buf[:, :p] = y[y.size - p :]
    for step in range(h):
        val = model.intercept + E[:, step]
        for lag in range(1, p + 1):
            val = val + model.coefficients[lag - 1] * buf[:, p + step - lag]
        buf[:, p + step] = val
    return buf[:, p:]


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
    N, _ = _check_inputs(st, models, data)
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
    N, _ = _check_inputs(st, models, data)
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


def ctjb_draws(structure, models, histories, residuals, L, seed) -> np.ndarray:
    """The (L, dim) ctjb draws with one set of paths simulated per draw:
    ``_stacked_paths`` at each of the L drawn periods tau."""
    taus = np.random.default_rng(seed).integers(0, residuals.n_periods, size=L)
    return _stacked_paths(structure, models, histories, residuals.E, taus)


def ctjb_cells_draw_by_draw(structure, train, z, methods, L, seed, *, max_order,
                            criterion, residuals, nonneg):
    """CRPS (method, series, order) and energy score (method, order) of
    ``evaluate_origin``'s ctjb cells, scored draw by draw: the L draws of
    ``ctjb_draws``, each method's map applied to all of them, the clamp
    under ``nonneg`` (every method but ``base``), then ``score_draws``."""
    st = structure
    data = aggregate_levels(st, train)
    models = fit_level_models(data, max_order=max_order, criterion=criterion)
    one_step = assemble_onestep(st, models, data)
    if residuals == "overlapping_multi_step":
        multi = assemble_overlapping(st, models, train)
    else:
        multi = assemble_multistep(st, models, data)
    sources = {"one_step": one_step, "multi": multi, None: None}
    draws = ctjb_draws(st, models, data, one_step, L, seed)
    crps, es = [], []
    for mth in methods:
        family, kind, source = REGISTRY[mth]
        spec = CovarianceSpec(kind) if kind else None
        reconciled = reconciler(st, family, spec, sources[source])(draws)
        if nonneg and mth != "base":
            reconciled = set_negative_to_zero(st, reconciled)
        raw = score_draws(st, reconciled, z)
        crps.append(raw.crps)
        es.append(raw.es)
    return np.array(crps), np.array(es)


def _score_origin(args):
    """One origin of ``pipeline_by_score_origin``, in the form a process
    pool maps: the whole panel, the config, the origin and its index."""
    (dataset_values, structure, cfg, t0, origin_idx) = args
    m = structure.te.m
    # per-origin substream, independent of scheduling order
    origin_seq = np.random.SeedSequence(cfg.seed, spawn_key=(origin_idx,))
    crps, es, _ = evaluate_origin(
        structure,
        dataset_values[:, t0 % m : t0],
        stack_window(structure, dataset_values[:, t0 : t0 + m]),
        cfg.methods,
        cfg.samplers,
        cfg.L,
        origin_seq.spawn(len(cfg.samplers)),
        max_order=cfg.max_order,
        criterion=cfg.criterion,
        residuals=cfg.residuals,
        nonneg=cfg.nonneg,
    )
    return crps, es


def pipeline_by_score_origin(dataset, cfg):
    """``run_pipeline``'s per-origin CRPS and its averaged CRPS and energy
    score: one job per origin holding the whole panel, mapped in order or
    by a pool of ``cfg.jobs`` workers."""
    origins = origin_indices(dataset.n_obs, dataset.structure.te.m,
                             cfg.first_window, cfg.origin_step)
    jobs = [(dataset.values, dataset.structure, cfg, t0, j)
            for j, t0 in enumerate(origins)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_score_origin, jobs))
    else:
        results = [_score_origin(job) for job in jobs]
    origin_crps = np.stack([crps_o for crps_o, _ in results])
    es_avg = np.stack([es_o for _, es_o in results]).mean(axis=0)
    return origin_crps, origin_crps.mean(axis=0), es_avg


def study_by_running_sums(config, methods, samplers, nonneg):
    """``run_study``'s averaged CRPS, energy score and Frobenius gap as
    running sums over the replicates, each divided by their count."""
    st = study_structure()
    omega_true = true_covariance(config)
    n, p = st.n, len(st.te.factors)
    n_m, n_s = len(methods), len(samplers)

    crps_sum = np.zeros((n_m, n_s, n, p))
    es_sum = np.zeros((n_m, n_s, p))
    frob_sum = np.zeros((n_m, n_s))

    root = np.random.SeedSequence(config.seed)
    for ss in root.spawn(config.replicates):
        sim_seed, sigma_seed, *sampler_seeds = ss.spawn(2 + n_s)
        cfg = config
        if config.redraw_sigmas:
            srng = np.random.default_rng(sigma_seed)
            cfg = replace(
                config,
                sigma_b=float(srng.uniform(0.5, 2.0)),
                sigma_c=float(srng.uniform(0.5, 2.0)),
            )
        hf = simulate_dgp(cfg, seed=sim_seed, extra_periods=1)
        crps, es, frob = evaluate_origin(
            st, hf[:, :-2], stack_window(st, hf[:, -2:]), methods, samplers,
            config.L, sampler_seeds, max_order=config.max_order,
            criterion="aicc", residuals="multi_step", nonneg=nonneg,
            omega_true=omega_true,
        )
        crps_sum += crps
        es_sum += es
        frob_sum += frob
    return (crps_sum / config.replicates, es_sum / config.replicates,
            frob_sum / config.replicates)

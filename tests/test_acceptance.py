"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines while they execute.
"""

import time

import numpy as np
import pytest

from ctreco.covariance import CovarianceMatrix, CovarianceSpec, build_omega, parameter_count
from ctreco.hierarchy import (
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
)
from ctreco.models import ARModel
from ctreco.probabilistic import (
    ForecastSample,
    GaussianForecast,
    ctjb_sample,
    gaussian_reconcile,
    reconcile_sample,
    sample_gaussian,
)
from ctreco.reconcile import build_projection
from ctreco.residuals import ResidualSet
from ctreco.scoring import crps, energy_score
from ctreco.simulation import (
    SimulationConfig,
    run_study,
    study_structure,
    true_covariance,
)
from reference import build_projection_structural


def report(number: int, text: str):
    print(f"PASS criterion {number}: {text}")


def make_structure(agg, m):
    return build_cross_temporal(
        build_cross_sectional(np.asarray(agg, float)), build_temporal(m)
    )


def test_criterion_1_structural_exactness():
    started = time.time()
    st = make_structure([[1.0, 1.0]], 4)
    np.testing.assert_array_equal(
        st.te.agg, [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]]
    )
    np.testing.assert_array_equal(
        st.te.constraints,
        [
            [1, 0, 0, -1, -1, -1, -1],
            [0, 1, 0, -1, -1, 0, 0],
            [0, 0, 1, 0, 0, -1, -1],
        ],
    )
    np.testing.assert_array_equal(
        st.te.summation, np.vstack([st.te.agg, np.eye(4)])
    )
    assert np.max(np.abs(st.constraints @ st.summation)) <= 1e-12
    elapsed = time.time() - started
    assert elapsed < 1.0
    report(1, f"quarterly matrices exact, C S = 0 at 1e-12 ({elapsed:.3f}s)")


def test_criterion_2_projection_laws():
    started = time.time()
    rng = np.random.default_rng(20240202)
    kinds = ("ols", "struc", "wlsv", "bdshr", "shr", "sam")
    checked = 0
    for case in range(20):
        n_a = int(rng.integers(1, 3))
        n_b = int(rng.integers(1, 5 - n_a))
        m = int(rng.choice([2, 4]))
        # positive weights keep the structural weighting positive definite
        agg = rng.uniform(0.25, 2.0, size=(n_a, n_b))
        st = make_structure(agg, m)
        N = st.dim + 30
        one = ResidualSet(st, rng.normal(size=(N, st.dim)), "one_step")
        multi = ResidualSet(st, rng.normal(size=(N, st.dim)), "multi_step")
        for kind in kinds:
            rs = None if kind in ("ols", "struc") else (
                one if kind in ("wlsv", "bdshr") else multi
            )
            omega = build_omega(CovarianceSpec(kind), st, rs)
            rec = build_projection(st, omega)
            M = rec.M
            scale = max(1.0, np.abs(M).max())
            assert np.max(np.abs(st.constraints @ M)) <= 1e-8 * scale
            assert np.max(np.abs(M @ st.summation - st.summation)) <= 1e-8 * scale
            assert np.max(np.abs(M @ M - M)) <= 1e-8 * scale
            M2 = build_projection_structural(st, omega).M
            assert np.max(np.abs(M - M2)) <= 1e-8 * scale
            checked += 1
    elapsed = time.time() - started
    assert elapsed < 30.0
    report(2, f"projection laws + both-form equality on {checked} cases "
              f"({elapsed:.1f}s)")


def test_criterion_3_parameter_count_table():
    table = {
        (3, 2, 2, 1): ([36, 6, 15, 15], False),
        (95, 62, 4, 3): ([221445, 30876, 72390, 94395], True),
        (525, 304, 12, 16): (
            [108052350, 6655776, 19848150, 36231328], True
        ),
    }
    percents = {
        (3, 2, 2, 1): (83, 58, 58),
        (95, 62, 4, 3): (86, 67, 57),
        (525, 304, 12, 16): (94, 82, 66),
    }
    for dims, (expected, inc) in table.items():
        got = [
            parameter_count(k, dims, include_variances=inc)
            for k in ("g", "hb", "h", "b")
        ]
        assert got == expected, f"{dims}: {got} != {expected}"
        g = got[0]
        for red, want in zip(got[1:], percents[dims]):
            assert abs(100 * (1 - red / g) - want) <= 1.0
    report(3, "reference counts exact for all three setups, reductions "
              "within 1 point")


def test_criterion_4_score_oracles():
    assert crps([0.0, 2.0], 1.0) == pytest.approx(0.5, abs=1e-14)
    rng = np.random.default_rng(4)
    worst_crps = worst_es = 0.0
    for _ in range(1000):
        L = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=L) * rng.uniform(0.5, 5)
        z = rng.normal()
        ref = sum(abs(v - z) for v in x) / L - sum(
            abs(a - b) for a in x for b in x
        ) / (2 * L * L)
        worst_crps = max(worst_crps, abs(crps(x, z) - ref))
        if L >= 2:
            X = rng.normal(size=(L, d))
            zv = rng.normal(size=d)
            t1 = sum(np.linalg.norm(X[l] - zv) for l in range(L)) / L
            t2 = sum(
                np.linalg.norm(X[l] - X[l + 1]) for l in range(L - 1)
            ) / (2 * (L - 1))
            worst_es = max(worst_es, abs(energy_score(X, zv) - (t1 - t2)))
    assert worst_crps <= 1e-12
    assert worst_es <= 1e-12
    report(4, f"1000 random cases match loop oracles "
              f"(max gaps {worst_crps:.1e}, {worst_es:.1e})")


def test_criterion_5_gaussian_closure():
    st = study_structure()
    rng = np.random.default_rng(55)
    A = rng.normal(size=(st.dim, st.dim))
    sigma = CovarianceMatrix(A @ A.T + st.dim * np.eye(st.dim),
                             CovarianceSpec("sam"))
    W = rng.normal(size=(st.dim, st.dim))
    omega = CovarianceMatrix(W @ W.T + st.dim * np.eye(st.dim),
                             CovarianceSpec("sam"))
    rec = build_projection(st, omega)
    base = GaussianForecast(rng.normal(size=st.dim), sigma)

    L = 10000
    sample = reconcile_sample(sample_gaussian(base, st, L, seed=5), rec)
    closed = gaussian_reconcile(base, rec)
    V = closed.covariance.values
    se_mean = np.sqrt(np.diag(V) / L)
    assert np.all(np.abs(sample.draws.mean(axis=0) - closed.mean)
                  <= 3 * se_mean)
    emp = np.cov(sample.draws.T, bias=True)
    se_cov = np.sqrt((np.outer(np.diag(V), np.diag(V)) + V**2) / L)
    assert np.all(np.abs(emp - V) <= 3 * se_cov)

    # coherent-covariance fixed point
    Q = rng.normal(size=(st.bottom_dim, st.bottom_dim))
    Sigma_coh = st.summation @ (Q @ Q.T + np.eye(st.bottom_dim)) @ st.summation.T
    MSM = rec.M @ Sigma_coh @ rec.M.T
    scale = np.abs(Sigma_coh).max()
    assert np.max(np.abs(MSM - Sigma_coh)) <= 1e-8 * scale
    report(5, "closed-form moments matched at 3 MC standard errors; "
              "coherent covariance is a fixed point at 1e-8")


def test_criterion_6_bootstrap_coherence_and_reproducibility():
    st = study_structure()
    rng = np.random.default_rng(66)
    models = {}
    histories = {}
    for i in range(st.n):
        for k in st.te.factors:
            models[(i, k)] = ARModel(
                2, np.array([0.5 - 0.05 * i, -0.2]), 0.1 * k, 1.0
            )
            histories[(i, k)] = rng.normal(size=8)

    # coherence of every reconciled draw
    residuals = ResidualSet(st, rng.normal(size=(40, st.dim)), "one_step")
    omega = build_omega(CovarianceSpec("wlsv"), st, residuals)
    rec = build_projection(st, omega)
    sample = ctjb_sample(st, models, histories, residuals, L=500, seed=7)
    reconciled = reconcile_sample(sample, rec)
    for row in reconciled.draws:
        assert st.is_coherent(row)

    # bit-identical under a fixed seed
    again = ctjb_sample(st, models, histories, residuals, L=500, seed=7)
    assert sample.draws.tobytes() == again.draws.tobytes()

    # enumeration oracle at N = 3: hand-rolled recursion, exact match
    small = ResidualSet(st, rng.normal(size=(3, st.dim)), "one_step")
    L = 64
    draws = ctjb_sample(st, models, histories, small, L=L, seed=11).draws
    taus = np.random.default_rng(11).integers(0, 3, size=L)
    candidates = np.empty((3, st.dim))
    for tau in range(3):
        for i in range(st.n):
            for k in st.te.factors:
                mdl = models[(i, k)]
                shocks = small.block(i, k)[tau]
                hist = list(histories[(i, k)][-mdl.order:])
                path = []
                for step in range(st.te.periods_at(k)):
                    val = mdl.intercept + shocks[step]
                    for lag in range(1, mdl.order + 1):
                        prev = path[step - lag] if step - lag >= 0 else hist[step - lag]
                        val += mdl.coefficients[lag - 1] * prev
                    path.append(val)
                sl = st.block_slice(i, k)
                candidates[tau, sl] = path
    assert np.array_equal(draws, candidates[taus])
    report(6, "all reconciled bootstrap draws coherent; seed bit-identical; "
              "N=3 enumeration exact")


def test_criterion_7_desk_scale_study():
    config = SimulationConfig(replicates=50, years=500, L=500, seed=7710)
    res = run_study(config)
    mi = {m: i for i, m in enumerate(res.methods)}
    base = res.frobenius[mi["base"]]

    # (a) reconciliation shrinks the covariance gap in every full-rank cell
    full_rank = (
        "ct-bu", "ct-shrcs-bute", "ct-wlsvte-bucs",
        "oct-wlsv", "oct-bdshr", "octh-shr",
    )
    for mth in full_rank:
        row = res.frobenius[mi[mth]]
        for s_idx, smp in enumerate(res.samplers):
            if smp == "gauss-hb":
                # the hb sampler's noise is already coherent, so the gap is
                # structurally unchanged by any map that fixes the subspace
                assert row[s_idx] <= base[s_idx] + 1e-6, (mth, smp)
            else:
                assert row[s_idx] < base[s_idx], (mth, smp)

    # (b) partly-bottom-up lands in the reference band
    vals = res.avg_rel_crps["all"][mi["ct-shrcs-bute"]]
    assert np.all(vals >= 0.85) and np.all(vals <= 0.95), vals

    # (c) the expanded-covariance maps lose to bottom-up at k = 1
    k1 = res.avg_rel_crps[1]
    for mth in ("octh-hshr", "octh-hbshr"):
        assert np.all(k1[mi[mth]] > k1[mi["ct-bu"]]), mth
    report(7, "desk-scale study: gap ordering universal, partly-bottom-up "
              f"overall CRPS in [0.85, 0.95] (got {vals.round(3)}), "
              "hshr/hbshr worse than bottom-up at k=1")


def test_criterion_8_true_covariance_validation():
    cfg = SimulationConfig()
    st = study_structure()
    R, burn = 100000, 200
    rng = np.random.default_rng(88)
    cov = np.array(
        [
            [cfg.sigma_b**2, cfg.rho * cfg.sigma_b * cfg.sigma_c],
            [cfg.rho * cfg.sigma_b * cfg.sigma_c, cfg.sigma_c**2],
        ]
    )
    chol = np.linalg.cholesky(cov)
    phis = np.array([cfg.phi_b, cfg.phi_c])
    y = np.zeros((R, 2, 2))
    for _ in range(burn):
        eps = rng.standard_normal((R, 2)) @ chol.T
        new = phis[:, 0] * y[:, :, 1] + phis[:, 1] * y[:, :, 0] + eps
        y = np.stack([y[:, :, 1], new], axis=2)
    f1 = phis[:, 0] * y[:, :, 1] + phis[:, 1] * y[:, :, 0]
    f2 = phis[:, 0] * f1 + phis[:, 1] * y[:, :, 1]
    a1 = f1 + rng.standard_normal((R, 2)) @ chol.T
    a2 = phis[:, 0] * a1 + phis[:, 1] * y[:, :, 1] + rng.standard_normal(
        (R, 2)
    ) @ chol.T
    err = np.stack([a1 - f1, a2 - f2], axis=2)  # (R, series, step)
    errs = np.empty((R, st.dim))
    for bi in range(2):
        errs[:, st.block_slice(1 + bi, 1)] = err[:, bi, :]
        errs[:, st.block_slice(1 + bi, 2)] = err[:, bi, :].sum(
            axis=1, keepdims=True
        )
    top = err.sum(axis=1)
    errs[:, st.block_slice(0, 1)] = top
    errs[:, st.block_slice(0, 2)] = top.sum(axis=1, keepdims=True)
    emp = np.cov(errs.T, bias=True)
    truth = true_covariance(cfg).values
    rel = np.linalg.norm(emp - truth) / np.linalg.norm(truth)
    assert rel < 0.02
    report(8, f"100k-replicate error covariance within 2% of closed form "
              f"(relative gap {rel:.3%})")


def test_criterion_9_nonnegativity(toy_files):
    from ctreco.cli import main
    from ctreco.io import load_hierarchy, read_stacked_csv

    tmp = toy_files["tmp"]
    rc = main(
        ["--seed", "9", "--output-dir", str(tmp / "s"), "sample",
         str(toy_files["data"]), "--hierarchy", str(toy_files["hierarchy"]),
         "--L", "200"]
    )
    assert rc == 0
    rc = main(
        ["--output-dir", str(tmp / "r"), "reconcile",
         str(tmp / "s" / "samples.csv"),
         "--hierarchy", str(toy_files["hierarchy"]),
         "--method", "oct", "--omega", "ols", "--nonneg"]
    )
    assert rc == 0
    st, names = load_hierarchy(toy_files["hierarchy"])
    rows = read_stacked_csv(tmp / "r" / "reconciled.csv", st, names)
    assert rows.shape[0] == 200
    assert np.all(rows >= 0.0)
    for row in rows:
        assert st.is_coherent(row)
    report(9, "all 200 reconciled draws non-negative and coherent under "
              "--nonneg")

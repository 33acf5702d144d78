"""Verification of the drivers' outputs against the benchmark's own sums.

Every check returns a list of failure messages; an empty list means the
check passed.  None compares against stored output, and none needs
bit-identical floats across BLAS thread counts: the replica and the
driver it is compared with run in the same process.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from replica import COMPOSITES, OriginRun

COHERENCE_TOL = 1e-8  # as CrossTemporalStructure.is_coherent
PROJECTION_RTOL = 1e-10
SCORE_RTOL = 1e-9
INDEX_RTOL = 1e-10


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


def coherence(run: OriginRun) -> list[str]:
    """Every reconciled draw satisfies C x = 0 to the package tolerance."""
    C = run.structure.constraints
    out = []
    for (mth, smp), D in run.draws.items():
        if mth == "base":
            continue
        gap = np.max(np.abs(D @ C.T), axis=1) / (1.0 + np.max(np.abs(D), axis=1))
        if gap.max() > COHERENCE_TOL:
            out.append(f"{mth}@{smp}: coherence gap {gap.max():.2e}")
    return out


def structural_map(omega: np.ndarray, S: np.ndarray) -> np.ndarray:
    """G of the structural form M = S G, G = (S' W S)^-1 S' W, W = Omega^-1."""
    cho = scipy.linalg.cho_factor(omega)
    Oinv_S = scipy.linalg.cho_solve(cho, S)
    return np.linalg.solve(S.T @ Oinv_S, Oinv_S.T)


def projections(run: OriginRun) -> list[str]:
    """Optimal-projection draws equal the structural-form GLS solution."""
    S = run.structure.summation
    out = []
    for mth in run.maps:
        G = structural_map(run.maps[mth].omega.values, S)
        for smp, X in run.base.items():
            gap = _rel_gap(run.draws[(mth, smp)], (X @ G.T) @ S.T)
            if gap > PROJECTION_RTOL:
                out.append(f"{mth}@{smp}: structural GLS gap {gap:.2e}")
    return out


def bottom_up(run: OriginRun) -> list[str]:
    """Bottom-up outputs equal S times their own high-frequency bottoms."""
    st = run.structure
    out = []
    for (mth, smp), D in run.draws.items():
        if mth != "ct-bu" and mth not in COMPOSITES:
            continue
        gap = _rel_gap(D, D[:, st.bottom_hf_indices()] @ st.summation.T)
        if gap > PROJECTION_RTOL:
            out.append(f"{mth}@{smp}: not S times its bottoms (gap {gap:.2e})")
    return out


def brute_crps(x: np.ndarray, z: float) -> float:
    """mean |x - z| - mean over all pairs |x_l - x_j| / 2, in O(L^2)."""
    return float(
        np.mean(np.abs(x - z)) - 0.5 * np.mean(np.abs(x[:, None] - x[None, :]))
    )


def consecutive_energy(X: np.ndarray, z: np.ndarray) -> float:
    """mean ||x_l - z|| - sum_l ||x_l - x_l+1|| / (2 (L - 1))."""
    L = X.shape[0]
    term1 = np.mean(np.sqrt(np.sum((X - z) ** 2, axis=1)))
    term2 = np.sum(np.sqrt(np.sum((X[1:] - X[:-1]) ** 2, axis=1))) / (2 * (L - 1))
    return float(term1 - term2)


def scores(run: OriginRun, rng: np.random.Generator, cells: int = 3) -> list[str]:
    """score_draws matches brute-force CRPS and energy score on sampled cells."""
    st = run.structure
    keys = sorted(run.draws)
    out = []
    for pick in rng.choice(len(keys), size=min(cells, len(keys)), replace=False):
        mth, smp = keys[pick]
        D = run.draws[(mth, smp)]
        m_idx, s_idx = run.methods.index(mth), run.samplers.index(smp)
        for _ in range(cells):
            i = int(rng.integers(st.n))
            kk = int(rng.integers(len(st.te.factors)))
            k = st.te.factors[kk]
            sl = st.block_slice(i, k)
            expect = np.mean([brute_crps(D[:, c], run.z[c]) for c in range(sl.start, sl.stop)])
            got = run.crps[m_idx, s_idx, i, kk]
            if not math.isclose(got, expect, rel_tol=SCORE_RTOL):
                out.append(f"{mth}@{smp} CRPS ({i}, k={k}): {got!r} vs {expect!r}")
        for kk, k in enumerate(st.te.factors):
            cols = [
                st.index_of(i, k, j)
                for i in range(st.n)
                for j in range(st.te.periods_at(k))
            ]
            expect = consecutive_energy(D[:, cols], run.z[cols])
            got = run.es[m_idx, s_idx, kk]
            if not math.isclose(got, expect, rel_tol=SCORE_RTOL):
                out.append(f"{mth}@{smp} ES k={k}: {got!r} vs {expect!r}")
    return out


def relative_tables(
    orders: tuple[int, ...],
    methods: tuple[str, ...],
    samplers: tuple[str, ...],
    raw_crps: np.ndarray,
    raw_es: np.ndarray,
    index_of,
) -> list[str]:
    """A driver's relative indices equal geometric means of its raw scores.

    ``index_of(m_idx, s_idx)`` returns the driver's
    ``(avg_rel_crps, crps_overall, rel_es, es_overall)`` for one cell.
    Per order, the CRPS index is the geometric mean over series of the
    ratios to base@ctjb; the overall exponents are the documented
    1 / (n (k* + m)) and 1 / (k* + m) of ``ctreco.scoring``.
    """
    out = []
    if not (np.all(np.isfinite(raw_crps)) and np.all(raw_crps > 0)):
        out.append("a raw CRPS is not finite and positive")
    if not (np.all(np.isfinite(raw_es)) and np.all(raw_es > 0)):
        out.append("a raw energy score is not finite and positive")
    if out:
        return out
    n = raw_crps.shape[2]
    cells = sum(orders[0] // k for k in orders)  # k* + m
    b_m, b_s = methods.index("base"), samplers.index("ctjb")
    for m_idx, mth in enumerate(methods):
        for s_idx, smp in enumerate(samplers):
            crps_k, crps_all, es_k, es_all = index_of(m_idx, s_idx)
            logs = [
                [math.log(raw_crps[m_idx, s_idx, i, kk] / raw_crps[b_m, b_s, i, kk])
                 for i in range(n)]
                for kk in range(len(orders))
            ]
            es_logs = [
                math.log(raw_es[m_idx, s_idx, kk] / raw_es[b_m, b_s, kk])
                for kk in range(len(orders))
            ]
            expect = {f"crps k={k}": math.exp(math.fsum(logs[kk]) / n)
                      for kk, k in enumerate(orders)}
            expect.update({f"es k={k}": math.exp(es_logs[kk])
                           for kk, k in enumerate(orders)})
            expect["crps all"] = math.exp(math.fsum(sum(logs, [])) / (n * cells))
            expect["es all"] = math.exp(math.fsum(es_logs) / cells)
            got = {f"crps k={k}": crps_k[k] for k in orders}
            got.update({f"es k={k}": es_k[k] for k in orders})
            got["crps all"] = crps_all
            got["es all"] = es_all
            for key, val in got.items():
                if (m_idx, s_idx) == (b_m, b_s) and val != 1.0:
                    out.append(f"benchmark cell {key} is {val!r}, not 1")
                if not (math.isfinite(val) and val > 0):
                    out.append(f"{mth}@{smp} {key} index {val!r} not finite and > 0")
                elif not math.isclose(val, expect[key], rel_tol=INDEX_RTOL):
                    out.append(f"{mth}@{smp} {key}: {val!r} vs {expect[key]!r}")
    return out


def pipeline_indices(result) -> list[str]:
    """relative_tables for a ``PipelineResult``."""
    def index_of(m_idx, s_idx):
        rep = result.reports[f"{result.methods[m_idx]}@{result.samplers[s_idx]}"]
        return (rep.avg_rel_crps, rep.avg_rel_crps_overall,
                rep.rel_es, rep.avg_rel_es_overall)

    return relative_tables(result.orders, result.methods, result.samplers,
                           result.raw_crps, result.raw_es, index_of)


def study_indices(result) -> list[str]:
    """relative_tables for a ``StudyResult``."""
    def index_of(m_idx, s_idx):
        return (
            {k: result.avg_rel_crps[k][m_idx, s_idx] for k in result.orders},
            result.avg_rel_crps["all"][m_idx, s_idx],
            {k: result.rel_es[k][m_idx, s_idx] for k in result.orders},
            result.rel_es["all"][m_idx, s_idx],
        )

    return relative_tables(result.orders, result.methods, result.samplers,
                           result.raw_crps, result.raw_es, index_of)


def matches_driver(run: OriginRun, result) -> list[str]:
    """The replica scored the same draws as the driver: its sampler seeds
    gave the same draws in a separate call."""
    out = []
    for name, mine, theirs in (
        ("CRPS", run.crps, result.raw_crps),
        ("energy score", run.es, result.raw_es),
        ("Frobenius gap", run.frobenius, getattr(result, "frobenius", None)),
    ):
        if mine is None or theirs is None:
            continue
        if not np.allclose(mine, theirs, rtol=1e-12, atol=0.0):
            gap = np.max(np.abs(mine - theirs) / np.abs(theirs))
            out.append(f"replica and driver {name} differ (rel {gap:.2e})")
    return out


def redraw(run: OriginRun) -> list[str]:
    """Drawing again with the same seed gives the same base draws."""
    return [
        f"{smp}: a second draw with the same seed differs"
        for smp, X in run.base.items()
        if not np.array_equal(run.redraw(smp), X)
    ]


def verify_origin(run: OriginRun, driver_result, rng: np.random.Generator) -> list[str]:
    """Every check that needs the draws of one origin."""
    return (
        coherence(run)
        + projections(run)
        + bottom_up(run)
        + scores(run, rng)
        + matches_driver(run, driver_result)
        + redraw(run)
    )

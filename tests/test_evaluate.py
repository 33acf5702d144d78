"""The per-origin kernel: what it builds once per origin, that the
common case never needs an eigendecomposition, that no projection or
composite is formed as a d x d matrix, and that the ctjb cells, which
reconcile each drawn period's paths once and then gather the draws,
score as the draws reconciled one by one.  The origin loop: that it
takes one origin at a time and stacks the same scores in a pool."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

import ctreco.evaluate as evaluate
import ctreco.probabilistic as probabilistic
from ctreco.covariance import STRUCTURED_KINDS
from ctreco.evaluate import (METHODS, REGISTRY, SAMPLERS, evaluate_origin,
                             evaluate_origins)
from ctreco.exceptions import NumericalError
from ctreco.hierarchy import (
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    stack_window,
)
from ctreco.residuals import ResidualSet
from ctreco.simulation import (SimulationConfig, simulate_dgp, study_structure,
                               true_covariance)
from reference import ctjb_cells_draw_by_draw, gdp

# the methods built as projections, and the partly bottom-up composites
PROJECTIONS = [mth for mth, (family, _, _) in REGISTRY.items() if family == "oct"]
COMPOSITES = {mth: family for mth, (family, _, _) in REGISTRY.items()
              if family in ("cs_then_te_bu", "te_then_cs_bu")}


def random_origin(seed, m=4, years=12):
    """A random 0/1 hierarchy over four bottoms, a positive AR(1) panel
    of ``years`` training periods and the stacked period after it."""
    rng = np.random.default_rng(seed)
    agg = np.vstack([np.ones(4), rng.integers(0, 2, size=(2, 4))])
    agg[1:, 0] = 1.0  # no all-zero rows
    st = build_cross_temporal(build_cross_sectional(agg), build_temporal(m))
    T = (years + 1) * m
    b = np.zeros((4, T + 20))
    for t in range(1, T + 20):
        b[:, t] = 0.6 * b[:, t - 1] + rng.normal(size=4)
    panel = st.cs.summation @ (b[:, 20:] + 30.0)
    train, test = panel[:, : years * m], panel[:, years * m :]
    return st, train, stack_window(st, test)


def run(st, train, z, methods, samplers):
    return evaluate_origin(
        st, train, z, methods, samplers, 20, list(range(len(samplers))),
        max_order=2, criterion="aicc", residuals="multi_step", nonneg=False,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_origin_completes_without_eigenvalues(seed, monkeypatch):
    def no_eig(*_):
        raise AssertionError("np.linalg.eigvalsh called")

    st, train, z = random_origin(seed)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eig)
    crps, es, _ = run(st, train, z, METHODS, SAMPLERS)
    assert np.all(np.isfinite(crps)) and np.all(np.isfinite(es))


@pytest.mark.parametrize("samplers", [("ctjb",), SAMPLERS])
def test_each_composite_is_built_once_per_origin(samplers, monkeypatch):
    built = []
    real = evaluate.composite_map

    def counting(structure, mode, inner_spec, residuals=None):
        built.append(mode)
        return real(structure, mode, inner_spec, residuals)

    monkeypatch.setattr(evaluate, "composite_map", counting)
    st, train, z = random_origin(3)
    run(st, train, z, ("base",) + tuple(COMPOSITES), samplers)
    assert sorted(built) == sorted(COMPOSITES.values())


def test_every_method_is_applied_without_dense_maps(monkeypatch):
    def no_solve(*_):
        raise AssertionError("scipy.linalg.cho_solve called")

    built = []
    real = evaluate.build_projection

    def recording(structure, omega):
        built.append(real(structure, omega))
        return built[-1]

    monkeypatch.setattr(scipy.linalg, "cho_solve", no_solve)
    monkeypatch.setattr(evaluate, "build_projection", recording)
    st, train, z = random_origin(4)
    crps, es, _ = run(st, train, z, METHODS, SAMPLERS)
    assert np.all(np.isfinite(crps)) and np.all(np.isfinite(es))
    assert len(built) == len(PROJECTIONS)
    assert all("M" not in vars(rec) for rec in built)  # M is derived lazily
    structured = [rec for rec in built if rec.omega.spec.kind in STRUCTURED_KINDS]
    assert len(structured) == len(STRUCTURED_KINDS)
    assert all(vars(rec.omega)["_values"] is None for rec in structured)


@pytest.mark.parametrize("m,years", [(4, 12), (2, 60)])
def test_samplers_draw_from_roots_without_decompositions(m, years, monkeypatch):
    # (4, 12): fewer multi-step residual rows than columns; (2, 60): more
    def no_decomposition(*_, **__):
        raise AssertionError("np.linalg.eigh or np.linalg.cholesky called")

    sampled = []
    real = evaluate.sample_gaussian

    def recording(base, *args, **kwargs):
        # only the draws are barred from decomposing: the map builds may
        sampled.append(base.covariance)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", no_decomposition)
            patch.setattr(np.linalg, "cholesky", no_decomposition)
            return real(base, *args, **kwargs)

    st, train, z = random_origin(5, m=m, years=years)
    monkeypatch.setattr(evaluate, "sample_gaussian", recording)
    crps, es, _ = run(st, train, z, METHODS, SAMPLERS)
    assert np.all(np.isfinite(crps)) and np.all(np.isfinite(es))
    assert len(sampled) == len(SAMPLERS) - 1  # every sampler but ctjb
    assert all(vars(cov)["_values"] is None for cov in sampled)


def panel_origin(st, seed, years, level):
    """A panel of AR(1) bottoms around ``level`` on ``st``, summed up the
    hierarchy: ``years`` training periods and the stacked period after."""
    rng = np.random.default_rng(seed)
    n_b, m = st.cs.n_bottom, st.te.m
    T = (years + 1) * m
    b = np.zeros((n_b, T + 20))
    for t in range(1, T + 20):
        b[:, t] = 0.6 * b[:, t - 1] + rng.normal(size=n_b)
    panel = st.cs.summation @ (b[:, 20:] + level)
    return panel[:, : years * m], stack_window(st, panel[:, years * m :])


def assert_ctjb_cells_match_draw_by_draw(st, train, z, L, seed, nonneg, methods=METHODS):
    """Each method's ctjb cell against ``ctjb_cells_draw_by_draw``:
    the composites and base byte-equal, the oct maps, whose products sum
    U rather than L columns, within 1e-12; each gathered block keeps the
    layout of the L draws it stands for (base C, reconciled F).  From one
    distinct path (U = 1) numpy's matmul takes a matrix-vector product,
    so there every map but base's is held to 1e-12.  Where the draw-by-draw
    route raises, ``evaluate_origin`` must raise the same error."""
    kw = dict(max_order=2, criterion="aicc", residuals="multi_step", nonneg=nonneg)
    layouts, distinct = [], []
    real, real_paths = evaluate.score_draws, evaluate.ctjb_paths

    def recording(structure, draws, observation):
        layouts.append((draws.flags.c_contiguous, draws.flags.f_contiguous))
        return real(structure, draws, observation)

    def recording_paths(*args, **kwargs):
        paths, index = real_paths(*args, **kwargs)
        distinct.append(paths.shape[0])
        return paths, index

    try:
        want_crps, want_es = ctjb_cells_draw_by_draw(st, train, z, methods, L, seed, **kw)
    except (NumericalError, ValueError) as err:  # a constant series fails either way
        with pytest.raises(type(err)) as raised:
            evaluate_origin(st, train, z, methods, ("ctjb",), L, [seed], **kw)
        assert str(raised.value) == str(err)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate, "score_draws", recording)
        patch.setattr(evaluate, "ctjb_paths", recording_paths)
        crps, es, _ = evaluate_origin(st, train, z, methods, ("ctjb",), L, [seed], **kw)
    assert layouts == [(True, False)] + [(False, True)] * (len(methods) - 1)
    for m_idx, mth in enumerate(methods):
        got, want = (crps[m_idx, 0], es[m_idx, 0]), (want_crps[m_idx], want_es[m_idx])
        for g, w in zip(got, want):
            if REGISTRY[mth][0] == "oct" or (mth != "base" and distinct == [1]):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=0, err_msg=mth)
            else:
                assert g.tobytes() == w.tobytes(), mth


@given(data=hst.data())
@settings(max_examples=40, deadline=None)
def test_ctjb_cells_match_the_draw_by_draw_route(data, scoring_cases):
    agg, m, L, seed, _, _ = data.draw(scoring_cases)
    st = build_cross_temporal(build_cross_sectional(agg), build_temporal(m))
    train, z = panel_origin(st, seed, years=12, level=1.0)  # some draws clamp
    # struc weights by S 1, defined where every row of S sums above zero
    methods = tuple(mth for mth in METHODS if mth != "oct-struc"
                    or np.all(st.cs.summation.sum(axis=1) > 0))
    for nonneg in (False, True):
        assert_ctjb_cells_match_draw_by_draw(st, train, z, L, seed, nonneg, methods)


@pytest.mark.parametrize("nonneg", [False, True])
def test_ctjb_cells_match_the_draw_by_draw_route_at_gdp(nonneg):
    # dim 665, N = 22 residual periods, L = 100 draws
    train, z = panel_origin(gdp(), 7, years=24, level=1.0)
    assert_ctjb_cells_match_draw_by_draw(gdp(), train, z, 100, 8, nonneg)


@pytest.mark.parametrize("L", [3, 40])  # fewer and more draws than periods
@pytest.mark.parametrize("samplers", [("ctjb",), SAMPLERS])
def test_ctjb_simulates_and_reconciles_each_drawn_period_once(L, samplers, monkeypatch):
    paths, applied = [], []
    real_paths, real_reconciler = probabilistic._stacked_paths, evaluate.reconciler

    def recording_paths(structure, models, histories, shocks, rows=slice(None)):
        paths.append((shocks.shape[0], np.arange(shocks.shape[0])[rows]))
        return real_paths(structure, models, histories, shocks, rows)

    def wrapping(*args, **kwargs):
        rec = real_reconciler(*args, **kwargs)

        def apply(x):
            applied.append(x.shape[0])
            return rec(x)
        return apply

    monkeypatch.setattr(probabilistic, "_stacked_paths", recording_paths)
    monkeypatch.setattr(evaluate, "reconciler", wrapping)
    st, train, z = random_origin(6)
    evaluate_origin(st, train, z, METHODS, samplers, L, list(range(len(samplers))),
                    max_order=2, criterion="aicc", residuals="multi_step", nonneg=False)
    [(N, rows)] = paths  # one path call, at ctjb's seed 0
    taus = np.random.default_rng(0).integers(0, N, size=L)
    assert rows.tolist() == np.unique(taus).tolist()
    assert rows.size <= min(N, L)
    gauss = len(samplers) - 1
    assert applied == [rows.size] * len(METHODS) + [L] * (len(METHODS) * gauss)


def test_an_overflowing_ctjb_path_raises(monkeypatch):
    # one-step residuals at the float maximum: an AR path with a positive
    # lag coefficient overflows at its second step
    real = evaluate.assemble_onestep

    def huge(structure, models, data):
        res = real(structure, models, data)
        return ResidualSet(structure, np.full_like(res.E, np.finfo(float).max), res.kind)

    monkeypatch.setattr(evaluate, "assemble_onestep", huge)
    st, train, z = random_origin(0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="draws contain non-finite values"):
            run(st, train, z, ("base", "ct-bu"), ("ctjb",))


def test_the_serial_loop_takes_one_origin_at_a_time(monkeypatch):
    events = []

    def origins():
        for j in range(3):
            events.append(("drawn", j))
            yield j, None, [j]

    def scoring(structure, train, z, methods, samplers, L, seeds, **kw):
        events.append(("scored", train))
        return np.full((1, 1, 2, 2), train), np.full((1, 1, 2), train), None

    monkeypatch.setattr(evaluate, "evaluate_origin", scoring)
    crps, es, frobenius = evaluate_origins(None, origins(), ("base",), ("ctjb",), 2)
    assert events == [(what, j) for j in range(3) for what in ("drawn", "scored")]
    assert crps[:, 0, 0, 0, 0].tolist() == es[:, 0, 0, 0].tolist() == [0, 1, 2]
    assert frobenius is None


def study_origins(config, count, n_samplers):
    """``count`` study panels, each the training part, the stacked
    held-out period and one seed per sampler."""
    st = study_structure()
    for j in range(count):
        hf = simulate_dgp(config, seed=j, extra_periods=1)
        seeds = [10 * j + s for s in range(n_samplers)]
        yield hf[:, :-2], stack_window(st, hf[:, -2:]), seeds


def test_origins_stack_the_same_in_a_pool():
    # the study's origins, Frobenius gaps included, through two workers
    config = SimulationConfig(years=40)
    methods = ("base", "ct-bu", "oct-wlsv", "octh-hbshr")
    kw = dict(max_order=2, criterion="aicc", residuals="multi_step", nonneg=False,
              omega_true=true_covariance(config))
    serial, pooled = (
        evaluate_origins(study_structure(), study_origins(config, 4, len(SAMPLERS)),
                         methods, SAMPLERS, 20, jobs=jobs, **kw)
        for jobs in (1, 2))
    for one, two in zip(serial, pooled):
        assert one.shape[:3] == (4, len(methods), len(SAMPLERS))
        assert one.tobytes() == two.tobytes()
    for j, (train, z, seeds) in enumerate(study_origins(config, 4, len(SAMPLERS))):
        alone = evaluate_origin(study_structure(), train, z, methods, SAMPLERS, 20,
                                seeds, **kw)
        for stacked, scores in zip(serial, alone):
            assert stacked[j].tobytes() == scores.tobytes()

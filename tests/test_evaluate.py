"""The per-origin kernel: what it builds once per origin, that the
common case never needs an eigendecomposition, and that no projection or
composite is formed as a d x d matrix."""

import numpy as np
import pytest
import scipy.linalg

import ctreco.evaluate as evaluate
from ctreco.covariance import STRUCTURED_KINDS
from ctreco.evaluate import METHODS, REGISTRY, SAMPLERS, evaluate_origin
from ctreco.hierarchy import (
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    stack_window,
)

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

"""The verification oracles accept correct outputs and catch wrong ones."""

import dataclasses

import numpy as np
import pytest

import oracles
from ctreco import (
    CovarianceMatrix,
    CovarianceSpec,
    build_cross_sectional,
    build_cross_temporal,
    build_projection,
    build_temporal,
    crps,
    energy_score,
)
from harness import replica_op
from spans import Tracer
from workloads import Workload, make_inputs

TOY = Workload(
    name="toy",
    kind="pipeline",
    samplers=("ctjb", "gauss-g", "gauss-hb"),
    L=30,
    origins_per_round=1,
    subgroup_sizes=(2, 2),
    m=4,
    first_window=12,
    residuals="multi_step",
)


@pytest.fixture(scope="module")
def toy_run():
    inputs = make_inputs(TOY, 3, Tracer())
    return replica_op(TOY, inputs, 0, Tracer(), keep=True)


def test_brute_crps_matches_package_crps():
    rng = np.random.default_rng(0)
    x = rng.normal(size=41)
    assert oracles.brute_crps(x, 0.3) == pytest.approx(crps(x, 0.3), rel=1e-12)
    # two draws {0, 2} against z = 0: mean |x - z| = 1, pair term 0.5
    assert oracles.brute_crps(np.array([0.0, 2.0]), 0.0) == pytest.approx(0.5)


def test_consecutive_energy_matches_package_energy_score():
    rng = np.random.default_rng(1)
    X, z = rng.normal(size=(25, 4)), rng.normal(size=4)
    assert oracles.consecutive_energy(X, z) == pytest.approx(
        energy_score(X, z), rel=1e-12
    )


def test_structural_map_equals_projection():
    st = build_cross_temporal(
        build_cross_sectional(np.array([[1.0, 1.0, 1.0]])), build_temporal(4)
    )
    rng = np.random.default_rng(2)
    A = rng.normal(size=(st.dim, st.dim))
    omega = CovarianceMatrix(A @ A.T + st.dim * np.eye(st.dim), CovarianceSpec("sam"))
    G = oracles.structural_map(omega.values, st.summation)
    np.testing.assert_allclose(
        st.summation @ G, build_projection(st, omega).M, atol=1e-10
    )


def test_every_check_passes_on_a_true_run(toy_run):
    assert oracles.coherence(toy_run) == []
    assert oracles.projections(toy_run) == []
    assert oracles.bottom_up(toy_run) == []
    assert oracles.scores(toy_run, np.random.default_rng(0)) == []
    assert oracles.redraw(toy_run) == []


def _with_draw(run, key, draws):
    return dataclasses.replace(run, draws={**run.draws, key: draws})


def test_coherence_catches_an_incoherent_draw(toy_run):
    D = toy_run.draws[("oct-wlsv", "ctjb")].copy()
    D[0, 0] += 1e-3
    bad = _with_draw(toy_run, ("oct-wlsv", "ctjb"), D)
    assert any("oct-wlsv@ctjb" in e for e in oracles.coherence(bad))


def test_projection_check_catches_another_weighting(toy_run):
    # the ct-bu draws are coherent but are not the wlsv projection
    bad = _with_draw(toy_run, ("oct-wlsv", "ctjb"), toy_run.draws[("ct-bu", "ctjb")])
    assert oracles.coherence(bad) == []
    assert any("oct-wlsv@ctjb" in e for e in oracles.projections(bad))


def test_bottom_up_check_catches_a_projection(toy_run):
    bad = _with_draw(toy_run, ("ct-bu", "ctjb"), toy_run.base["ctjb"])
    assert any("ct-bu@ctjb" in e for e in oracles.bottom_up(bad))


def test_score_check_catches_a_wrong_score(toy_run):
    bad = dataclasses.replace(toy_run, crps=toy_run.crps * 1.001, es=toy_run.es * 1.001)
    assert oracles.scores(bad, np.random.default_rng(0))


def test_redraw_catches_a_changed_seed(toy_run):
    bad = dataclasses.replace(toy_run, base={**toy_run.base, "ctjb": toy_run.base["ctjb"] + 1.0})
    assert oracles.redraw(bad) == ["ctjb: a second draw with the same seed differs"]


def test_relative_tables_accept_the_package_indices(toy_run):
    def index_of(m_idx, s_idx):
        rep = toy_run.relative[f"{toy_run.methods[m_idx]}@{toy_run.samplers[s_idx]}"]
        return (rep.avg_rel_crps, rep.avg_rel_crps_overall,
                rep.rel_es, rep.avg_rel_es_overall)

    args = (toy_run.structure.te.factors, toy_run.methods, toy_run.samplers,
            toy_run.crps, toy_run.es)
    assert oracles.relative_tables(*args, index_of) == []

    def skewed(m_idx, s_idx):
        crps_k, crps_all, es_k, es_all = index_of(m_idx, s_idx)
        return crps_k, crps_all * 1.01, es_k, es_all

    errors = oracles.relative_tables(*args, skewed)
    assert any("benchmark cell crps all" in e for e in errors)
    assert any("ct-bu@ctjb crps all" in e for e in errors)


def test_relative_tables_reject_non_positive_scores(toy_run):
    crps_bad = toy_run.crps.copy()
    crps_bad[1, 0, 0, 0] = 0.0
    errors = oracles.relative_tables(
        toy_run.structure.te.factors, toy_run.methods, toy_run.samplers,
        crps_bad, toy_run.es, None,
    )
    assert errors == ["a raw CRPS is not finite and positive"]

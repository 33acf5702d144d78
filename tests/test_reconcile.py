"""Tests for projection maps, composites and the non-negativity heuristic."""

import gc
import weakref

import numpy as np
import pytest

from ctreco.covariance import CovarianceMatrix, CovarianceSpec, build_omega
from ctreco.exceptions import NumericalError
from ctreco.hierarchy import build_cross_sectional, build_cross_temporal, build_temporal
from ctreco.reconcile import (
    bottom_up,
    build_projection,
    build_projection_structural,
    partly_bottom_up,
    reconcile_point,
    set_negative_to_zero,
)
from ctreco.residuals import ResidualSet


def make_structure(agg, m):
    return build_cross_temporal(
        build_cross_sectional(np.asarray(agg, float)), build_temporal(m)
    )


def fig1():
    return make_structure([[1.0, 1.0]], 4)


def semi_annual():
    return make_structure([[1.0, 1.0]], 2)


def random_spd_cov(structure, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(structure.dim, structure.dim))
    vals = A @ A.T + structure.dim * np.eye(structure.dim)
    return CovarianceMatrix(vals, CovarianceSpec("sam"))


def projection_laws(rec_map, tol=1e-8):
    st = rec_map.structure
    M = rec_map.M
    scale = max(1.0, np.abs(M).max())
    assert np.max(np.abs(st.constraints @ M)) <= tol * scale
    assert np.max(np.abs(M @ st.summation - st.summation)) <= tol * scale
    assert np.max(np.abs(M @ M - M)) <= tol * scale


class TestBuildProjection:
    def test_ols_projection_is_symmetric_orthogonal(self):
        st = fig1()
        rec = build_projection(st, build_omega(CovarianceSpec("ols"), st))
        projection_laws(rec)
        np.testing.assert_allclose(rec.M, rec.M.T, atol=1e-10)

    def test_laws_hold_for_random_spd(self):
        st = fig1()
        for seed in range(3):
            rec = build_projection(st, random_spd_cov(st, seed))
            projection_laws(rec)
            # non-ols projections are oblique
            assert np.max(np.abs(rec.M - rec.M.T)) > 1e-6

    def test_equivalence_of_the_two_forms(self):
        st = fig1()
        om = random_spd_cov(st, 7)
        M1 = build_projection(st, om).M
        rec2 = build_projection_structural(st, om)
        np.testing.assert_allclose(M1, rec2.M, atol=1e-8)
        np.testing.assert_allclose(rec2.M, st.summation @ rec2.G, atol=1e-10)

    def test_coherent_input_is_fixed_point(self):
        st = fig1()
        rng = np.random.default_rng(1)
        x = st.summation @ rng.normal(size=st.bottom_dim)
        rec = build_projection(st, random_spd_cov(st, 2))
        np.testing.assert_allclose(reconcile_point(rec, x), x, atol=1e-8)

    def test_zero_maps_to_zero(self):
        st = fig1()
        rec = build_projection(st, build_omega(CovarianceSpec("ols"), st))
        np.testing.assert_array_equal(reconcile_point(rec, np.zeros(21)), 0.0)

    def test_reconciled_is_coherent(self):
        st = fig1()
        rng = np.random.default_rng(3)
        rec = build_projection(st, random_spd_cov(st, 4))
        xt = reconcile_point(rec, rng.normal(size=st.dim))
        assert st.is_coherent(xt)

    def test_idempotent_as_a_map(self):
        st = fig1()
        rng = np.random.default_rng(5)
        rec = build_projection(st, random_spd_cov(st, 6))
        x1 = reconcile_point(rec, rng.normal(size=st.dim))
        np.testing.assert_allclose(reconcile_point(rec, x1), x1, atol=1e-8)

    def test_unbiasedness_monte_carlo(self):
        st = semi_annual()
        rng = np.random.default_rng(8)
        rec = build_projection(st, random_spd_cov(st, 9))
        truth = st.summation @ rng.normal(size=st.bottom_dim)
        draws = truth + rng.normal(size=(10000, st.dim))
        mean_rec = reconcile_point(rec, draws).mean(axis=0)
        assert np.max(np.abs(mean_rec - truth)) < 4.0 / np.sqrt(10000) * 3

    def test_rows_of_draws(self):
        st = semi_annual()
        rng = np.random.default_rng(10)
        rec = build_projection(st, build_omega(CovarianceSpec("ols"), st))
        draws = rng.normal(size=(8, st.dim))
        out = reconcile_point(rec, draws)
        np.testing.assert_allclose(out[3], rec.M @ draws[3], atol=1e-12)

    def test_repeat_calls_agree_and_maps_are_freed(self):
        st = fig1()
        om = build_omega(CovarianceSpec("ols"), st)
        first = build_projection(st, om)
        np.testing.assert_array_equal(first.M, build_projection(st, om).M)
        ref = weakref.ref(first)
        del first
        gc.collect()
        assert ref() is None  # nothing keeps a map once its caller drops it

    def test_singular_omega_raises_with_kind(self):
        st = fig1()
        rs = ResidualSet(
            st, np.random.default_rng(0).normal(size=(4, st.dim)), "multi_step"
        )
        om = build_omega(CovarianceSpec("sam"), st, rs)  # rank 4 < 21
        with pytest.raises(NumericalError, match="sam"):
            build_projection(st, om)

    def test_dimension_mismatch(self):
        st = fig1()
        rec = build_projection(st, build_omega(CovarianceSpec("ols"), st))
        with pytest.raises(ValueError):
            reconcile_point(rec, np.zeros(5))


class TestStructuredKindProjections:
    def make_residuals(self, st, seed):
        rng = np.random.default_rng(seed)
        return ResidualSet(st, rng.normal(size=(60, st.dim)), "multi_step")

    def test_hb_projection_equals_ols(self):
        st = semi_annual()
        rs = self.make_residuals(st, 0)
        om_hb = build_omega(CovarianceSpec("hb"), st, rs)
        M_hb = build_projection(st, om_hb).M
        M_ols = build_projection(st, build_omega(CovarianceSpec("ols"), st)).M
        np.testing.assert_allclose(M_hb, M_ols, atol=1e-6)

    @pytest.mark.parametrize("kind", ["hb", "h", "b"])
    def test_laws_hold_with_ridge(self, kind):
        st = semi_annual()
        rs = self.make_residuals(st, 1)
        om = build_omega(CovarianceSpec(kind), st, rs)
        projection_laws(build_projection(st, om), tol=1e-6)

    @pytest.mark.parametrize("kind", ["h", "b"])
    def test_h_b_differ_from_ols(self, kind):
        st = semi_annual()
        rs = self.make_residuals(st, 2)
        om = build_omega(CovarianceSpec(kind), st, rs)
        M = build_projection(st, om).M
        M_ols = build_projection(st, build_omega(CovarianceSpec("ols"), st)).M
        assert np.max(np.abs(M - M_ols)) > 1e-3


class TestBottomUp:
    def test_ones_give_row_sums(self):
        st = fig1()
        out = bottom_up(st, np.ones(8))
        assert out[0] == 8.0  # top series annual cell
        assert st.is_coherent(out)

    def test_trivial_structure_is_identity(self):
        st = make_structure(np.empty((0, 1)), 1)
        np.testing.assert_array_equal(bottom_up(st, np.array([3.0])), [3.0])

    def test_matches_projection_that_keeps_bottoms(self):
        # a projection whose weights put all confidence in the bottom
        # high-frequency cells reproduces bottom-up on those cells
        st = semi_annual()
        diag = np.full(st.dim, 1e8)
        diag[st.bottom_hf_indices()] = 1e-8
        om = CovarianceMatrix(np.diag(diag), CovarianceSpec("sam"))
        rec = build_projection(st, om)
        rng = np.random.default_rng(11)
        x = rng.normal(size=st.dim)
        np.testing.assert_allclose(
            reconcile_point(rec, x),
            bottom_up(st, x[st.bottom_hf_indices()]),
            atol=1e-5,
        )


class TestPartlyBottomUp:
    def make_residuals(self, st, seed=0):
        rng = np.random.default_rng(seed)
        return ResidualSet(st, rng.normal(size=(50, st.dim)), "one_step")

    @pytest.mark.parametrize("mode", ["cs_then_te_bu", "te_then_cs_bu"])
    def test_coherent_input_unchanged(self, mode):
        st = semi_annual()
        rng = np.random.default_rng(1)
        x = st.summation @ rng.normal(size=st.bottom_dim)
        spec = CovarianceSpec("shr") if mode == "cs_then_te_bu" else CovarianceSpec("wlsv")
        out = partly_bottom_up(st, mode, x, spec, self.make_residuals(st))
        np.testing.assert_allclose(out, x, atol=1e-8)

    @pytest.mark.parametrize("mode", ["cs_then_te_bu", "te_then_cs_bu"])
    def test_output_coherent(self, mode):
        st = semi_annual()
        rng = np.random.default_rng(2)
        x = rng.normal(size=st.dim)
        spec = CovarianceSpec("shr") if mode == "cs_then_te_bu" else CovarianceSpec("wlsv")
        out = partly_bottom_up(st, mode, x, spec, self.make_residuals(st))
        assert st.is_coherent(out)

    def test_bu_inner_collapses_to_plain_bottom_up(self):
        st = semi_annual()
        rng = np.random.default_rng(3)
        x = rng.normal(size=st.dim)
        a = partly_bottom_up(st, "cs_then_te_bu", x, None)
        b = partly_bottom_up(st, "te_then_cs_bu", x, None)
        c = bottom_up(st, x[st.bottom_hf_indices()])
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a, c, atol=1e-12)

    def test_unknown_mode(self):
        st = semi_annual()
        with pytest.raises(ValueError, match="mode"):
            partly_bottom_up(st, "sideways", np.zeros(st.dim), CovarianceSpec("ols"))

    def test_ols_inner_differs_from_base_when_incoherent(self):
        st = semi_annual()
        rng = np.random.default_rng(4)
        x = rng.normal(size=st.dim)
        out = partly_bottom_up(st, "cs_then_te_bu", x, CovarianceSpec("ols"))
        assert np.max(np.abs(out - x)) > 1e-3


class TestSetNegativeToZero:
    def test_nonnegative_coherent_unchanged(self):
        st = fig1()
        rng = np.random.default_rng(5)
        b = np.abs(rng.normal(size=st.bottom_dim))
        x = st.summation @ b
        np.testing.assert_allclose(set_negative_to_zero(st, x), x, atol=1e-12)

    def test_single_negative_cell_clamped(self):
        st = semi_annual()
        b = np.array([1.0, 2.0, -3.0, 4.0])
        x = st.summation @ b
        out = set_negative_to_zero(st, x)
        expected = st.summation @ np.array([1.0, 2.0, 0.0, 4.0])
        np.testing.assert_allclose(out, expected)

    def test_random_inputs_nonnegative_and_coherent(self):
        st = fig1()
        rng = np.random.default_rng(6)
        for _ in range(10):
            out = set_negative_to_zero(st, rng.normal(size=st.dim))
            assert np.all(out >= 0.0)
            assert st.is_coherent(out)

    def test_rows(self):
        st = semi_annual()
        rng = np.random.default_rng(7)
        X = rng.normal(size=(4, st.dim))
        out = set_negative_to_zero(st, X)
        assert out.shape == X.shape
        assert np.all(out >= 0.0)

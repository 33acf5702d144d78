"""Tests for projection maps, composites and the non-negativity heuristic."""

import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

from ctreco.covariance import (
    FULL_KINDS,
    STRUCTURED_KINDS,
    CovarianceMatrix,
    CovarianceSpec,
    build_omega,
)
from ctreco.exceptions import NumericalError, ValidationError
from ctreco.hierarchy import build_cross_sectional, build_cross_temporal, build_temporal
from ctreco.io import covariance_from_json, covariance_to_json
from ctreco.probabilistic import GaussianForecast, gaussian_reconcile
from ctreco.reconcile import (
    ReconciliationMap,
    _checked_cho_factor,
    bottom_up,
    build_projection,
    composite_map,
    partly_bottom_up,
    reconcile_point,
    set_negative_to_zero,
)
from ctreco.residuals import ResidualSet
from ctreco.simulation import study_structure
from reference import (
    RIDGE,
    build_projection_dense,
    build_projection_structural,
    cho_eig_verdict,
    gdp,
    partly_bottom_up_per_call,
    spectral_matrices,
    structured_limit_map,
)


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

    @pytest.mark.parametrize("kind", ["wlsv", "shr"])
    def test_zero_variance_cell_passes_through(self, kind):
        # an all-zero residual column gives the top cell zero variance: the
        # map still builds, and keeps that cell's base forecast
        st = study_structure()
        rng = np.random.default_rng(5)
        E = rng.normal(size=(40, st.dim))
        E[:, 0] = 0.0  # the top series' most aggregated cell
        res = ResidualSet(st, E, "multi_step")
        rec = build_projection(st, build_omega(CovarianceSpec(kind), st, res))
        x = 10.0 + rng.normal(size=(6, st.dim))
        out = reconcile_point(rec, x)
        assert np.max(np.abs(out @ st.constraints.T)) <= 1e-13 * np.abs(out).max()
        np.testing.assert_allclose(out[:, 0], x[:, 0], rtol=1e-14)

    def test_dimension_mismatch(self):
        st = fig1()
        rec = build_projection(st, build_omega(CovarianceSpec("ols"), st))
        with pytest.raises(ValueError):
            reconcile_point(rec, np.zeros(5))
        with pytest.raises(ValueError):
            reconcile_point(rec, np.zeros((2, 3, st.dim)))
        with pytest.raises(ValueError):
            bottom_up(st, np.zeros((2, 3, st.bottom_dim)))


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
        np.testing.assert_allclose(M_hb, M_ols, atol=1e-12)

    @pytest.mark.parametrize("make", [semi_annual, gdp])
    def test_a_scalar_weight_is_formed_as_the_hb_map(self, make):
        # ols, or any constant diagonal, gives G = S^+: the same bytes as
        # hb, so the two methods score exactly alike
        st = make()
        G_hb = build_projection(st, build_omega(CovarianceSpec("hb"), st,
                                                self.make_residuals(st, 1))).G
        for diag in (np.ones(st.dim), np.full(st.dim, 2.5)):
            om = CovarianceMatrix(None, CovarianceSpec("wlsv"), diag=diag)
            assert build_projection(st, om).G.tobytes() == G_hb.tobytes()
        G_ols = build_projection(st, build_omega(CovarianceSpec("ols"), st)).G
        assert G_ols.tobytes() == G_hb.tobytes()

    @pytest.mark.parametrize("kind", ["hb", "h", "b"])
    def test_laws_hold(self, kind):
        st = semi_annual()
        rs = self.make_residuals(st, 1)
        om = build_omega(CovarianceSpec(kind), st, rs)
        projection_laws(build_projection(st, om), tol=1e-12)

    @pytest.mark.parametrize("kind", ["h", "b"])
    def test_singular_core_raises_naming_the_kind(self, kind):
        # two unshrunk residual rows: Q has rank 2, under the 4 (h) or 6
        # (b) reduced constraints of the quarterly structure
        st = fig1()
        rs = ResidualSet(
            st, np.random.default_rng(3).normal(size=(2, st.dim)), "multi_step"
        )
        om = build_omega(CovarianceSpec(kind, lam=0.0), st, rs)
        with pytest.raises(NumericalError, match="singular"):
            structured_limit_map(st, om)
        with pytest.raises(NumericalError, match=f"kind {kind!r}"):
            build_projection(st, om)

    def test_hb_needs_no_solve_at_a_singular_core(self):
        # T = I: the limit is S^+ whatever Q is, so hb never fails
        st = fig1()
        rs = ResidualSet(
            st, np.random.default_rng(3).normal(size=(2, st.dim)), "multi_step"
        )
        om = build_omega(CovarianceSpec("hb", lam=0.0), st, rs)
        G = build_projection(st, om).G
        assert np.max(np.abs(G - np.linalg.pinv(st.summation))) <= 1e-12

    def test_a_structured_kind_without_its_core_is_rejected(self):
        # the JSON cache holds dense values only, not the core
        st = semi_annual()
        om = build_omega(CovarianceSpec("h"), st, self.make_residuals(st, 4))
        back = covariance_from_json(covariance_to_json(om))
        with pytest.raises(ValidationError, match=r"kind 'h'.*holds none"):
            build_projection(st, back)

    @pytest.mark.parametrize("kind", ["h", "b"])
    def test_a_factor_other_than_the_kinds_is_rejected(self, kind):
        # a reconciled Gaussian keeps the base kind but is factored through S
        st = semi_annual()
        om = build_omega(CovarianceSpec(kind), st, self.make_residuals(st, 5))
        base = GaussianForecast(np.zeros(st.dim), om)
        ols_map = build_projection(st, build_omega(CovarianceSpec("ols"), st))
        rec = gaussian_reconcile(base, ols_map).covariance
        cols = st.bottom_dim
        with pytest.raises(ValidationError, match=rf"kind {kind!r}.* has {cols}$"):
            build_projection(st, rec)

    @pytest.mark.parametrize("kind", ["h", "b"])
    def test_h_b_differ_from_ols(self, kind):
        st = semi_annual()
        rs = self.make_residuals(st, 2)
        om = build_omega(CovarianceSpec(kind), st, rs)
        M = build_projection(st, om).M
        M_ols = build_projection(st, build_omega(CovarianceSpec("ols"), st)).M
        assert np.max(np.abs(M - M_ols)) > 1e-3


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestBottomLevelMaps:
    """Every projection kind is held as G and applied as S (G x): the full
    kinds against the dense d x d builder, the structured kinds against
    the structural form of their limit and the old ridged builder."""

    KINDS = ("ols", "struc", "wlsv", "bdshr", "shr") + STRUCTURED_KINDS

    @staticmethod
    def case_inputs(case):
        agg, m, L, seed, _, _ = case
        st = make_structure(agg, m)
        rng = np.random.default_rng(seed)
        res = ResidualSet(st, rng.normal(size=(30, st.dim)), "multi_step")
        x = 30.0 + rng.normal(size=(L, st.dim)) * rng.uniform(0.5, 3.0, st.dim)
        return st, res, x

    @staticmethod
    def dense_or_same_error(st, omega):
        """The dense map, or None when it is rejected, after checking that
        the package rejects the covariance with the same message."""
        try:
            return build_projection_dense(st, omega)
        except NumericalError as exc:
            with pytest.raises(NumericalError) as got:
                build_projection(st, omega)
            assert str(got.value) == str(exc)
            return None

    @staticmethod
    def limit_or_error_naming_kind(st, omega):
        """S G of the structural limit oracle, or None when the oracle finds
        Q singular, after checking the package raises naming the kind."""
        try:
            return st.summation @ structured_limit_map(st, omega)
        except NumericalError:
            with pytest.raises(NumericalError, match=repr(omega.spec.kind)):
                build_projection(st, omega)
            return None

    @given(data=hst.data())
    @settings(max_examples=60, deadline=None)
    def test_structural_form_matches_dense_map(self, data, scoring_cases):
        case = data.draw(scoring_cases)
        st, res, x = self.case_inputs(case)
        for kind in self.KINDS:
            idle = st.cs.agg.sum(axis=1) <= 0
            if kind == "struc" and idle.any():  # an all-zero aggregation row
                named = str(np.flatnonzero(idle).tolist())
                with pytest.raises(ValidationError, match=re.escape(named)):
                    build_omega(CovarianceSpec(kind), st, res)
                continue
            omega = build_omega(CovarianceSpec(kind), st, res)
            structured = kind in STRUCTURED_KINDS
            if structured:
                want, tol = self.limit_or_error_naming_kind(st, omega), 1e-10
            else:
                want, tol = self.dense_or_same_error(st, omega), 1e-12
            if want is None:
                continue
            rec = build_projection(st, omega)
            got = reconcile_point(rec, x)
            assert "M" not in vars(rec)  # applied as S (G x), without M
            assert _rel(got, x @ want.T) <= tol
            G = rec.G
            if not structured:
                assert _rel(G, want[st.bottom_hf_indices()]) <= 1e-12
            assert np.max(np.abs(G @ st.summation - np.eye(st.bottom_dim))) <= 1e-12
            assert np.max(np.abs(got @ st.constraints.T)) <= 1e-14 * np.abs(got).max()
            M = rec.M  # derived from G on first use
            assert np.max(np.abs(M @ M - M)) <= 1e-12 * max(1.0, np.abs(M).max())
            if structured:
                try:
                    ridged = build_projection_dense(st, omega, ridge=RIDGE)
                except NumericalError:  # the ridge itself can break the solve
                    continue
                assert _rel(got, x @ ridged.T) <= 1e-5

    @given(data=hst.data())
    @settings(max_examples=60, deadline=None)
    def test_csr_bottom_up_matches_dense_product(self, data, scoring_cases):
        case = data.draw(scoring_cases)
        agg, m, L, seed, _, _ = case
        st = make_structure(agg, m)
        b = np.random.default_rng(seed).normal(size=(L, st.bottom_dim))
        for block in (b[0], b):
            assert _rel(bottom_up(st, block), block @ st.summation.T) <= 1e-15

    @pytest.mark.parametrize("make", [study_structure, gdp])
    @pytest.mark.parametrize("kind", ["ols", "struc", "wlsv", "shr"])
    def test_structural_map_matches_the_dense_map(self, make, kind):
        # diag(delta) + A A' with delta > 0: G from S'WS, without a d x d
        # matrix (peak traced memory under d^2 doubles, Omega never formed)
        st = make()  # fewer residual rows than cells, as shr's root form needs
        N = min(20, st.dim - 1)
        res = ResidualSet(st, np.random.default_rng(27).normal(size=(N, st.dim)),
                          "multi_step")
        tracemalloc.start()
        try:
            omega = build_omega(CovarianceSpec(kind), st, res)
            rec = build_projection(st, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if make is gdp:
            assert peak < st.dim**2 * 8
        assert vars(omega)["_values"] is None
        want = build_projection_dense(st, omega)[st.bottom_hf_indices()]
        assert _rel(rec.G, want) <= 1e-12

    @pytest.mark.parametrize("make", [study_structure, gdp])
    @pytest.mark.parametrize("kind", ["wlsv", "shr"])
    @pytest.mark.parametrize("scale", [1e-13, 1e-11, 1e-9, 1e-7])
    def test_a_small_variance_on_an_aggregate_cell(self, make, kind, scale):
        # a small but positive delta on the top annual cell leaves S'WS
        # ill-conditioned, and C Omega C' well-conditioned: the map is the
        # zero-constrained one
        st = make()
        rng = np.random.default_rng(31)
        E = rng.normal(size=(min(20, st.dim - 1), st.dim))
        E[:, 0] *= np.sqrt(scale)
        omega = build_omega(CovarianceSpec(kind), st, ResidualSet(st, E, "multi_step"))
        assert omega.diag[0] / np.max(omega.diag) < 10 * scale
        rec = build_projection(st, omega)
        want = build_projection_dense(st, omega)[st.bottom_hf_indices()]
        assert _rel(rec.G, want) <= 1e-12

    def test_map_holds_exactly_one_form(self):
        st = semi_annual()
        omega = build_omega(CovarianceSpec("ols"), st)
        G = build_projection(st, omega).G
        with pytest.raises(TypeError, match="G"):
            ReconciliationMap(structure=st, omega=omega)
        with pytest.raises(ValueError, match="wrong shape"):
            ReconciliationMap(structure=st, omega=omega, G=G.T)


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
    MODES = ("cs_then_te_bu", "te_then_cs_bu")

    def make_residuals(self, st, seed=0):
        rng = np.random.default_rng(seed)
        return ResidualSet(st, rng.normal(size=(50, st.dim)), "multi_step")

    @pytest.mark.parametrize("mode", MODES)
    def test_coherent_input_unchanged(self, mode):
        st = semi_annual()
        rng = np.random.default_rng(1)
        x = st.summation @ rng.normal(size=st.bottom_dim)
        res = self.make_residuals(st)
        for kind in FULL_KINDS + STRUCTURED_KINDS:
            out = partly_bottom_up(st, mode, x, CovarianceSpec(kind), res)
            np.testing.assert_allclose(out, x, atol=1e-8, err_msg=kind)

    @pytest.mark.parametrize("mode", MODES)
    def test_output_coherent(self, mode):
        st = semi_annual()
        rng = np.random.default_rng(2)
        x = rng.normal(size=st.dim)
        res = self.make_residuals(st)
        for kind in FULL_KINDS + STRUCTURED_KINDS:
            out = partly_bottom_up(st, mode, x, CovarianceSpec(kind), res)
            assert st.is_coherent(out), kind

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
        with pytest.raises(ValueError, match="mode 'bogus'"):
            partly_bottom_up(st, "bogus", np.zeros(st.dim), None)

    @pytest.mark.parametrize("kind", ["one_step", "multi_step"])
    def test_inner_wlsv_weights_are_the_wlsv_diagonal(self, kind):
        # the cross-sectional step weights with the wlsv covariance of
        # cs_only, built from the pooled order-1 rows: the k = 1 cells of
        # the full wlsv diagonal
        st = make_structure([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]], 4)
        res = ResidualSet(
            st, np.random.default_rng(12).normal(size=(40, st.dim)), kind
        )
        sub = st.cs_only
        h1 = ResidualSet(sub, res.h1_matrix(1), "multi_step")
        W = build_omega(CovarianceSpec("wlsv"), sub, h1).values
        cells = [st.index_of(i, 1, 0) for i in range(st.n)]
        assert np.array_equal(W, np.diag(np.diag(W)))
        assert np.diag(W).tobytes() == res.h1_mean_squares[cells].tobytes()

    def test_ols_inner_differs_from_base_when_incoherent(self):
        st = semi_annual()
        rng = np.random.default_rng(4)
        x = rng.normal(size=st.dim)
        out = partly_bottom_up(st, "cs_then_te_bu", x, CovarianceSpec("ols"))
        assert np.max(np.abs(out - x)) > 1e-3


class TestCheckedChoFactor:
    @given(spectral_matrices())
    @settings(max_examples=300, deadline=None)
    def test_rejects_exactly_what_the_eigenvalue_rule_rejects(self, case):
        A, kind = case
        want = cho_eig_verdict(A, "C Omega C'", kind)
        try:
            R_inv = _checked_cho_factor(A, "C Omega C'", kind)
        except NumericalError as exc:
            assert str(exc) == want
            assert repr(kind) in str(exc)
        else:
            assert want is None
            c, _ = scipy.linalg.cho_factor(A)
            # the inverse of the factor's triangle, zero below the diagonal
            assert np.array_equal(R_inv, np.triu(R_inv))
            R = np.triu(c)
            np.testing.assert_allclose(
                R_inv @ R, np.eye(len(A)), atol=1e-8 * np.linalg.cond(R)
            )

    def test_well_conditioned_accepts_without_eigenvalues(self, monkeypatch):
        def no_eig(*_):
            raise AssertionError("eigvalsh called")

        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
        A = (Q * np.logspace(0, 9, 30)) @ Q.T
        A = 0.5 * (A + A.T)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eig)
        _checked_cho_factor(A, "C Omega C'", "shr")


class TestCompositeMap:
    CASES = [("cs_then_te_bu", k) for k in ("ols", "struc", "wlsv", "shr")] + [
        ("te_then_cs_bu", k) for k in ("ols", "struc", "wlsv")
    ]

    # the golden hierarchy, and the GDP shape, big enough for the sparse
    # C's rounding to show
    @pytest.mark.parametrize(
        "mode,inner,at_gdp", [(*c, False) for c in CASES] + [(*c, True) for c in CASES],
        ids=[f"{m}-{k}" for m, k in CASES] + [f"{m}-{k}-gdp" for m, k in CASES],
    )
    def test_matches_per_call_form_byte_for_byte(self, mode, inner, at_gdp):
        st = (gdp() if at_gdp
              else make_structure([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]], 4))
        rng = np.random.default_rng(9)
        res = ResidualSet(st, rng.normal(size=(40, st.dim)), "one_step")
        spec = CovarianceSpec(inner)
        apply = composite_map(st, mode, spec, res)
        for x in (rng.normal(size=st.dim), rng.normal(size=(25, st.dim))):
            got = apply(x)
            assert got.shape == x.shape
            assert partly_bottom_up(st, mode, x, spec, res).tobytes() == got.tobytes()
            # the oracle keeps the einsum, the dense C and the dense S of
            # the per-call form, so it sums in another order than the 2-D
            # product and the CSR C and S; the atol floor covers cells that
            # cancel to well under the block's scale
            want = partly_bottom_up_per_call(st, mode, x, spec, res)
            np.testing.assert_allclose(
                got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max()
            )

    def test_bottom_up_inner_in_both_modes(self):
        st = semi_annual()
        x = np.random.default_rng(10).normal(size=(3, st.dim))
        want = bottom_up(st, x[:, st.bottom_hf_indices()])
        for mode in ("cs_then_te_bu", "te_then_cs_bu"):
            assert composite_map(st, mode, None)(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("inner", ["ols", "struc"])
    def test_te_inner_map_is_built_once_without_residuals(self, inner, monkeypatch):
        # every bottom series gets the same temporal map, with residuals or
        # without, so it is built once, by the stacked structural solve and
        # not by an oct map, and broadcast over the series
        import ctreco.reconcile as reconcile

        def no_oct_map(*_):
            raise AssertionError("build_projection called")

        stacked = []
        real = reconcile._stacked_maps

        def recording(sub, deltas, kind):
            stacked.append(deltas.shape)
            return real(sub, deltas, kind)

        monkeypatch.setattr(reconcile, "build_projection", no_oct_map)
        monkeypatch.setattr(reconcile, "_stacked_maps", recording)
        st, spec = gdp(), CovarianceSpec(inner)
        apply = composite_map(st, "te_then_cs_bu", spec)
        rng = np.random.default_rng(13)
        res = ResidualSet(st, rng.normal(size=(40, st.dim)), "one_step")
        with_residuals = composite_map(st, "te_then_cs_bu", spec, res)
        assert stacked == [(1, st.te.dim)] * 2
        for x in (rng.normal(size=st.dim), rng.normal(size=(7, st.dim))):
            assert apply(x).tobytes() == with_residuals(x).tobytes()

    @given(data=hst.data())
    @settings(max_examples=40, deadline=None)
    def test_stacked_te_maps_match_the_per_call_form(self, data, scoring_cases):
        # the n_b temporal maps of a diagonal inner kind in one stacked
        # solve; a bottom series whose order-1 block has zero variance makes
        # every series take an oct map of its own, zero-constrained there
        agg, m, _, seed, _, _ = data.draw(scoring_cases)
        st = make_structure(agg, m)
        rng = np.random.default_rng(seed)
        E = rng.normal(size=(30, st.dim)) * rng.uniform(0.1, 10.0, st.dim)
        if data.draw(hst.booleans()):
            E[:, st.block_slice(int(rng.integers(st.cs.n_upper, st.n)), 1)] = 0.0
        res = ResidualSet(st, E, data.draw(hst.sampled_from(["one_step", "multi_step"])))
        x = rng.normal(size=(5, st.dim)) * 10.0
        for inner in ("ols", "struc", "wlsv"):
            spec = CovarianceSpec(inner)
            got = composite_map(st, "te_then_cs_bu", spec, res)(x)
            want = partly_bottom_up_per_call(st, "te_then_cs_bu", x, spec, res)
            assert _rel(got, want) <= 1e-12, inner

    def test_stacked_te_maps_check_each_series(self, monkeypatch):
        # a well-conditioned S'W_iS is solved in the batch; a small delta on
        # an aggregated cell, which leaves S'W_iS ill-conditioned but the
        # zero-constrained C Omega_i C' well-conditioned, and a zero delta
        # take the zero-constrained map, series by series
        import ctreco.reconcile as reconcile

        constrained = []
        real = reconcile._zero_constrained

        def recording(C, C_t, Omega, keep, what, kind):
            constrained.append(np.diag(Omega).copy())
            return real(C, C_t, Omega, keep, what, kind)

        monkeypatch.setattr(reconcile, "_zero_constrained", recording)
        sub = semi_annual().te_only
        deltas = np.array([[1.0, 2.0, 3.0], [1e-11, 1.0, 1.0],
                           [1.0, 1e-13, 1e3], [0.0, 1.0, 1.0]])
        G = reconcile._stacked_maps(sub, deltas, "wlsv")
        np.testing.assert_array_equal(constrained, deltas[1:])
        for G_i, delta in zip(G, deltas):
            om = CovarianceMatrix(np.diag(delta), CovarianceSpec("wlsv"))
            want = build_projection_dense(sub, om)[sub.bottom_hf_indices()]
            assert _rel(G_i, want) <= 1e-12
        with pytest.raises(NumericalError, match="C Omega C' is numerically singular "
                                                 "for covariance kind 'wlsv'"):
            reconcile._stacked_maps(sub, np.zeros((1, 3)), "wlsv")

    def test_map_is_built_at_construction(self):
        st = semi_annual()
        with pytest.raises(ValueError, match="requires residuals"):
            composite_map(st, "cs_then_te_bu", CovarianceSpec("shr"))
        apply = composite_map(st, "te_then_cs_bu", CovarianceSpec("ols"))
        with pytest.raises(ValueError, match="trailing dimension"):
            apply(np.zeros(st.dim + 1))


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

"""Tests for covariance estimators, shrinkage and parameter counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ctreco.covariance import (
    FULL_KINDS,
    STRUCTURED_KINDS,
    CovarianceMatrix,
    CovarianceSpec,
    build_omega,
    parameter_count,
    sample_covariance,
    series_diagonals,
    shrinkage_intensity,
    _estimate,
    _residual_root,
)
from ctreco.hierarchy import build_cross_sectional, build_cross_temporal, build_temporal
from ctreco.probabilistic import GaussianForecast, sample_gaussian
from ctreco.residuals import ResidualSet
from ctreco.exceptions import ValidationError
from reference import (
    bdshr_commuted,
    covariance_eig_verdict,
    dense_covariance,
    gdp,
    h1_matrix_stacked,
    shrinkage_intensity_dense,
    shrunk_dense,
    spectral_matrices,
    unshrunk_blocks,
)


def make_structure(agg, m):
    return build_cross_temporal(build_cross_sectional(np.asarray(agg, float)),
                                build_temporal(m))


def semi_annual():
    return make_structure([[1.0, 1.0]], 2)


def fig1():
    return make_structure([[1.0, 1.0]], 4)


def random_residuals(structure, N, seed=0, kind="multi_step"):
    rng = np.random.default_rng(seed)
    return ResidualSet(structure, rng.normal(size=(N, structure.dim)), kind)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestShrinkageIntensity:
    def test_orthogonal_columns_give_one(self):
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.normal(size=(30, 4)))
        assert shrinkage_intensity(Q) == 1.0

    def test_duplicated_columns_drive_lambda_down(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=2000)
        X = np.stack([col, col, rng.normal(size=2000)], axis=1)
        assert shrinkage_intensity(X) < 0.01

    def test_correlated_gaussian_interior(self):
        rng = np.random.default_rng(2)
        cov = 0.5 * np.eye(9) + 0.5 * np.ones((9, 9))
        X = rng.multivariate_normal(np.zeros(9), cov, size=50)
        lam = shrinkage_intensity(X)
        assert 0.0 < lam < 1.0

    def test_pure_noise_shrinks_hard(self):
        rng = np.random.default_rng(2)
        lam = shrinkage_intensity(rng.normal(size=(50, 9)))
        assert 0.5 <= lam <= 1.0

    def test_formula_against_loop(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 4))
        Z = X / np.sqrt(np.mean(X**2, axis=0))
        N, d = Z.shape
        num = den = 0.0
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                w = Z[:, i] * Z[:, j]
                r = w.mean()
                num += w.var() / (N - 1)
                den += r**2
        expected = min(max(num / den, 0.0), 1.0)
        assert shrinkage_intensity(X) == pytest.approx(expected, rel=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            shrinkage_intensity(np.ones((2, 3)))

    @given(N=hst.integers(3, 60), d=hst.integers(2, 60),
           zero_column=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_d_by_d_form(self, N, d, zero_column, seed):
        # fewer rows than columns (the N x N Gram), more, and an all-zero
        # column, on a common factor strong enough for lambda in (0, 1)
        rng = np.random.default_rng(seed)
        X = (rng.normal(size=(N, 1)) * 10.0 ** rng.uniform(-1, 1) * rng.normal(size=d)
             + rng.normal(size=(N, d)) * rng.uniform(0.1, 10.0, d))
        if zero_column:
            X[:, rng.integers(d)] = 0.0
        want = shrinkage_intensity_dense(X)
        assert abs(shrinkage_intensity(X) - want) <= 1e-13 * want

    def test_matches_the_d_by_d_form_at_the_gdp_width(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(20, gdp().dim))
        X[:, :300] += 3.0 * rng.normal(size=(20, 1))
        X[:, 400] = 0.0
        want = shrinkage_intensity_dense(X)
        assert 0.0 < want < 1.0
        assert abs(shrinkage_intensity(X) - want) <= 1e-13 * want


class TestBuildOmegaBasic:
    def test_ols_identity(self):
        st = fig1()
        om = build_omega(CovarianceSpec("ols"), st)
        np.testing.assert_array_equal(om.values, np.eye(21))

    def test_struc_diagonal(self):
        st = fig1()
        om = build_omega(CovarianceSpec("struc"), st)
        assert om.values[0, 0] == 8.0  # top series, annual cell
        np.testing.assert_array_equal(
            np.diag(om.values), st.summation @ np.ones(8)
        )
        assert np.count_nonzero(om.values - np.diag(np.diag(om.values))) == 0

    def test_wlsv_from_one_step(self):
        st = semi_annual()
        rs = random_residuals(st, 60, seed=4, kind="one_step")
        om = build_omega(CovarianceSpec("wlsv"), st, rs)
        v = np.mean(rs.block(1, 1).reshape(-1) ** 2)
        sl = st.block_slice(1, 1)
        np.testing.assert_allclose(np.diag(om.values)[sl], v)
        # both cells of the block share the one variance
        assert om.values[sl, sl][0, 0] == om.values[sl, sl][1, 1]

    def test_wlsv_multistep_uses_h1_only(self):
        st = semi_annual()
        rs = random_residuals(st, 60, seed=5, kind="multi_step")
        om = build_omega(CovarianceSpec("wlsv"), st, rs)
        v = np.mean(rs.block(2, 1)[:, 0] ** 2)
        np.testing.assert_allclose(om.values[8, 8], v)

    def test_shr_endpoints(self):
        st = semi_annual()
        rs = random_residuals(st, 40, seed=6)
        sam = build_omega(CovarianceSpec("sam"), st, rs)
        shr0 = build_omega(CovarianceSpec("shr", lam=0.0), st, rs)
        shr1 = build_omega(CovarianceSpec("shr", lam=1.0), st, rs)
        np.testing.assert_allclose(shr0.values, sam.values)
        np.testing.assert_allclose(shr1.values, np.diag(np.diag(sam.values)))

    def test_g_is_alias_for_sam(self):
        assert CovarianceSpec("g").kind == "sam"

    def test_sam_matches_definition(self):
        st = semi_annual()
        rs = random_residuals(st, 40, seed=7)
        om = build_omega(CovarianceSpec("sam"), st, rs)
        np.testing.assert_allclose(om.values, rs.E.T @ rs.E / 40)

    def test_missing_residuals(self):
        with pytest.raises(ValueError, match="requires residuals"):
            build_omega(CovarianceSpec("sam"), semi_annual())

    def test_one_step_rejected_for_full_estimators(self):
        st = semi_annual()
        rs = random_residuals(st, 40, seed=8, kind="one_step")
        for kind in ("sam", "shr", "hb", "h", "b"):
            with pytest.raises(ValueError, match="residual kind"):
                build_omega(CovarianceSpec(kind), st, rs)

    def test_bad_kind_and_lambda(self):
        with pytest.raises(ValueError):
            CovarianceSpec("magic")
        with pytest.raises(ValueError):
            CovarianceSpec("shr", lam=1.5)


class TestBdshr:
    def test_blocks_match_per_order_computation(self):
        st = semi_annual()
        rs = random_residuals(st, 80, seed=9, kind="one_step")
        om = build_omega(CovarianceSpec("bdshr"), st, rs)
        for k in (2, 1):
            X = rs.h1_matrix(k)
            lam = shrinkage_intensity(X)
            cov = sample_covariance(X)
            Wk = lam * np.diag(np.diag(cov)) + (1 - lam) * cov
            # same-position cross-series cells of the built matrix
            for a in range(3):
                for b in range(3):
                    ia = st.index_of(a, k, 0)
                    ib = st.index_of(b, k, 0)
                    assert om.values[ia, ib] == pytest.approx(Wk[a, b])

    @given(n_a=hst.integers(0, 3), n_b=hst.integers(1, 4),
           m=hst.sampled_from([1, 2, 3, 4, 12]),
           kind=hst.sampled_from(["one_step", "multi_step"]),
           seed=hst.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_commuted_temporal_major_build(self, n_a, n_b, m, kind, seed):
        # built in place, Omega equals P W_bd P' byte for byte, W_bd the
        # temporal-major block diagonal of the package's own order blocks
        # and P the commutation matrix
        rng = np.random.default_rng(seed)
        st = make_structure(rng.integers(0, 2, size=(n_a, n_b)), m)
        rs = ResidualSet(st, rng.normal(size=(30, st.dim)), kind)
        for k in st.te.factors:
            assert rs.h1_matrix(k).tobytes() == h1_matrix_stacked(rs, k).tobytes()
        for lam in (None, 0.3):
            spec = CovarianceSpec("bdshr", lam=lam)
            want = CovarianceMatrix(bdshr_commuted(
                st, rs, lambda X: _estimate(X, spec).values), spec).values
            assert build_omega(spec, st, rs).values.tobytes() == want.tobytes()

    def test_cross_position_cells_are_zero(self):
        st = semi_annual()
        rs = random_residuals(st, 80, seed=10, kind="one_step")
        om = build_omega(CovarianceSpec("bdshr"), st, rs)
        i0 = st.index_of(0, 1, 0)
        i1 = st.index_of(1, 1, 1)
        assert om.values[i0, i1] == 0.0


class TestStructuredKinds:
    @pytest.mark.parametrize("kind,rank", [("hb", 4), ("h", 6), ("b", 6)])
    def test_rank_bounds(self, kind, rank):
        st = semi_annual()
        rs = random_residuals(st, 60, seed=11)
        om = build_omega(CovarianceSpec(kind), st, rs)
        eig = np.linalg.eigvalsh(om.values)
        assert np.sum(eig > 1e-10 * eig[-1]) <= rank
        np.testing.assert_allclose(
            om.values, om.root @ om.root.T, atol=1e-12
        )

    def test_hb_lambda_zero_is_pure_expansion(self):
        st = semi_annual()
        rs = random_residuals(st, 60, seed=12)
        om = build_omega(CovarianceSpec("hb", lam=0.0), st, rs)
        data = rs.columns(range(1, 3), [1])
        expected = st.summation @ sample_covariance(data) @ st.summation.T
        np.testing.assert_allclose(om.values, expected, atol=1e-12)

    def test_h_expands_high_frequency_block(self):
        st = semi_annual()
        rs = random_residuals(st, 60, seed=13)
        om = build_omega(CovarianceSpec("h", lam=0.0), st, rs)
        data = rs.columns(range(3), [1])
        F = np.kron(np.eye(3), st.te.summation)
        np.testing.assert_allclose(
            om.values, F @ sample_covariance(data) @ F.T, atol=1e-12
        )

    def test_b_expands_bottom_block(self):
        st = semi_annual()
        rs = random_residuals(st, 60, seed=14)
        om = build_omega(CovarianceSpec("b", lam=0.0), st, rs)
        data = rs.columns(range(1, 3), (2, 1))
        F = np.kron(st.cs.summation, np.eye(3))
        np.testing.assert_allclose(
            om.values, F @ sample_covariance(data) @ F.T, atol=1e-12
        )

    def test_all_kinds_symmetric_psd(self):
        st = semi_annual()
        rs_multi = random_residuals(st, 60, seed=15)
        rs_one = random_residuals(st, 60, seed=15, kind="one_step")
        for kind in ("ols", "struc", "shr", "sam", "hb", "h", "b"):
            rs = rs_multi if kind not in ("wlsv", "bdshr") else rs_one
            om = build_omega(CovarianceSpec(kind), st,
                             rs if kind not in ("ols", "struc") else None)
            eig = np.linalg.eigvalsh(om.values)
            assert eig[0] >= -1e-8 * eig[-1]


class TestRootForm:
    """sam held as a root A and the structured kinds as a factor F and a
    core, itself a root when unshrunk and, when shrunk, a diagonal plus a
    root; A A' is the covariance F core F' either way."""

    UNSHRUNK = ("sam", "hb", "h", "b")

    @pytest.mark.parametrize("make", [semi_annual, gdp])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_root_and_values_match_the_dense_covariance(self, make, lam):
        st = make()
        rs = random_residuals(st, 20, seed=21)
        for kind in self.UNSHRUNK:
            om = build_omega(CovarianceSpec(kind, lam=lam), st, rs)
            want = dense_covariance(kind, st, rs, lam)
            assert _rel(om.root @ om.root.T, want) <= 1e-12
            assert _rel(om.values, want) <= 1e-12
            assert om.lambda_used == (None if kind == "sam" else lam)

    @given(data=hst.data())
    @settings(max_examples=40, deadline=None)
    def test_root_matches_the_dense_covariance_on_random_structures(
        self, data, scoring_cases
    ):
        agg, m, _, seed, _, _ = data.draw(scoring_cases)
        st = make_structure(agg, m)
        rng = np.random.default_rng(seed)
        N = int(rng.integers(3, 2 * st.dim))
        rs = ResidualSet(st, rng.normal(size=(N, st.dim)), "multi_step")
        for lam in (0.0, float(rng.uniform(0.05, 1.0))):
            for kind in self.UNSHRUNK:
                om = build_omega(CovarianceSpec(kind, lam=lam), st, rs)
                want = dense_covariance(kind, st, rs, lam)
                assert _rel(om.root @ om.root.T, want) <= 1e-12

    def test_root_is_continuous_at_dependent_leading_columns(self):
        # an AR-order-0 level makes leading residual columns exactly
        # dependent; a 1e-14 change of E must then move the root and the
        # fixed-seed Gaussian draws by rounding only, not by a new basis
        st = fig1()
        rng = np.random.default_rng(31)
        E = rng.normal(size=(6, st.dim))
        E[:, 1] = E[:, 0]
        near = E * (1.0 + 1e-14 * rng.normal(size=E.shape))
        roots, draws = [], []
        for X in (E, near):
            om = build_omega(CovarianceSpec("sam"), st, ResidualSet(st, X, "multi_step"))
            roots.append(om.root)
            base = GaussianForecast(np.zeros(st.dim), om)
            draws.append(sample_gaussian(base, st, 50, seed=4).draws)
        assert _rel(roots[1], roots[0]) <= 1e-12
        assert _rel(draws[1], draws[0]) <= 1e-12

    @pytest.mark.parametrize("N", [3, 60])
    def test_unshrunk_root_has_min_rows_columns_and_lazy_values(self, N):
        st = semi_annual()
        rs = random_residuals(st, N, seed=23)
        width = {"sam": st.dim, "hb": 4, "h": 6, "b": 6}
        for kind in self.UNSHRUNK:
            om = build_omega(CovarianceSpec(kind, lam=0.0), st, rs)
            assert om.root.shape == (st.dim, min(N, width[kind]))
            assert vars(om)["_values"] is None  # not formed until read
            V = om.values
            np.testing.assert_array_equal(V, V.T)
            assert not V.flags.writeable and not om.root.flags.writeable

    @pytest.mark.parametrize("lam", [0.0, 0.3, None])
    def test_structured_kinds_hold_their_factor_and_core(self, lam):
        # shrunk from 3 rows, under the 4 or 6 cells of every core, or from
        # 20, over them, the core is delta + A of min(N, r) columns with no
        # r x r matrix until read
        st = semi_annual()
        for N in (3, 20):
            rs = random_residuals(st, N, seed=24)
            for kind in STRUCTURED_KINDS:
                om = build_omega(CovarianceSpec(kind, lam=lam), st, rs)
                X, F = unshrunk_blocks(kind, st, rs)
                core = om.core
                assert vars(om)["_values"] is None  # F core F' is formed on read
                np.testing.assert_array_equal(om.factor.toarray(), F)
                if lam == 0.0:
                    np.testing.assert_array_equal(core.root, _residual_root(X))
                    assert vars(core)["_values"] is None
                else:
                    used = shrinkage_intensity(X) if lam is None else lam
                    assert om.lambda_used == used
                    r = X.shape[1]
                    assert core.diag.shape == (r,)
                    assert core.low_rank.shape == (r, min(N, r))
                    assert vars(core)["_values"] is None
                    want = dense_covariance(kind, st, rs, used)
                    assert _rel(om.values, want) <= 1e-13
                assert _rel(om.values, F @ core.values @ F.T) <= 1e-14
                assert vars(om)["_values"] is not None


class TestDiagonalPlusRootForm:
    """ols, struc and wlsv held as their diagonal alone, and shr as the
    diagonal lam var plus the root sqrt(1 - lam) A of min(N, d) columns
    (at lam = 0 as sam's root alone); values are formed only when read."""

    @pytest.mark.parametrize("N", [5, 9, 60])
    @pytest.mark.parametrize("lam", [None, 0.0, 0.3, 1.0])
    def test_shr_matches_the_dense_covariance(self, N, lam):
        st = semi_annual()
        rs = random_residuals(st, N, seed=25)
        om = build_omega(CovarianceSpec("shr", lam=lam), st, rs)
        used = shrinkage_intensity(rs.E) if lam is None else lam
        assert om.lambda_used == used
        assert om.low_rank.shape == (st.dim, min(N, st.dim))
        assert vars(om)["_values"] is None
        if used == 0.0:
            assert om.diag is None
        else:
            assert not om.diag.flags.writeable
        V = om.values
        assert _rel(V, dense_covariance("shr", st, rs, used)) <= 1e-13
        np.testing.assert_array_equal(V, V.T)
        assert not V.flags.writeable

    @pytest.mark.parametrize("lam", [None, 0.0, 0.3])
    def test_every_estimate_is_a_diagonal_plus_a_root_at_any_row_count(self, lam):
        # r is 15 for sam and shr, 8, 10 and 12 for the hb, h and b cores
        # and 5 for a bdshr order block: the rows run below, at and above
        # each of them
        st = make_structure([[1.0, 1.0, 1.0, 1.0]], 2)

        def check_form(est, r, N):
            assert est.low_rank.shape == (r, min(N, r))
            assert vars(est)["_values"] is None
            if est.lambda_used in (None, 0.0):
                assert est.diag is None
            else:
                assert est.diag.shape == (r,)

        for N in (3, 5, 8, 10, 12, 15, 20):
            rs = random_residuals(st, N, seed=28)
            for kind in ("sam", "shr") + STRUCTURED_KINDS:
                om = build_omega(CovarianceSpec(kind, lam=lam), st, rs)
                X, _ = unshrunk_blocks(kind, st, rs)
                check_form(om if om.core is None else om.core, X.shape[1], N)
                want = dense_covariance(kind, st, rs, om.lambda_used or 0.0)
                assert _rel(om.values, want) <= 1e-13
            for k in st.te.factors:
                X = rs.h1_matrix(k)
                block = _estimate(X, CovarianceSpec("bdshr", lam=lam))
                check_form(block, X.shape[1], N)
                want = shrunk_dense(X, block.lambda_used)
                assert _rel(block.values, want) <= 1e-13

    def test_diagonal_kinds_hold_their_diagonal(self):
        st = semi_annual()
        rs = random_residuals(st, 30, seed=26)
        for kind, want in (("ols", np.ones(st.dim)),
                           ("struc", st.summation @ np.ones(st.bottom_dim)),
                           ("wlsv", rs.h1_mean_squares)):
            om = build_omega(CovarianceSpec(kind), st, rs)
            assert om.low_rank is None and vars(om)["_values"] is None
            np.testing.assert_array_equal(om.diag, want)
            np.testing.assert_array_equal(om.values, np.diag(want))
            np.testing.assert_array_equal(om.root, np.diag(np.sqrt(want)))

    def test_series_diagonals_are_each_series_te_only_diagonal(self):
        # an upper series without bottoms (struc's S 1 = 0 there) does not
        # stop the bottom series' diagonals
        st = make_structure([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], 2)
        rs = random_residuals(st, 30, seed=27)
        sub, dim_te = st.te_only, st.te.dim
        for kind in ("ols", "struc", "wlsv"):
            got = series_diagonals(CovarianceSpec(kind), st, rs)
            rows = [build_omega(CovarianceSpec(kind), sub, ResidualSet(
                sub, rs.E[:, i * dim_te:(i + 1) * dim_te], rs.kind)).diag
                for i in range(st.cs.n_upper, st.n)]
            want = np.array(rows[:1] if kind != "wlsv" else rows)
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            series_diagonals(CovarianceSpec("ols"), st), np.ones((1, dim_te)))
        for kind in ("shr", "bdshr", "sam", "hb"):
            assert series_diagonals(CovarianceSpec(kind), st, rs) is None

    def test_rejects_a_negative_or_non_finite_diagonal(self):
        spec = CovarianceSpec("wlsv")
        with pytest.raises(ValueError, match=r"diagonal is negative at \[1\]"):
            CovarianceMatrix(None, spec, diag=[1.0, -1e-300])
        with pytest.raises(ValueError, match="diagonal has 1 non-finite"):
            CovarianceMatrix(None, spec, diag=[np.inf, 1.0])
        with pytest.raises(ValueError, match="root has 1 non-finite"):
            CovarianceMatrix(None, spec, diag=[1.0, 1.0],
                             low_rank=[[np.nan], [0.0]])
        with pytest.raises(ValueError, match="a diagonal and a low-rank part"):
            CovarianceMatrix(np.eye(2), spec, diag=[1.0, 1.0])
        # a low-rank part alone is Sigma = A A', and A is its root
        A = np.array([[1.0], [2.0]])
        om = CovarianceMatrix(None, spec, low_rank=A)
        assert om.diag is None and om.root is om.low_rank and om.dim == 2
        np.testing.assert_array_equal(om.values, A @ A.T)


class TestStructuralWeights:
    def test_series_without_bottoms_are_named(self):
        st = make_structure([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                             [0.0, 0.0, 0.0]], 2)
        with pytest.raises(ValidationError, match=r"struc.*series \[1, 2\]"):
            build_omega(CovarianceSpec("struc"), st)


class TestCovarianceMatrixValidation:
    def test_needs_values_or_a_root_array(self):
        with pytest.raises(ValueError, match="give values, a factor"):
            CovarianceMatrix(None, CovarianceSpec("sam"))
        with pytest.raises(ValueError, match="give values, a factor"):
            CovarianceMatrix(np.eye(2), CovarianceSpec("sam"),
                             low_rank=np.ones((2, 1)))
        with pytest.raises(ValueError, match="a factor and its core"):
            CovarianceMatrix(None, CovarianceSpec("hb"), factor=np.eye(2))

    def test_rejects_a_non_finite_root(self):
        A = np.ones((3, 2))
        A[2, 1] = np.nan
        with pytest.raises(ValueError,
                           match=r"root has 1 non-finite entries: \(2, 1\)"):
            CovarianceMatrix(None, CovarianceSpec("sam"), low_rank=A)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]),
                             CovarianceSpec("sam"))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]),
                             CovarianceSpec("sam"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match=r"1 non-finite entries: \(0, 0\)"):
            CovarianceMatrix(np.array([[bad, 0.0], [0.0, 1.0]]),
                             CovarianceSpec("sam"))

    def test_non_finite_message_lists_the_first_entries(self):
        V = np.eye(4)
        V[1, :] = V[:, 1] = np.nan
        with pytest.raises(ValueError, match=r"7 non-finite entries: \(0, 1\) = nan, "
                                             r".*\(1, 3\) = nan and 2 more"):
            CovarianceMatrix(V, CovarianceSpec("sam"))

    @given(spectral_matrices())
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_what_the_eigenvalue_rule_accepts(self, case):
        V, _ = case
        want = covariance_eig_verdict(V)
        try:
            om = CovarianceMatrix(V, CovarianceSpec("sam"))
        except ValueError as exc:
            assert str(exc) == want
        else:
            assert want is None
            np.testing.assert_array_equal(om.values, 0.5 * (V + V.T))

    def test_input_array_is_left_untouched(self):
        V = np.array([[2.0, 1.0 + 1e-14], [1.0, 2.0]])
        before = V.copy()
        om = CovarianceMatrix(V, CovarianceSpec("sam"))
        np.testing.assert_array_equal(V, before)
        assert V.flags.writeable and not om.values.flags.writeable


class TestParameterCount:
    def test_ar2_setup(self):
        st = semi_annual()
        counts = [parameter_count(k, st) for k in ("g", "hb", "h", "b")]
        assert counts == [36, 6, 15, 15]

    def test_gdp_setup(self):
        counts = [
            parameter_count(k, (95, 62, 4, 3), include_variances=True)
            for k in ("g", "hb", "h", "b")
        ]
        assert counts == [221445, 30876, 72390, 94395]

    def test_tourism_setup(self):
        counts = [
            parameter_count(k, (525, 304, 12, 16), include_variances=True)
            for k in ("g", "hb", "h", "b")
        ]
        assert counts == [108052350, 6655776, 19848150, 36231328]

    def test_tuple_matches_structure(self):
        st = semi_annual()
        for k in ("g", "hb", "h", "b"):
            assert parameter_count(k, st) == parameter_count(k, (3, 2, 2, 1))

    def test_degenerate_counts_zero(self):
        for k in ("g", "hb", "h", "b"):
            assert parameter_count(k, (1, 1, 1, 0)) == 0

    def test_reduction_percentages(self):
        for dims, inc, expected in [
            ((3, 2, 2, 1), False, (83, 58, 58)),
            ((95, 62, 4, 3), True, (86, 67, 57)),
            ((525, 304, 12, 16), True, (94, 82, 66)),
        ]:
            g = parameter_count("g", dims, include_variances=inc)
            reds = [
                100 * (1 - parameter_count(k, dims, include_variances=inc) / g)
                for k in ("hb", "h", "b")
            ]
            for got, want in zip(reds, expected):
                assert abs(got - want) <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parameter_count("wlsv", semi_annual())


class TestEveryKindOnRandomStructures:
    """Every kind ``build_omega`` builds, on the shared random cases: from
    normal or integer-valued (tied) residual rows, some columns constant
    when the case asks for it."""

    @staticmethod
    def residuals(case):
        agg, m, _, seed, ties, constant = case
        st = make_structure(agg, m)
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(3, 2 * st.dim)), st.dim)
        E = rng.integers(-2, 3, size=shape).astype(float) if ties else rng.normal(size=shape)
        if constant:
            cells = rng.choice(st.dim, size=max(1, st.dim // 4), replace=False)
            E[:, cells] = E[0, cells]
        return st, ResidualSet(st, E, "multi_step")

    def built(self, st, rs):
        """(kind, covariance) of every kind but a ``struc`` that weights an
        all-zero aggregation row, which must raise."""
        for kind in FULL_KINDS + STRUCTURED_KINDS:
            if kind == "struc" and np.any(st.cs.agg.sum(axis=1) <= 0):
                with pytest.raises(ValidationError, match="'struc'"):
                    build_omega(CovarianceSpec(kind), st, rs)
                continue
            yield kind, build_omega(CovarianceSpec(kind), st, rs)

    @given(data=hst.data())
    @settings(max_examples=40, deadline=None)
    def test_every_kind_is_positive_semi_definite(self, data, scoring_cases):
        st, rs = self.residuals(data.draw(scoring_cases))
        for kind, om in self.built(st, rs):
            V = om.values
            assert V.shape == (st.dim, st.dim) and np.all(np.isfinite(V)), kind
            np.testing.assert_array_equal(V, V.T, err_msg=kind)
            w = np.linalg.eigvalsh(V)
            assert w[0] >= -1e-12 * max(w[-1], 0.0), kind

    @given(data=hst.data())
    @settings(max_examples=40, deadline=None)
    def test_estimated_sizes_agree_with_the_parameter_count(self, data, scoring_cases):
        st, rs = self.residuals(data.draw(scoring_cases))
        shape = (st.n, st.cs.n_bottom, st.te.m, st.te.k_star)
        for kind, om in self.built(st, rs):
            if kind not in ("shr", "sam") + STRUCTURED_KINDS:
                continue
            q = om.core.dim if kind in STRUCTURED_KINDS else om.dim
            for counted in (st, shape):
                assert parameter_count(kind, counted) == q * (q - 1) // 2, kind
                assert parameter_count(kind, counted, include_variances=True) == (
                    q * (q + 1) // 2), kind


class TestInputChecks:
    """Input checks no other test reaches: the exception and its message,
    or what the branch returns."""

    def test_rejects_a_non_finite_factor(self):
        core = CovarianceMatrix(np.eye(1), CovarianceSpec("hb"))
        with pytest.raises(ValueError, match="covariance factor has non-finite entries"):
            CovarianceMatrix(None, CovarianceSpec("hb"), factor=[[1.0], [np.nan]],
                             core=core)

    def test_rejects_non_square_values(self):
        with pytest.raises(ValueError, match="covariance must be square"):
            CovarianceMatrix(np.ones((2, 3)), CovarianceSpec("sam"))

    def test_rejects_a_root_that_is_not_a_matrix(self):
        with pytest.raises(ValueError, match="covariance root must be a matrix"):
            CovarianceMatrix(None, CovarianceSpec("sam"), low_rank=[1.0, 2.0])

    def test_sample_covariance_needs_a_row(self):
        with pytest.raises(ValueError, match="not enough rows for a sample covariance"):
            sample_covariance(np.zeros((0, 3)))

    def test_shrinkage_intensity_reads_a_residual_set(self):
        rs = random_residuals(semi_annual(), 20, seed=29)
        assert shrinkage_intensity(rs) == shrinkage_intensity(rs.E)

    def test_repr_names_the_spec_lambda_and_dimension(self):
        om = CovarianceMatrix(None, CovarianceSpec("shr"), 0.25, diag=[1.0, 2.0])
        assert repr(om) == ("CovarianceMatrix(spec=CovarianceSpec(kind='shr', "
                            "lam=None), lambda_used=0.25, dim=2)")

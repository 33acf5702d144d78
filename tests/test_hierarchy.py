"""Tests for the hierarchy matrices and the canonical stacked layout."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from ctreco.hierarchy import (
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    factors_of,
    stack_window,
    temporally_aggregate,
)
from reference import commutation_dense, dense_cross_temporal, stack_window_loop


def fig1_structure():
    """Three series with A = X + Y, quarterly (m = 4)."""
    cs = build_cross_sectional(np.array([[1.0, 1.0]]))
    te = build_temporal(4)
    return build_cross_temporal(cs, te)


class TestCrossSectional:
    def test_two_bottom(self):
        cs = build_cross_sectional(np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(cs.constraints, [[1.0, -1.0, -1.0]])
        np.testing.assert_array_equal(
            cs.summation, [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        )

    def test_single_bottom(self):
        cs = build_cross_sectional(np.array([[1.0]]))
        np.testing.assert_array_equal(cs.constraints, [[1.0, -1.0]])
        np.testing.assert_array_equal(cs.summation, [[1.0], [1.0]])

    def test_constraints_annihilate_summation(self):
        cs = build_cross_sectional(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        np.testing.assert_array_equal(
            cs.constraints @ cs.summation, np.zeros((2, 3))
        )

    def test_counts(self):
        cs = build_cross_sectional(np.random.default_rng(0).normal(size=(3, 5)))
        assert (cs.n_upper, cs.n_bottom, cs.n) == (3, 5, 8)

    def test_rejects_no_bottom_series(self):
        with pytest.raises(ValueError):
            build_cross_sectional(np.zeros((2, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            build_cross_sectional(np.array([[1.0, np.nan]]))


class TestTemporal:
    def test_quarterly_matrices(self):
        te = build_temporal(4)
        assert te.factors == (4, 2, 1)
        assert te.k_star == 3
        np.testing.assert_array_equal(
            te.agg, [[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]]
        )
        np.testing.assert_array_equal(
            te.constraints,
            [
                [1, 0, 0, -1, -1, -1, -1],
                [0, 1, 0, -1, -1, 0, 0],
                [0, 0, 1, 0, 0, -1, -1],
            ],
        )
        np.testing.assert_array_equal(
            te.summation, np.vstack([te.agg, np.eye(4)])
        )

    def test_m1_degenerates(self):
        te = build_temporal(1)
        assert te.factors == (1,)
        assert te.k_star == 0
        np.testing.assert_array_equal(te.summation, np.eye(1))

    def test_monthly_k_star(self):
        te = build_temporal(12)
        assert te.factors == (12, 6, 4, 3, 2, 1)
        assert te.k_star == 16

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_temporal(0)

    @pytest.mark.parametrize("m", [2, 4, 6, 12])
    def test_agg_row_and_column_sums(self, m):
        te = build_temporal(m)
        row = 0
        for k in te.factors:
            if k == 1:
                continue
            block = te.agg[row : row + m // k]
            # each row has exactly k ones, each column is covered once
            assert np.all(block.sum(axis=1) == k)
            assert np.all(block.sum(axis=0) == 1)
            row += m // k

    def test_factors_complete_and_descending(self):
        for m in range(1, 60):
            facs = factors_of(m)
            assert facs[0] == m and facs[-1] == 1
            assert all(m % k == 0 for k in facs)
            assert list(facs) == sorted(facs, reverse=True)
            assert set(facs) == {k for k in range(1, m + 1) if m % k == 0}


class TestCrossTemporal:
    def test_fig1_dimensions(self):
        ct = fig1_structure()
        assert ct.summation.shape == (21, 8)
        assert ct.constraints.shape == (1 * 4 + 3 * 3, 21)

    def test_constraints_annihilate_summation(self):
        ct = fig1_structure()
        prod = ct.constraints @ ct.summation
        assert np.max(np.abs(prod)) <= 1e-12

    def test_constraint_rank(self):
        ct = fig1_structure()
        assert np.linalg.matrix_rank(ct.constraints) == 13

    def test_single_series_reduces_to_temporal(self):
        # n = 1 (no upper series): zero-row aggregation matrix
        te = build_temporal(4)
        cs = build_cross_sectional(np.empty((0, 1)))
        ct = build_cross_temporal(cs, te)
        np.testing.assert_allclose(ct.summation, te.summation)
        np.testing.assert_allclose(ct.constraints, te.constraints)

    def test_coherent_vectors_satisfy_constraints(self):
        rng = np.random.default_rng(7)
        ct = fig1_structure()
        for _ in range(5):
            b = rng.normal(size=ct.bottom_dim)
            x = ct.summation @ b
            assert np.max(np.abs(ct.constraints @ x)) <= 1e-10
            assert ct.is_coherent(x)

    def test_commutation_is_permutation(self):
        ct = fig1_structure()
        P = commutation_dense(ct)
        np.testing.assert_array_equal(P @ P.T, np.eye(ct.dim))
        assert np.all(P.sum(axis=0) == 1) and np.all(P.sum(axis=1) == 1)

    def test_commutation_transposes_vec(self):
        rng = np.random.default_rng(3)
        ct = fig1_structure()
        X = rng.normal(size=(ct.n, ct.te.dim))
        P = commutation_dense(ct)
        np.testing.assert_allclose(
            P @ X.reshape(-1, order="F"), X.T.reshape(-1, order="F")
        )

    def test_c_star_matches_kronecker_form(self):
        # first block of the constraints equals [0 | I_m (x) C_cs] P'
        ct = fig1_structure()
        m, n_a, ks = ct.te.m, ct.cs.n_upper, ct.te.k_star
        P = commutation_dense(ct)
        B = np.hstack(
            [
                np.zeros((n_a * m, ct.n * ks)),
                np.kron(np.eye(m), ct.cs.constraints),
            ]
        )
        np.testing.assert_allclose(ct.constraints[: n_a * m], B @ P.T)

    def test_index_map_matches_summation_columns(self):
        ct = fig1_structure()
        # coherent vector from a one-hot bottom input: the high-frequency
        # bottom cells must receive exactly that one-hot pattern
        b = np.zeros(ct.bottom_dim)
        b[5] = 1.0  # second bottom series, second quarter
        x = ct.summation @ b
        hf = ct.bottom_hf_indices()
        np.testing.assert_array_equal(x[hf], b)

    def test_stack_scalar(self):
        cs = build_cross_sectional(np.empty((0, 1)))
        te = build_temporal(1)
        ct = build_cross_temporal(cs, te)
        np.testing.assert_array_equal(ct.stack(np.array([[5.0]])), [5.0])

    def test_stack_unstack_round_trip(self):
        rng = np.random.default_rng(11)
        ct = fig1_structure()
        X = rng.normal(size=(ct.n, ct.te.dim))
        np.testing.assert_array_equal(ct.unstack(ct.stack(X)), X)

    def test_stack_of_coherent_matrix_is_coherent(self):
        rng = np.random.default_rng(13)
        ct = fig1_structure()
        x = ct.summation @ rng.normal(size=ct.bottom_dim)
        X = ct.unstack(x)
        assert ct.is_coherent(ct.stack(X))

    def test_stack_rejects_bad_shape(self):
        ct = fig1_structure()
        with pytest.raises(ValueError):
            ct.stack(np.zeros((2, 2)))


class TestTemporallyAggregate:
    def test_pairs(self):
        np.testing.assert_array_equal(
            temporally_aggregate(np.array([1.0, 2.0, 3.0, 4.0]), 2), [3.0, 7.0]
        )

    def test_identity(self):
        y = np.arange(6.0)
        np.testing.assert_array_equal(temporally_aggregate(y, 1), y)

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(5)
        te = build_temporal(4)
        y = rng.normal(size=12)
        agg4 = temporally_aggregate(y, 4)
        # A_te row for k = 4 applied to each year block
        expected = np.array(
            [te.agg[0] @ y[i * 4 : (i + 1) * 4] for i in range(3)]
        )
        np.testing.assert_allclose(agg4, expected)

    def test_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            temporally_aggregate(np.arange(5.0), 2)


@given(
    n_a=st.integers(1, 3),
    n_b=st.integers(1, 4),
    m=st.sampled_from([1, 2, 4, 6]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_constraint_summation_product_property(n_a, n_b, m, seed):
    rng = np.random.default_rng(seed)
    cs = build_cross_sectional(rng.normal(size=(n_a, n_b)))
    ct = build_cross_temporal(cs, build_temporal(m))
    tol = 1e-12 * max(1.0, np.abs(cs.agg).max())
    assert np.max(np.abs(ct.constraints @ ct.summation)) <= tol
    assert ct.constraints.shape[0] == n_a * m + ct.n * ct.te.k_star
    assert ct.summation.shape[1] == n_b * m


@st.composite
def real_hierarchies(draw):
    """A real-valued (n_a, n_b) aggregation matrix, with fractional,
    negative and zero entries (n_a = 0 included), and a seasonal period."""
    n_a, n_b = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    entry = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.25, 0.1, 3.7, -2.3])
    agg = draw(st.lists(entry, min_size=n_a * n_b, max_size=n_a * n_b))
    m = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    return np.array(agg).reshape(n_a, n_b), m


def _assert_csr_equals(sparse, dense):
    """The same non-zeros, in the same order, as the CSR form of ``dense``."""
    ref = scipy.sparse.csr_array(dense)
    assert sparse.shape == ref.shape
    np.testing.assert_array_equal(sparse.indptr, ref.indptr)
    np.testing.assert_array_equal(sparse.indices, ref.indices)
    assert sparse.data.tobytes() == ref.data.tobytes()
    for part in (sparse.data, sparse.indices, sparse.indptr):
        assert not part.flags.writeable


@given(case=real_hierarchies(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sparse_build_matches_the_dense_oracle(case, seed):
    agg, m = case
    cs, te = build_cross_sectional(agg), build_temporal(m)
    ct = build_cross_temporal(cs, te)
    S, C = dense_cross_temporal(cs, te)
    _assert_csr_equals(ct.summation_csr, S)
    _assert_csr_equals(ct.constraints_csr, C)
    _assert_csr_equals(ct.constraints_t_csr, C.T)
    assert abs(ct.constraints_csr @ ct.summation_csr).sum() == 0.0

    # the dense forms are derived from the CSR ones and read-only
    assert "summation" not in vars(ct) and "constraints" not in vars(ct)
    for dense, sparse in ((ct.summation, ct.summation_csr),
                          (ct.constraints, ct.constraints_csr)):
        np.testing.assert_array_equal(dense, sparse.toarray())
        assert not dense.flags.writeable
        with pytest.raises(ValueError):
            dense[0, 0] = 1.0

    # index_of is a bijection onto the stacked vector, block by block
    cells = [ct.index_of(i, k, j) for i in range(ct.n) for k in te.factors
             for j in range(te.periods_at(k))]
    assert cells == list(range(ct.dim))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=ct.dim)
    X = ct.unstack(x)
    np.testing.assert_array_equal(ct.stack(X), x)
    np.testing.assert_array_equal(ct.unstack(ct.stack(X)), X)
    for i in range(ct.n):
        for k in te.factors:
            np.testing.assert_array_equal(
                x[ct.block_slice(i, k)],
                X[i, te.offset_of(k) : te.offset_of(k) + te.periods_at(k)])

    # a stacked window is the coherent vector of its bottom cells
    hf = rng.normal(size=(ct.n, m))
    hf[: cs.n_upper] = agg @ hf[cs.n_upper :]
    y = stack_window(ct, hf)
    assert y.tobytes() == stack_window_loop(ct, hf).tobytes()
    bottom_hf = [ct.index_of(i, 1, j) for i in range(cs.n_upper, ct.n) for j in range(m)]
    np.testing.assert_array_equal(ct.bottom_hf_indices(), bottom_hf)
    np.testing.assert_array_equal(y[bottom_hf], hf[cs.n_upper :].ravel())
    assert ct.coherence_gap(y) <= 1e-12 * max(1.0, np.abs(agg).sum())

    # cell_indices gives index_of of every (series, column) pair, in the
    # order the series and the columns are given
    series, columns = rng.permutation(ct.n), rng.permutation(te.dim)
    want = {(i, te.offset_of(k) + j): ct.index_of(i, k, j)
            for i in range(ct.n) for k in te.factors for j in range(te.periods_at(k))}
    got = ct.cell_indices(series, columns)
    assert got.shape == (ct.n, te.dim)
    assert got.tolist() == [[want[i, c] for c in columns] for i in series]


def test_tourism_shape_builds_sparse():
    # n_b = 304 bottoms under n_a = 221 uppers (a total, 76 groups of 4
    # and 144 groups cutting across them), m = 12: dim 525 * 28 = 14 700
    n_b = 304
    j = np.arange(n_b)
    agg = np.vstack([np.ones((1, n_b)),
                     (j // 4 == np.arange(76)[:, None]).astype(float),
                     (j % 144 == np.arange(144)[:, None]).astype(float)])
    cs, te = build_cross_sectional(agg), build_temporal(12)
    tracemalloc.start()
    try:
        ct = build_cross_temporal(cs, te)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ct.n, ct.dim, ct.bottom_dim) == (525, 14_700, 3648)
    assert ct.constraints_csr.shape == (221 * 12 + 525 * 16, 14_700)
    assert peak < 200e6
    assert "summation" not in vars(ct) and "constraints" not in vars(ct)

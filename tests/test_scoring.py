"""Tests for CRPS, energy score, relative indices and rank comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctreco.hierarchy import build_cross_sectional, build_cross_temporal, build_temporal
from ctreco.scoring import (
    ScoreRaw,
    crps,
    energy_score,
    frobenius_gap,
    mcb_nemenyi,
    relative_indices,
    score_draws,
)


def crps_loop(draws, z):
    x = np.asarray(draws, float)
    L = x.size
    t1 = sum(abs(v - z) for v in x) / L
    t2 = sum(abs(a - b) for a in x for b in x) / (2 * L * L)
    return t1 - t2


def crps_sorted(draws, z):
    """Scalar CRPS through the order statistics, one column at a time."""
    x = np.asarray(draws, dtype=float).reshape(-1)
    L = x.size
    term1 = np.mean(np.abs(x - z))
    pair_sum = 2.0 * np.sum((2.0 * np.arange(L) + 1.0 - L) * np.sort(x))
    return float(term1 - pair_sum / (2.0 * L * L))


def score_draws_per_cell(structure, draws, z):
    """Per-cell oracle of ``score_draws``: one scalar CRPS per cell and one
    energy score per order, with the columns gathered through ``index_of``."""
    orders = structure.te.factors
    crps_mat = np.empty((structure.n, len(orders)))
    es_vec = np.empty(len(orders))
    for kk, k in enumerate(orders):
        cols = [
            structure.index_of(i, k, j)
            for i in range(structure.n)
            for j in range(structure.te.periods_at(k))
        ]
        es_vec[kk] = energy_score(draws[:, cols], z[cols])
        for i in range(structure.n):
            sl = structure.block_slice(i, k)
            vals = [crps_sorted(draws[:, c], z[c]) for c in range(sl.start, sl.stop)]
            crps_mat[i, kk] = np.mean(vals)
    return crps_mat, es_vec


def es_loop(draws, z, consecutive=True):
    X = np.asarray(draws, float)
    L = X.shape[0]
    t1 = sum(np.linalg.norm(X[l] - z) for l in range(L)) / L
    if consecutive:
        t2 = sum(np.linalg.norm(X[l] - X[l + 1]) for l in range(L - 1))
        t2 /= 2 * (L - 1)
    else:
        t2 = sum(
            np.linalg.norm(X[a] - X[b]) for a in range(L) for b in range(L)
        ) / (2 * L * L)
    return t1 - t2


class TestCrps:
    def test_single_draw_equal_observation(self):
        assert crps([1.0], 1.0) == 0.0

    def test_hand_case(self):
        assert crps([0.0, 2.0], 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            L = rng.integers(1, 9)
            x = rng.normal(size=L)
            z = rng.normal()
            assert crps(x, z) == pytest.approx(crps_loop(x, z), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=rng.integers(1, 20))
            assert crps(x, rng.normal()) >= -1e-12

    def test_empty_draws(self):
        with pytest.raises(ValueError):
            crps([], 0.0)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=10),
        st.floats(-50, 50),
        st.floats(-20, 20),
        st.floats(0.1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_translation_and_scale(self, draws, z, shift, scale):
        x = np.array(draws)
        base = crps(x, z)
        assert crps(x + shift, z + shift) == pytest.approx(base, abs=1e-9)
        assert crps(scale * x, scale * z) == pytest.approx(
            scale * base, rel=1e-9, abs=1e-9
        )


class TestEnergyScore:
    def test_all_draws_equal_observation(self):
        X = np.tile([1.0, 2.0], (5, 1))
        assert energy_score(X, [1.0, 2.0]) == 0.0

    def test_univariate_hand_case(self):
        # consecutive-pair estimator: 1 - (1/2) * 2 = 0
        assert energy_score(np.array([[0.0], [2.0]]), [1.0]) == pytest.approx(0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            L, d = rng.integers(2, 7), rng.integers(1, 6)
            X = rng.normal(size=(L, d))
            z = rng.normal(size=d)
            assert energy_score(X, z) == pytest.approx(
                es_loop(X, z), abs=1e-12
            )
            assert energy_score(X, z, "all") == pytest.approx(
                es_loop(X, z, consecutive=False), abs=1e-12
            )

    def test_first_term_permutation_invariant_second_not(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 3))
        z = rng.normal(size=3)
        perm = rng.permutation(6)
        all_pairs = energy_score(X, z, "all")
        assert energy_score(X[perm], z, "all") == pytest.approx(all_pairs)
        # the consecutive estimator may differ under permutation
        vals = {round(energy_score(X[rng.permutation(6)], z), 12) for _ in range(8)}
        assert len(vals) > 1

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            energy_score(np.array([[1.0]]), [1.0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            energy_score(np.zeros((3, 2)), [0.0])


class TestScoreDraws:
    def make_structure(self):
        cs = build_cross_sectional(np.array([[1.0, 1.0]]))
        return build_cross_temporal(cs, build_temporal(2))

    def test_shapes_and_values(self):
        st_ = self.make_structure()
        rng = np.random.default_rng(4)
        draws = rng.normal(size=(40, st_.dim))
        z = rng.normal(size=st_.dim)
        raw = score_draws(st_, draws, z, label="x")
        assert raw.crps.shape == (3, 2)
        assert raw.es.shape == (2,)
        assert raw.orders == (2, 1)
        # series 0, k=1 block: mean of the two cell CRPS values
        sl = st_.block_slice(0, 1)
        expected = np.mean(
            [crps(draws[:, c], z[c]) for c in range(sl.start, sl.stop)]
        )
        assert raw.crps[0, 1] == pytest.approx(expected)

    def test_es_uses_full_order_block(self):
        st_ = self.make_structure()
        rng = np.random.default_rng(5)
        draws = rng.normal(size=(30, st_.dim))
        z = rng.normal(size=st_.dim)
        raw = score_draws(st_, draws, z)
        cols = [st_.index_of(i, 1, j) for i in range(3) for j in range(2)]
        assert raw.es[1] == pytest.approx(energy_score(draws[:, cols], z[cols]))


@st.composite
def scoring_cases(draw):
    """A random 0/1 hierarchy, a seasonal period, a draw count and the
    shape of the draws: ties (values on an integer grid) and constant
    columns."""
    n_upper = draw(st.integers(1, 4))
    n_bottom = draw(st.integers(2, 6))
    agg = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=n_bottom, max_size=n_bottom),
            min_size=n_upper,
            max_size=n_upper,
        )
    )
    m = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    L = draw(st.sampled_from([2, 3, 17, 200]))
    seed = draw(st.integers(0, 2**32 - 1))
    ties, constant = draw(st.booleans()), draw(st.booleans())
    return np.array(agg, dtype=float), m, L, seed, ties, constant


def assert_matches_oracle(structure, draws, z):
    raw = score_draws(structure, draws, z)
    crps_mat, es_vec = score_draws_per_cell(structure, draws, z)
    # rtol is the gate; the atol floor only covers cells whose score is
    # exactly zero in exact arithmetic (every draw equal to the observation)
    np.testing.assert_allclose(raw.crps, crps_mat, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(raw.es, es_vec, rtol=1e-12, atol=1e-14)


class TestScoreDrawsKernel:
    """The column-wise kernel against the per-cell oracle."""

    @given(scoring_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_cell_oracle(self, case):
        agg, m, L, seed, ties, constant = case
        st_ = build_cross_temporal(build_cross_sectional(agg), build_temporal(m))
        rng = np.random.default_rng(seed)
        loc, scale = rng.uniform(-5.0, 5.0), rng.uniform(0.5, 5.0)
        draws = loc + scale * rng.normal(size=(L, st_.dim))
        z = loc + scale * rng.normal(size=st_.dim)
        if ties:
            draws, z = np.round(draws), np.round(z)
        if constant:
            cols = rng.random(st_.dim) < 0.5
            draws[:, cols] = draws[0, cols]
            # about half of them also equal the observation: CRPS 0
            hit = rng.random(int(cols.sum())) < 0.5
            z[cols] = np.where(hit, draws[0, cols], z[cols])
        assert_matches_oracle(st_, draws, z)

    @pytest.mark.parametrize(
        "n_upper, n_bottom, m",
        [(1, 2, 2), (33, 62, 4), (30, 40, 12)],
        ids=["study", "gdp", "monthly"],
    )
    def test_benchmark_shapes(self, n_upper, n_bottom, m):
        rng = np.random.default_rng(n_bottom)
        agg = (rng.random((n_upper, n_bottom)) < 0.3).astype(float)
        agg[0] = 1.0
        st_ = build_cross_temporal(build_cross_sectional(agg), build_temporal(m))
        draws = 30.0 + rng.normal(size=(500, st_.dim)) * rng.uniform(0.5, 3.0, st_.dim)
        z = 30.0 + rng.normal(size=st_.dim)
        assert_matches_oracle(st_, draws, z)

    def test_crps_is_the_one_column_case(self):
        # at m = 1 every (series, order) block is a single cell
        st_ = build_cross_temporal(
            build_cross_sectional(np.array([[1.0, 1.0, 1.0]])), build_temporal(1)
        )
        rng = np.random.default_rng(6)
        draws = rng.normal(size=(50, st_.dim))
        z = rng.normal(size=st_.dim)
        raw = score_draws(st_, draws, z)
        for c in range(st_.dim):
            assert crps(draws[:, c], z[c]) == pytest.approx(raw.crps[c, 0], rel=1e-12)
            assert crps(draws[:, c], z[c]) == pytest.approx(
                crps_sorted(draws[:, c], z[c]), rel=1e-12
            )

    @pytest.mark.parametrize("L", [0, 1])
    def test_needs_two_draws(self, L):
        st_ = TestScoreDraws().make_structure()
        with pytest.raises(ValueError, match="two draws"):
            score_draws(st_, np.zeros((L, st_.dim)), np.zeros(st_.dim))

    @pytest.mark.parametrize(
        "draw_shape, obs_shape",
        [((5, 8), (9,)), ((5, 9), (8,)), ((9,), (9,)), ((5, 9), (1, 9))],
    )
    def test_shape_mismatch(self, draw_shape, obs_shape):
        st_ = TestScoreDraws().make_structure()
        with pytest.raises(ValueError, match="draws must be"):
            score_draws(st_, np.zeros(draw_shape), np.zeros(obs_shape))


class TestRelativeIndices:
    def raw(self, label, crps_val, es_val, n=3, orders=(2, 1)):
        return ScoreRaw(
            label=label,
            orders=orders,
            crps=np.full((n, len(orders)), crps_val, dtype=float),
            es=np.full(len(orders), es_val, dtype=float),
        )

    def test_self_benchmark_is_one(self):
        a = self.raw("a", 0.7, 1.3)
        rep = relative_indices(a, a)
        assert all(v == pytest.approx(1.0) for v in rep.avg_rel_crps.values())
        assert rep.avg_rel_crps_overall == pytest.approx(1.0)
        assert rep.avg_rel_es_overall == pytest.approx(1.0)

    def test_geometric_mean_symmetry(self):
        # two series with ratios 0.5 and 2 average to 1 geometrically
        a = self.raw("a", 1.0, 1.0, n=2, orders=(1,))
        b = self.raw("b", 1.0, 1.0, n=2, orders=(1,))
        a.crps[0, 0], a.crps[1, 0] = 0.5, 2.0
        rep = relative_indices(a, b)
        assert rep.avg_rel_crps[1] == pytest.approx(1.0)

    def test_overall_exponent_counts_cells(self):
        # orders (2, 1) with m = 2 have k* + m = 3 cells per series
        a = self.raw("a", 0.8, 0.9)
        b = self.raw("base", 1.0, 1.0)
        rep = relative_indices(a, b)
        # product over 6 ratios of 0.8, exponent 1/(3*3)
        assert rep.avg_rel_crps_overall == pytest.approx(0.8 ** (6 / 9))
        assert rep.avg_rel_es_overall == pytest.approx(0.9 ** (2 / 3))

    def test_three_series_log_mean_oracle(self):
        rng = np.random.default_rng(6)
        a = self.raw("a", 1.0, 1.0)
        b = self.raw("b", 1.0, 1.0)
        vals = rng.uniform(0.5, 2.0, size=(3, 2))
        object.__setattr__(a, "crps", vals)
        rep = relative_indices(a, b)
        for kk, k in enumerate((2, 1)):
            assert rep.avg_rel_crps[k] == pytest.approx(
                np.exp(np.mean(np.log(vals[:, kk])))
            )

    def test_zero_benchmark_rejected(self):
        a = self.raw("a", 1.0, 1.0)
        b = self.raw("b", 0.0, 1.0)
        with pytest.raises(ValueError):
            relative_indices(a, b)


class TestFrobenius:
    def test_identical(self):
        A = np.random.default_rng(7).normal(size=(4, 4))
        assert frobenius_gap(A, A) == 0.0

    def test_identity_vs_zero(self):
        assert frobenius_gap(np.eye(9), np.zeros((9, 9))) == pytest.approx(3.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(8)
        A, B = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))
        expected = np.sqrt(np.sum((A - B) ** 2))
        assert frobenius_gap(A, B) == pytest.approx(expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_gap(np.eye(2), np.eye(3))


class TestMcbNemenyi:
    def test_identical_methods_tie(self):
        S = np.ones((10, 2))
        out = mcb_nemenyi(S)
        assert out["friedman_p"] == 1.0
        np.testing.assert_allclose(out["mean_ranks"], [1.5, 1.5])
        assert out["equivalent_to_best"].all()

    def test_strict_dominance_two_methods(self):
        S = np.column_stack([np.zeros(30), np.ones(30)])
        out = mcb_nemenyi(S)
        np.testing.assert_allclose(out["mean_ranks"], [1.0, 2.0])
        assert out["friedman_stat"] == pytest.approx(30.0)
        assert out["friedman_p"] < 0.01
        assert out["best"] == 0

    def test_three_method_rank_oracle(self):
        rng = np.random.default_rng(9)
        S = rng.normal(size=(12, 3))
        out = mcb_nemenyi(S)
        from scipy.stats import rankdata

        expected = np.mean([rankdata(row) for row in S], axis=0)
        np.testing.assert_allclose(out["mean_ranks"], expected)

    def test_matches_scipy_friedman(self):
        from scipy.stats import friedmanchisquare

        rng = np.random.default_rng(10)
        S = rng.normal(size=(15, 4))
        out = mcb_nemenyi(S)
        ref = friedmanchisquare(*(S[:, j] for j in range(4)))
        assert out["friedman_stat"] == pytest.approx(ref.statistic)
        assert out["friedman_p"] == pytest.approx(ref.pvalue)

    def test_critical_distance_positive_and_scales(self):
        rng = np.random.default_rng(11)
        S = rng.normal(size=(20, 3))
        cd20 = mcb_nemenyi(S)["critical_distance"]
        cd80 = mcb_nemenyi(np.tile(S, (4, 1)))["critical_distance"]
        assert cd20 > 0
        assert cd80 == pytest.approx(cd20 / 2.0)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError):
            mcb_nemenyi(np.ones((1, 3)))

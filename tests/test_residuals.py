"""Tests for residual matrix assembly and overlapping windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ctreco.hierarchy import (
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
    temporally_aggregate,
)
from ctreco.models import ARModel
from ctreco.residuals import (
    ResidualSet,
    _phase_sums,
    aggregate_levels,
    assemble_multistep,
    assemble_onestep,
    assemble_overlapping,
    fit_level_models,
    overlapping_series,
)
from reference import (
    assemble_multistep_loop,
    assemble_onestep_loop,
    assemble_overlapping_loop,
    h1_matrix_stacked,
    h1_mean_squares_loop,
)


def semi_annual_structure():
    """n = 3 (A = B + C), m = 2."""
    cs = build_cross_sectional(np.array([[1.0, 1.0]]))
    return build_cross_temporal(cs, build_temporal(2))


def simulate_panel(rng, structure, N, phi=((1.34, -0.74), (0.95, -0.42))):
    m = structure.te.m
    T = N * m
    burn = 100
    n_b = structure.cs.n_bottom
    bottoms = np.zeros((n_b, T + burn))
    eps = rng.normal(size=(n_b, T + burn))
    for t in range(2, T + burn):
        for i in range(n_b):
            bottoms[i, t] = (
                phi[i][0] * bottoms[i, t - 1]
                + phi[i][1] * bottoms[i, t - 2]
                + eps[i, t]
            )
    bottoms = bottoms[:, burn:]
    hf = np.vstack([structure.cs.agg @ bottoms, bottoms])
    return hf


class TestAssembleMultistep:
    def test_dimensions(self):
        rng = np.random.default_rng(0)
        st = semi_annual_structure()
        hf = simulate_panel(rng, st, N=40)
        data = aggregate_levels(st, hf)
        models = fit_level_models(data, max_order=2, criterion="fixed")
        rs = assemble_multistep(st, models, data)
        assert rs.E.shape[1] == 9
        assert rs.kind == "multi_step"
        # the AR(2) at the annual level (one value per period) needs two
        # full periods of history, so two leading rows are dropped
        assert rs.E.shape[0] == 38

    def test_zero_residuals_for_perfect_model(self):
        st = semi_annual_structure()
        # deterministic recursion reproduced exactly by the true model
        T = 20
        y = np.zeros(T)
        y[0], y[1] = 1.0, 0.5
        for t in range(2, T):
            y[t] = 0.5 * y[t - 1] + 0.2 * y[t - 2]
        hf_b = np.vstack([y, y])
        hf = np.vstack([st.cs.agg @ hf_b, hf_b])
        data = aggregate_levels(st, hf)
        models = {}
        for (i, k) in data:
            if k == 1:
                models[(i, k)] = ARModel(2, np.array([0.5, 0.2]), 0.0, 0.0)
            else:
                # aggregated series follow their own recursions; fit exactly
                # by least squares on the deterministic data
                from ctreco.models import fit_ar

                models[(i, k)] = fit_ar(data[(i, k)], 2, "fixed")
        rs = assemble_multistep(st, models, data)
        assert np.max(np.abs(rs.block(1, 1))) < 1e-8

    def test_row_alignment_across_blocks(self):
        # an injected outlier in one period shows up in the same row
        # of every block it contaminates
        rng = np.random.default_rng(1)
        st = semi_annual_structure()
        hf = simulate_panel(rng, st, N=30)
        hf[:, 41] += 50.0  # period index 20 at k=1
        data = aggregate_levels(st, hf)
        models = fit_level_models(data, max_order=2, criterion="fixed")
        rs = assemble_multistep(st, models, data)
        row = np.argmax(np.abs(rs.block(1, 1)[:, 1]))
        assert np.abs(rs.block(1, 2)[row, 0]) > np.median(
            np.abs(rs.block(1, 2)[:, 0])
        )

    def test_missing_level_raises(self):
        rng = np.random.default_rng(2)
        st = semi_annual_structure()
        hf = simulate_panel(rng, st, N=20)
        data = aggregate_levels(st, hf)
        models = fit_level_models(data, max_order=1, criterion="fixed")
        del models[(2, 1)]
        with pytest.raises(ValueError, match="missing"):
            assemble_multistep(st, models, data)

    def test_m1_reduces_to_cross_sectional(self):
        cs = build_cross_sectional(np.array([[1.0, 1.0]]))
        st = build_cross_temporal(cs, build_temporal(1))
        rng = np.random.default_rng(3)
        hf = simulate_panel(rng, st, N=50)
        data = aggregate_levels(st, hf)
        models = fit_level_models(data, max_order=2, criterion="fixed")
        rs = assemble_multistep(st, models, data)
        assert rs.E.shape == (48, 3)


class TestAssembleOnestep:
    def test_block_holds_rolling_residuals(self):
        rng = np.random.default_rng(4)
        st = semi_annual_structure()
        hf = simulate_panel(rng, st, N=30)
        data = aggregate_levels(st, hf)
        models = fit_level_models(data, max_order=2, criterion="fixed")
        rs = assemble_onestep(st, models, data)
        assert rs.kind == "one_step"
        # k=1 block flattened reproduces the ordinary residual series
        from ctreco.models import fitted_multistep

        res = data[(1, 1)] - fitted_multistep(models[(1, 1)], data[(1, 1)], 1)
        # two leading periods dropped (annual AR(2) history requirement)
        np.testing.assert_allclose(rs.block(1, 1).reshape(-1), res[4:])

    def test_one_step_equals_multistep_h1_columns(self):
        rng = np.random.default_rng(5)
        st = semi_annual_structure()
        hf = simulate_panel(rng, st, N=25)
        data = aggregate_levels(st, hf)
        models = fit_level_models(data, max_order=2, criterion="fixed")
        one = assemble_onestep(st, models, data)
        multi = assemble_multistep(st, models, data)
        for i in range(3):
            for k in (2, 1):
                np.testing.assert_allclose(
                    one.block(i, k)[:, 0], multi.block(i, k)[:, 0]
                )


class TestOverlappingSeries:
    def test_shift_zero(self):
        y = np.arange(1.0, 7.0)
        np.testing.assert_array_equal(overlapping_series(y, 2, 0), [3, 7, 11])

    def test_shift_one(self):
        y = np.arange(1.0, 7.0)
        np.testing.assert_array_equal(overlapping_series(y, 2, 1), [5, 9])

    def test_k1_identity(self):
        y = np.arange(5.0)
        np.testing.assert_array_equal(overlapping_series(y, 1, 0), y)

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError):
            overlapping_series(np.arange(6.0), 2, 2)


class TestAssembleOverlapping:
    def test_row_count_increases(self):
        rng = np.random.default_rng(6)
        st = semi_annual_structure()
        hf = simulate_panel(rng, st, N=30)
        data = aggregate_levels(st, hf)
        models = fit_level_models(data, max_order=2, criterion="fixed")
        plain = assemble_multistep(st, models, data)
        over = assemble_overlapping(st, models, hf)
        assert over.kind == "overlapping_multi_step"
        # shifts roughly double the rows for m = 2
        assert plain.n_periods < over.n_periods <= 2 * plain.n_periods

    def test_contains_unshifted_rows(self):
        rng = np.random.default_rng(7)
        st = semi_annual_structure()
        hf = simulate_panel(rng, st, N=20)
        data = aggregate_levels(st, hf)
        models = fit_level_models(data, max_order=2, criterion="fixed")
        plain = assemble_multistep(st, models, data)
        over = assemble_overlapping(st, models, hf)
        # every unshifted row appears among the pooled rows
        for row in plain.E:
            assert any(np.allclose(row, r) for r in over.E)

    def test_m1_equals_plain(self):
        cs = build_cross_sectional(np.array([[1.0, 1.0]]))
        st = build_cross_temporal(cs, build_temporal(1))
        rng = np.random.default_rng(8)
        hf = simulate_panel(rng, st, N=40)
        data = aggregate_levels(st, hf)
        models = fit_level_models(data, max_order=2, criterion="fixed")
        plain = assemble_multistep(st, models, data)
        over = assemble_overlapping(st, models, hf)
        np.testing.assert_allclose(plain.E, over.E)

    def test_pooled_variance_near_innovation_variance(self):
        rng = np.random.default_rng(9)
        st = semi_annual_structure()
        hf = simulate_panel(rng, st, N=500)
        data = aggregate_levels(st, hf)
        models = fit_level_models(data, max_order=2, criterion="fixed")
        over = assemble_overlapping(st, models, hf)
        # k=1, h=1 pooled residual variance tracks the unit innovation
        # variance of the bottom DGPs
        v = over.block(1, 1)[:, 0].var()
        assert abs(v - 1.0) < 0.15


class TestWindowKernel:
    """The three assemblers against the per-cell loops they replaced."""

    @given(data=hst.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_loops_byte_for_byte(self, data, scoring_cases):
        agg, m, _, seed, _, _ = data.draw(scoring_cases)
        st = build_cross_temporal(build_cross_sectional(agg), build_temporal(m))
        # up to 10 periods against AR orders up to 3: leading rows, or all
        # of them, lack history
        N = data.draw(hst.integers(1, 10))
        keys = [(i, k) for i in range(st.n) for k in st.te.factors]
        orders = data.draw(
            hst.lists(hst.integers(0, 3), min_size=len(keys), max_size=len(keys))
        )
        rng = np.random.default_rng(seed)
        models = {
            key: ARModel(p, rng.normal(scale=0.5, size=p), rng.normal(), 1.0)
            for key, p in zip(keys, orders)
        }
        hf = st.cs.summation @ rng.normal(size=(st.cs.n_bottom, N * m))
        levels = aggregate_levels(st, hf)
        pairs = (
            (assemble_multistep, assemble_multistep_loop, levels),
            (assemble_onestep, assemble_onestep_loop, levels),
            (assemble_overlapping, assemble_overlapping_loop, hf),
        )
        got = {}
        for kernel, loop, inputs in pairs:
            try:
                want = loop(st, models, inputs)
            except ValueError as exc:
                assert str(exc) == "not enough periods to form any residual row"
                with pytest.raises(ValueError) as raised:
                    kernel(st, models, inputs)
                assert str(raised.value) == str(exc)
                continue
            rs = kernel(st, models, inputs)
            assert rs.kind == want.kind and rs.E.shape == want.E.shape
            assert rs.E.tobytes() == want.E.tobytes()
            got[rs.kind] = rs
        # each needs (N - 1) m >= order * k for every block, so the three
        # raise together
        assert len(got) in (0, 3)
        if got:
            # every m-th row from the last is the unshifted window
            over = got["overlapping_multi_step"].E
            multi = got["multi_step"].E
            assert over[::-m][::-1].tobytes() == multi.tobytes()


    @given(data=hst.data())
    @settings(max_examples=40, deadline=None)
    def test_level_sums_match_the_per_series_functions(self, data, scoring_cases):
        # the (n, T) sums of one order and phase in one reduction have the
        # bits of the one-series functions
        agg, m, _, seed, _, _ = data.draw(scoring_cases)
        st = build_cross_temporal(build_cross_sectional(agg), build_temporal(m))
        N = data.draw(hst.integers(1, 6))
        hf = np.random.default_rng(seed).normal(scale=10.0, size=(st.n, N * m))
        levels = aggregate_levels(st, hf)
        assert list(levels) == [(i, k) for i in range(st.n) for k in st.te.factors]
        for (i, k), x in levels.items():
            assert x.tobytes() == temporally_aggregate(hf[i], k).tobytes()
        for k in st.te.factors:
            for s in range(k):
                sums = _phase_sums(hf, k, s)
                for i in range(st.n):
                    assert sums[i].tobytes() == overlapping_series(hf[i], k, s).tobytes()

    def test_one_recursion_per_order_and_phase(self, monkeypatch):
        # the assemblers and the bootstrap run every series of a temporal
        # order (and phase) in one call of the AR path kernel
        import ctreco.probabilistic as probabilistic
        import ctreco.residuals as residuals

        calls = []

        def recording(models, Y, origins, shocks, out, _real=residuals._simulate_paths):
            calls.append((len(models), Y.shape))
            return _real(models, Y, origins, shocks, out)

        monkeypatch.setattr(residuals, "_simulate_paths", recording)
        monkeypatch.setattr(probabilistic, "_simulate_paths", recording)
        cs = build_cross_sectional(np.array([[1.0, 1.0, 1.0]]))
        st = build_cross_temporal(cs, build_temporal(4))
        hf = simulate_panel(np.random.default_rng(10), st, N=12,
                            phi=((0.5, 0.2), (0.3, 0.1), (0.6, -0.2)))
        data = aggregate_levels(st, hf)
        models = fit_level_models(data, max_order=2, criterion="fixed")
        per_order = [(st.n, (st.n, 12 * 4 // k)) for k in st.te.factors]
        sets = {}
        for assemble in (assemble_onestep, assemble_multistep):
            calls.clear()
            sets[assemble] = assemble(st, models, data)
            assert calls == per_order
        calls.clear()
        assemble_overlapping(st, models, hf)
        assert calls == [(st.n, (st.n, (12 * 4 - s) // k))
                         for k in st.te.factors for s in range(k)]
        calls.clear()
        probabilistic.ctjb_sample(st, models, data, sets[assemble_onestep], L=5, seed=0)
        assert calls == per_order


class TestResidualSetValidation:
    def test_bad_kind(self):
        st = semi_annual_structure()
        with pytest.raises(ValueError):
            ResidualSet(st, np.zeros((4, 9)), "weird")

    def test_bad_width(self):
        st = semi_annual_structure()
        with pytest.raises(ValueError):
            ResidualSet(st, np.zeros((4, 8)), "multi_step")

    def test_h1_matrix_shape(self):
        st = semi_annual_structure()
        E = np.arange(36.0).reshape(4, 9)
        multi = ResidualSet(st, E, "multi_step").h1_matrix(1)
        # series 0, k=1 cells sit at columns 1 and 2 of the wide matrix;
        # a multi-step set keeps the h = 1 column, a one-step one pools both
        assert multi.shape == (4, 3)
        np.testing.assert_array_equal(multi[:, 0], E[:, 1])
        one = ResidualSet(st, E, "one_step").h1_matrix(1)
        assert one.shape == (8, 3)
        np.testing.assert_array_equal(one[:, 0], E[:, 1:3].reshape(-1))
        for kind in ("one_step", "multi_step"):
            rs = ResidualSet(st, E, kind)
            for k in (2, 1):
                h1 = rs.h1_matrix(k)
                assert h1.flags.c_contiguous
                assert h1.tobytes() == h1_matrix_stacked(rs, k).tobytes()

    @given(data=hst.data())
    @settings(max_examples=40, deadline=None)
    def test_h1_mean_squares_match_the_block_loop(self, data, scoring_cases):
        # one mean per order over contiguous series rows sums in the order
        # of each block's 1-D mean
        agg, m, _, seed, _, _ = data.draw(scoring_cases)
        st = build_cross_temporal(build_cross_sectional(agg), build_temporal(m))
        rng = np.random.default_rng(seed)
        E = rng.normal(size=(data.draw(hst.integers(1, 40)), st.dim))
        E *= rng.uniform(0.1, 10.0, st.dim)
        for kind in ("one_step", "multi_step"):
            rs = ResidualSet(st, E, kind)
            diag = rs.h1_mean_squares
            assert not diag.flags.writeable
            assert diag.tobytes() == h1_mean_squares_loop(rs).tobytes()

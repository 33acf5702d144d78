"""Tests for the expanding-window pipeline."""

import numpy as np
import pytest

from ctreco.evaluate import METHODS, SAMPLERS
from ctreco.exceptions import ValidationError
from ctreco.io import ingest
from ctreco.pipeline import (
    PipelineConfig,
    build_manifest,
    origin_indices,
    run_pipeline,
)


class TestOriginIndices:
    def test_unit_period_counts(self):
        # m = 1: origin count is exactly N - first_window
        origins = origin_indices(n_obs=40, m=1, first_window=10, step=1)
        assert len(origins) == 30
        assert origins[0] == 10 and origins[-1] == 39

    def test_quarterly_counts(self):
        origins = origin_indices(n_obs=64, m=4, first_window=10, step=1)
        # from 40 to 60 inclusive, one quarter at a time
        assert origins == list(range(40, 61))

    def test_step_in_periods(self):
        origins = origin_indices(n_obs=64, m=4, first_window=10, step=4)
        assert origins == [40, 44, 48, 52, 56, 60]

    def test_no_room_for_test_period(self):
        with pytest.raises(ValidationError, match="no test data"):
            origin_indices(n_obs=20, m=4, first_window=5, step=1)


class TestPipelineConfig:
    def test_defaults_valid(self):
        PipelineConfig()

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            PipelineConfig(methods=("base", "nope"))

    def test_accepts_exactly_the_registry(self):
        cfg = PipelineConfig(methods=METHODS, samplers=SAMPLERS)
        assert (cfg.methods, cfg.samplers) == (METHODS, SAMPLERS)
        for name in ("oct", "ct-cs-bu-te", "ct-te-bu-cs", "shr", "gauss-sam"):
            with pytest.raises(ValidationError, match=f"unknown method '{name}'"):
                PipelineConfig(methods=("base", name))
            with pytest.raises(ValidationError, match=f"unknown sampler '{name}'"):
                PipelineConfig(samplers=("ctjb", name))

    def test_repeated_names(self):
        with pytest.raises(ValidationError, match="repeated method 'base'"):
            PipelineConfig(methods=("base", "oct-wlsv", "base"))
        with pytest.raises(ValidationError, match="repeated sampler 'ctjb'"):
            PipelineConfig(samplers=("ctjb", "ctjb"))

    def test_benchmark_must_be_in_grid(self):
        with pytest.raises(ValidationError, match="benchmark"):
            PipelineConfig(benchmark="oct-bdshr@ctjb")


class TestRunPipeline:
    def make(self, toy_files, **kw):
        ds = ingest(toy_files["data"], toy_files["hierarchy"])
        defaults = dict(
            methods=("base", "ct-bu", "oct-wlsv"),
            samplers=("ctjb",),
            L=40,
            seed=11,
            first_window=25,
            origin_step=2,
            max_order=2,
        )
        defaults.update(kw)
        return ds, PipelineConfig(**defaults)

    def test_shapes_and_origin_count(self, toy_files):
        ds, cfg = self.make(toy_files)
        res = run_pipeline(ds, cfg)
        # T=80, m=2: origins 50, 52, ..., 78
        assert res.origins == tuple(range(50, 79, 2))
        assert res.raw_crps.shape == (3, 1, 3, 2)
        assert set(res.reports) == {
            "base@ctjb", "ct-bu@ctjb", "oct-wlsv@ctjb"
        }

    def test_benchmark_row_is_one(self, toy_files):
        ds, cfg = self.make(toy_files)
        res = run_pipeline(ds, cfg)
        rep = res.reports["base@ctjb"]
        assert rep.avg_rel_crps_overall == pytest.approx(1.0)
        assert rep.avg_rel_es_overall == pytest.approx(1.0)

    def test_deterministic(self, toy_files):
        ds, cfg = self.make(toy_files)
        a = run_pipeline(ds, cfg)
        b = run_pipeline(ds, cfg)
        np.testing.assert_array_equal(a.raw_crps, b.raw_crps)
        np.testing.assert_array_equal(a.raw_es, b.raw_es)

    def test_parallel_matches_serial(self, toy_files):
        ds, cfg1 = self.make(toy_files)
        _, cfg2 = self.make(toy_files, jobs=2)
        np.testing.assert_array_equal(
            run_pipeline(ds, cfg1).raw_crps, run_pipeline(ds, cfg2).raw_crps
        )

    def test_rank_comparison_levels_and_labels(self, toy_files):
        ds, cfg = self.make(toy_files, samplers=("ctjb", "gauss-g"))
        res = run_pipeline(ds, cfg)
        mcb = res.rank_comparison()
        assert set(mcb) == {2, 1, "all"}
        assert mcb["all"]["labels"] == [
            "base@ctjb", "base@gauss-g", "ct-bu@ctjb", "ct-bu@gauss-g",
            "oct-wlsv@ctjb", "oct-wlsv@gauss-g",
        ]
        assert mcb["all"]["mean_ranks"].shape == (6,)
        assert 0.0 <= mcb["all"]["friedman_p"] <= 1.0

    def test_rank_comparison_matches_manual_scores(self, toy_files):
        from ctreco.scoring import mcb_nemenyi

        ds, cfg = self.make(toy_files)
        res = run_pipeline(ds, cfg)
        # "all" level: mean CRPS over series and orders per origin/cell
        manual = res.origin_crps.reshape(len(res.origins), 3, -1).mean(axis=2)
        expected = mcb_nemenyi(manual)
        got = res.rank_comparison()["all"]
        np.testing.assert_allclose(got["mean_ranks"], expected["mean_ranks"])

    def test_gaussian_sampler_and_overlapping(self, toy_files):
        ds, cfg = self.make(
            toy_files,
            samplers=("ctjb", "gauss-g"),
            residuals="overlapping_multi_step",
            first_window=30,
        )
        res = run_pipeline(ds, cfg)
        assert res.raw_crps.shape[1] == 2
        assert np.all(res.raw_crps > 0)


class TestManifest:
    def test_json_stable_and_complete(self, toy_files):
        cfg = PipelineConfig()
        man = build_manifest(
            cfg, seed=3, input_paths=[toy_files["data"]], origins=7,
            started=0.0,
        )
        payload = man.to_json()
        assert '"seed": 3' in payload
        assert '"origins": 7' in payload
        # digest present and hex
        digest = list(man.inputs.values())[0]
        assert len(digest) == 64 and int(digest, 16) >= 0

"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from ctreco.cli import main
from ctreco.io import load_hierarchy, read_stacked_csv, write_stacked_csv


def run(args):
    return main([str(a) for a in args])


class TestSample:
    def test_ctjb_samples_written(self, toy_files):
        out = toy_files["tmp"] / "out"
        rc = run(
            ["--seed", 5, "--output-dir", out, "sample", toy_files["data"],
             "--hierarchy", toy_files["hierarchy"], "--L", 25]
        )
        assert rc == 0
        st, names = load_hierarchy(toy_files["hierarchy"])
        draws = read_stacked_csv(out / "samples.csv", st, names)
        assert draws.shape == (25, st.dim)

    def test_gaussian_cov_variant(self, toy_files):
        out = toy_files["tmp"] / "out2"
        rc = run(
            ["--seed", 5, "--output-dir", out, "sample", toy_files["data"],
             "--hierarchy", toy_files["hierarchy"], "--method", "gaussian",
             "--cov", "hb", "--L", 10]
        )
        assert rc == 0

    def test_cov_g_draws_as_the_gauss_g_sampler(self, toy_files):
        written = []
        for cov in ("g", "sam"):
            out = toy_files["tmp"] / f"cov-{cov}"
            rc = run(
                ["--seed", 5, "--output-dir", out, "sample", toy_files["data"],
                 "--hierarchy", toy_files["hierarchy"], "--method", "gaussian",
                 "--cov", cov, "--L", 10]
            )
            assert rc == 0
            written.append((out / "samples.csv").read_bytes())
        assert written[0] == written[1]

    def test_export_residuals(self, toy_files):
        out = toy_files["tmp"] / "out3"
        rc = run(
            ["--output-dir", out, "sample", toy_files["data"],
             "--hierarchy", toy_files["hierarchy"], "--L", 10,
             "--export-residuals"]
        )
        assert rc == 0
        st, names = load_hierarchy(toy_files["hierarchy"])
        res = read_stacked_csv(out / "residuals.csv", st, names)
        assert res.shape[1] == st.dim

    def test_seed_reproducible_bytes(self, toy_files):
        outs = []
        for name in ("a", "b"):
            out = toy_files["tmp"] / name
            run(
                ["--seed", 7, "--output-dir", out, "sample", toy_files["data"],
                 "--hierarchy", toy_files["hierarchy"], "--L", 12]
            )
            outs.append((out / "samples.csv").read_bytes())
        assert outs[0] == outs[1]


GOLDENS = Path(__file__).resolve().parent / "goldens"


class TestReconcile:
    def make_samples(self, toy_files, L=20):
        out = toy_files["tmp"] / "s"
        run(
            ["--seed", 3, "--output-dir", out, "sample", toy_files["data"],
             "--hierarchy", toy_files["hierarchy"], "--L", L]
        )
        return out / "samples.csv"

    @pytest.mark.parametrize("lam", ["auto", "0"])
    @pytest.mark.parametrize("omega", ["hb", "h", "b"])
    def test_structured_omegas_write_coherent_rows(self, tmp_path, omega, lam):
        # the golden inputs with the golden ctjb draws and residuals
        hierarchy = GOLDENS / "inputs" / "hierarchy.json"
        rc = run(
            ["--output-dir", tmp_path, "reconcile",
             GOLDENS / "sample-ctjb" / "samples.csv", "--hierarchy", hierarchy,
             "--method", "oct", "--omega", omega, "--lambda", lam,
             "--residuals", GOLDENS / "sample-ctjb" / "residuals.csv",
             "--residual-kind", "multi-step"]
        )
        assert rc == 0
        st, names = load_hierarchy(hierarchy)
        rows = read_stacked_csv(tmp_path / "reconciled.csv", st, names)
        gaps = np.abs(rows @ st.constraints.T).max(axis=1) / np.abs(rows).max(axis=1)
        assert gaps.max() <= 1e-12

    def test_oct_ols_outputs_coherent_rows(self, toy_files):
        samples = self.make_samples(toy_files)
        out = toy_files["tmp"] / "r"
        rc = run(
            ["--output-dir", out, "reconcile", samples,
             "--hierarchy", toy_files["hierarchy"], "--method", "oct",
             "--omega", "ols"]
        )
        assert rc == 0
        st, names = load_hierarchy(toy_files["hierarchy"])
        rows = read_stacked_csv(out / "reconciled.csv", st, names)
        for row in rows:
            assert st.is_coherent(row)

    def test_residual_based_omega(self, toy_files):
        # export residuals by running sample first, then feed wlsv
        import ctreco.io as io
        from ctreco.residuals import (
            aggregate_levels,
            assemble_onestep,
            fit_level_models,
        )

        st, names = load_hierarchy(toy_files["hierarchy"])
        ds = io.ingest(toy_files["data"], toy_files["hierarchy"])
        data = aggregate_levels(st, ds.values)
        models = fit_level_models(data, max_order=2)
        rs = assemble_onestep(st, models, data)
        res_path = toy_files["tmp"] / "residuals.csv"
        io.write_residuals_csv(res_path, rs, names)

        samples = self.make_samples(toy_files)
        out = toy_files["tmp"] / "r2"
        rc = run(
            ["--output-dir", out, "reconcile", samples,
             "--hierarchy", toy_files["hierarchy"], "--method", "oct",
             "--omega", "wlsv", "--residuals", res_path,
             "--residual-kind", "one-step"]
        )
        assert rc == 0

    def test_nonneg_flag(self, toy_files):
        samples = self.make_samples(toy_files)
        out = toy_files["tmp"] / "r3"
        rc = run(
            ["--output-dir", out, "reconcile", samples,
             "--hierarchy", toy_files["hierarchy"], "--method", "ct-bu",
             "--nonneg"]
        )
        assert rc == 0
        st, names = load_hierarchy(toy_files["hierarchy"])
        rows = read_stacked_csv(out / "reconciled.csv", st, names)
        assert np.all(rows >= 0)

    def test_export_omega_cache(self, toy_files):
        import json as js

        samples = self.make_samples(toy_files)
        out = toy_files["tmp"] / "r_omega"
        rc = run(
            ["--output-dir", out, "reconcile", samples,
             "--hierarchy", toy_files["hierarchy"], "--method", "oct",
             "--omega", "struc", "--export-omega"]
        )
        assert rc == 0
        payload = js.loads((out / "omega.json").read_text())
        assert payload["kind"] == "struc"
        dense = np.loadtxt(out / "omega.csv", delimiter=",")
        assert dense.shape == (9, 9)

    def test_export_omega_builds_the_covariance_once(self, toy_files, monkeypatch):
        import ctreco.evaluate as evaluate

        calls = []
        real = evaluate.build_omega

        def counting(*args, **kwargs):
            calls.append(args[0].kind)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluate, "build_omega", counting)
        samples = self.make_samples(toy_files)
        rc = run(
            ["--output-dir", toy_files["tmp"] / "r_once", "reconcile", samples,
             "--hierarchy", toy_files["hierarchy"], "--method", "oct",
             "--omega", "struc", "--export-omega"]
        )
        assert rc == 0
        assert calls == ["struc"]

    def test_export_omega_needs_method_oct(self, toy_files, capsys):
        out = toy_files["tmp"] / "r_no_omega"
        rc = run(
            ["--output-dir", out, "reconcile", self.make_samples(toy_files),
             "--hierarchy", toy_files["hierarchy"], "--method", "ct-bu",
             "--export-omega"]
        )
        assert rc == 2
        assert "--export-omega" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_partly_bottom_up_method(self, toy_files):
        samples = self.make_samples(toy_files)
        out = toy_files["tmp"] / "r4"
        rc = run(
            ["--output-dir", out, "reconcile", samples,
             "--hierarchy", toy_files["hierarchy"], "--method", "ct-cs-bu-te",
             "--omega", "ols"]
        )
        assert rc == 0

    @pytest.mark.parametrize("method", ["oct", "ct-cs-bu-te"])
    def test_struc_with_an_all_zero_aggregation_row_exits_2(
            self, tmp_path, capsys, method):
        # the composite's cross-sectional step weights as oct-struc does
        hierarchy = tmp_path / "hierarchy.json"
        hierarchy.write_text(json.dumps({"agg_matrix": [[1.0, 1.0], [0.0, 0.0]],
                                         "m": 2, "series_names": ["A", "Z", "B", "C"]}))
        st, names = load_hierarchy(hierarchy)
        base = tmp_path / "base.csv"
        write_stacked_csv(base, st, names,
                          np.random.default_rng(0).normal(size=(3, st.dim)))
        rc = run(["--output-dir", tmp_path / "out", "reconcile", base,
                  "--hierarchy", hierarchy, "--method", method, "--omega", "struc"])
        assert rc == 2
        assert ("covariance kind 'struc' weights each cell by S 1, which is <= 0 "
                "for series [1]") in capsys.readouterr().err

    def test_sam_with_too_few_residual_rows_exits_3(self, toy_files, capsys):
        import ctreco.io as io
        from ctreco.residuals import ResidualSet

        st, names = load_hierarchy(toy_files["hierarchy"])
        rng = np.random.default_rng(0)
        rs = ResidualSet(st, rng.normal(size=(4, st.dim)), "multi_step")
        res_path = toy_files["tmp"] / "thin.csv"
        io.write_residuals_csv(res_path, rs, names)
        samples = self.make_samples(toy_files)
        rc = run(
            ["--output-dir", toy_files["tmp"] / "r5", "reconcile", samples,
             "--hierarchy", toy_files["hierarchy"], "--method", "oct",
             "--omega", "sam", "--residuals", res_path,
             "--residual-kind", "multi-step"]
        )
        assert rc == 3
        assert "numerical error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, toy_files, capsys):
        rc = run(
            ["reconcile", toy_files["tmp"] / "does_not_exist.csv",
             "--hierarchy", toy_files["hierarchy"]]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestNonFiniteInputs:
    """A non-finite cell is rejected where the file is read, naming its
    file and line, for every reconcile method, for the dataset of sample
    and pipeline and for score."""

    HIERARCHY = GOLDENS / "inputs" / "hierarchy.json"

    @staticmethod
    def with_nan(src, dst, line, column):
        lines = Path(src).read_text().splitlines()
        cells = lines[line - 1].split(",")
        cells[lines[0].split(",").index(column)] = "nan"
        lines[line - 1] = ",".join(cells)
        dst.write_text("\n".join(lines) + "\n")
        return dst

    @pytest.mark.parametrize("method", ["ct-bu", "ct-cs-bu-te", "ct-te-bu-cs", "oct"])
    def test_reconcile_exits_2(self, tmp_path, capsys, method):
        base = self.with_nan(GOLDENS / "sample-ctjb" / "samples.csv",
                             tmp_path / "base.csv", 4, "series:B1|k:1|h:1")
        out = tmp_path / "out"
        rc = run(["--output-dir", out, "reconcile", base,
                  "--hierarchy", self.HIERARCHY, "--method", method])
        assert rc == 2
        assert f"{base}:4: non-finite value 'nan'" in capsys.readouterr().err
        assert not (out / "reconciled.csv").exists()

    @pytest.mark.parametrize("command,data", [("sample", "train.csv"),
                                              ("pipeline", "data.csv")])
    def test_dataset_commands_exit_2(self, tmp_path, capfd, command, data):
        # fd-level capture: LAPACK prints its DLASCL lines there
        path = self.with_nan(GOLDENS / "inputs" / data, tmp_path / data, 5, "B2")
        rc = run(["--output-dir", tmp_path / "out", command, path,
                  "--hierarchy", self.HIERARCHY])
        out, err = capfd.readouterr()
        assert rc == 2
        assert f"{path}:5: non-finite value 'nan' in column 'B2'" in err
        assert "DLASCL" not in out + err

    def test_score_exits_2(self, tmp_path, capsys):
        obs = self.with_nan(GOLDENS / "inputs" / "observed.csv",
                            tmp_path / "obs.csv", 2, "series:T|k:4|h:1")
        out = tmp_path / "out"
        rc = run(["--output-dir", out, "score", "--samples",
                  f"ctjb={GOLDENS / 'sample-ctjb' / 'samples.csv'}",
                  "--observations", obs, "--hierarchy", self.HIERARCHY,
                  "--benchmark", "ctjb"])
        assert rc == 2
        assert f"{obs}:2: non-finite value 'nan'" in capsys.readouterr().err
        assert not (out / "scores.csv").exists()


class TestScore:
    def test_score_two_sample_files(self, toy_files):
        st, names = load_hierarchy(toy_files["hierarchy"])
        tmp = toy_files["tmp"]
        for label, seed in (("one", 1), ("two", 2)):
            run(
                ["--seed", seed, "--output-dir", tmp / label, "sample",
                 toy_files["data"], "--hierarchy", toy_files["hierarchy"],
                 "--L", 30]
            )
        # observation: one stacked row (use the dataset's last period)
        import ctreco.io as io
        from ctreco.hierarchy import stack_window

        ds = io.ingest(toy_files["data"], toy_files["hierarchy"])
        z = stack_window(st, ds.values[:, -2:])
        obs_path = tmp / "obs.csv"
        io.write_stacked_csv(obs_path, st, names, z[None, :])
        out = tmp / "scored"
        rc = run(
            ["--output-dir", out, "score",
             "--samples", f"one={tmp / 'one' / 'samples.csv'}",
             "--samples", f"two={tmp / 'two' / 'samples.csv'}",
             "--observations", obs_path,
             "--hierarchy", toy_files["hierarchy"],
             "--benchmark", "one"]
        )
        assert rc == 0
        text = (out / "scores.csv").read_text().strip().split("\n")
        assert text[0].startswith("label,benchmark,avg_rel_crps_k2")
        one_row = [l for l in text if l.startswith("one,")][0]
        vals = one_row.split(",")[2:]
        assert all(float(v) == pytest.approx(1.0) for v in vals)

    def test_json_format(self, toy_files):
        st, names = load_hierarchy(toy_files["hierarchy"])
        tmp = toy_files["tmp"]
        run(
            ["--seed", 1, "--output-dir", tmp / "s1", "sample",
             toy_files["data"], "--hierarchy", toy_files["hierarchy"],
             "--L", 20]
        )
        import ctreco.io as io
        from ctreco.hierarchy import stack_window

        ds = io.ingest(toy_files["data"], toy_files["hierarchy"])
        z = stack_window(st, ds.values[:, -2:])
        obs_path = tmp / "obs.csv"
        io.write_stacked_csv(obs_path, st, names, z[None, :])
        out = tmp / "scored_json"
        rc = run(
            ["--format", "json", "--output-dir", out, "score",
             "--samples", f"only={tmp / 's1' / 'samples.csv'}",
             "--observations", obs_path,
             "--hierarchy", toy_files["hierarchy"], "--benchmark", "only"]
        )
        assert rc == 0
        payload = json.loads((out / "scores.json").read_text())
        assert payload["only"]["avg_rel_crps_overall"] == pytest.approx(1.0)

    def test_repeated_samples_label_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run(["--output-dir", out, "score",
                  "--samples", f"a={GOLDENS / 'sample-ctjb' / 'samples.csv'}",
                  "--samples", f"a={GOLDENS / 'sample-gaussian' / 'samples.csv'}",
                  "--observations", GOLDENS / "inputs" / "observed.csv",
                  "--hierarchy", GOLDENS / "inputs" / "hierarchy.json",
                  "--benchmark", "a"])
        assert rc == 2
        assert "repeated --samples label 'a'" in capsys.readouterr().err
        assert not (out / "scores.csv").exists()

    def test_unknown_benchmark_exits_2(self, toy_files, capsys):
        # the labels are checked before any sample file is read or scored
        st, names = load_hierarchy(toy_files["hierarchy"])
        obs_path = toy_files["tmp"] / "obs.csv"
        write_stacked_csv(obs_path, st, names, np.ones((1, st.dim)))
        rc = run(
            ["score", "--samples", f"a={toy_files['tmp'] / 'missing.csv'}",
             "--observations", obs_path,
             "--hierarchy", toy_files["hierarchy"], "--benchmark", "zzz"]
        )
        assert rc == 2
        assert "benchmark 'zzz' not among samples ['a']" in capsys.readouterr().err


class TestSimulate:
    def test_small_run_writes_tables(self, toy_files):
        out = toy_files["tmp"] / "sim"
        grid = toy_files["tmp"] / "grid.json"
        grid.write_text(
            json.dumps(
                {"methods": ["base", "ct-bu"], "samplers": ["ctjb", "gauss-hb"]}
            )
        )
        rc = run(
            ["--seed", 9, "--output-dir", out, "simulate",
             "--replicates", 2, "--years", 40, "--L", 30,
             "--max-order", 2, "--grid", grid]
        )
        assert rc == 0
        frob = (out / "frobenius.csv").read_text().strip().split("\n")
        assert frob[0] == "method,ctjb,gauss-hb"
        assert len(frob) == 3
        crps_lines = (out / "avg_rel_crps.csv").read_text().strip().split("\n")
        assert crps_lines[0] == "level,method,ctjb,gauss-hb"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["config"]["replicates"] == 2


    def test_unknown_grid_method_exits_2(self, toy_files, capsys):
        grid = toy_files["tmp"] / "grid.json"
        grid.write_text(json.dumps({"methods": ["base", "magic"]}))
        rc = run(
            ["--output-dir", toy_files["tmp"] / "sim", "simulate",
             "--replicates", 1, "--years", 40, "--L", 20, "--grid", grid]
        )
        assert rc == 2
        assert "unknown method 'magic'" in capsys.readouterr().err

    def test_repeated_grid_sampler_exits_2(self, toy_files, capsys):
        grid = toy_files["tmp"] / "grid.json"
        grid.write_text(json.dumps({"samplers": ["ctjb", "gauss-hb", "ctjb"]}))
        rc = run(
            ["--output-dir", toy_files["tmp"] / "sim", "simulate",
             "--replicates", 1, "--years", 40, "--L", 20, "--grid", grid]
        )
        assert rc == 2
        assert "repeated sampler 'ctjb'" in capsys.readouterr().err


class TestPipelineCommand:
    def test_report_and_manifest(self, toy_files):
        out = toy_files["tmp"] / "pipe"
        rc = run(
            ["--seed", 4, "--output-dir", out, "pipeline", toy_files["data"],
             "--hierarchy", toy_files["hierarchy"],
             "--methods", "base,ct-bu", "--samplers", "ctjb",
             "--L", 25, "--first-window", 30, "--origin-step", 4,
             "--max-order", 2]
        )
        assert rc == 0
        report = (out / "pipeline_report.csv").read_text().strip().split("\n")
        assert len(report) == 3  # header + 2 method rows
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["origins"] == len(range(60, 79, 4))

    def test_mcb_table_written(self, toy_files):
        out = toy_files["tmp"] / "pipe_mcb"
        rc = run(
            ["--seed", 4, "--output-dir", out, "pipeline", toy_files["data"],
             "--hierarchy", toy_files["hierarchy"],
             "--methods", "base,ct-bu,oct-wlsv", "--samplers", "ctjb",
             "--L", 25, "--first-window", 30, "--origin-step", 4,
             "--max-order", 2]
        )
        assert rc == 0
        lines = (out / "mcb_nemenyi.csv").read_text().strip().split("\n")
        assert lines[0].startswith("level,label,mean_rank")
        # 3 levels (2, 1, all) x 3 cells
        assert len(lines) == 1 + 3 * 3

    def test_rerun_byte_identical(self, toy_files):
        texts = []
        for name in ("p1", "p2"):
            out = toy_files["tmp"] / name
            rc = run(
                ["--seed", 4, "--output-dir", out, "pipeline",
                 toy_files["data"], "--hierarchy", toy_files["hierarchy"],
                 "--methods", "base,ct-bu", "--samplers", "ctjb",
                 "--L", 20, "--first-window", 32, "--origin-step", 6,
                 "--max-order", 2]
            )
            assert rc == 0
            texts.append((out / "pipeline_report.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_bad_dataset_exits_2(self, toy_files, capsys):
        text = toy_files["data"].read_text().strip().split("\n")
        bad = toy_files["tmp"] / "bad.csv"
        bad.write_text("\n".join(text[:-1]) + "\n")
        rc = run(
            ["pipeline", bad, "--hierarchy", toy_files["hierarchy"]]
        )
        assert rc == 2
        assert "not divisible" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [4.7, True, "2"])
    def test_non_integer_m_exits_2(self, toy_files, capsys, m):
        hierarchy = toy_files["tmp"] / "bad_m.json"
        hierarchy.write_text(json.dumps({"agg_matrix": [[1.0, 1.0]], "m": m}))
        rc = run(
            ["--output-dir", toy_files["tmp"] / "pipe", "pipeline",
             toy_files["data"], "--hierarchy", hierarchy,
             "--methods", "base,ct-bu", "--samplers", "ctjb"]
        )
        assert rc == 2
        assert f"'m' must be a whole number, got {m!r}" in capsys.readouterr().err

    def test_repeated_method_exits_2(self, toy_files, capsys):
        rc = run(
            ["--output-dir", toy_files["tmp"] / "pipe", "pipeline",
             toy_files["data"], "--hierarchy", toy_files["hierarchy"],
             "--methods", "base,base,oct-wlsv", "--samplers", "ctjb"]
        )
        assert rc == 2
        assert "repeated method 'base'" in capsys.readouterr().err
        assert not (toy_files["tmp"] / "pipe" / "mcb_nemenyi.csv").exists()

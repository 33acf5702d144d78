"""Tests for file formats and dataset ingestion."""

import json
import re

import numpy as np
import pytest

from ctreco.covariance import CovarianceMatrix, CovarianceSpec, build_omega
from ctreco.exceptions import ValidationError
from ctreco.hierarchy import build_cross_sectional, build_cross_temporal, build_temporal
from ctreco.io import (
    covariance_from_json,
    covariance_to_json,
    ingest,
    load_hierarchy,
    read_residuals_csv,
    read_stacked_csv,
    stacked_labels,
    write_covariance_csv,
    write_residuals_csv,
    write_stacked_csv,
)
from ctreco.residuals import ResidualSet


def make_structure():
    cs = build_cross_sectional(np.array([[1.0, 1.0]]))
    return build_cross_temporal(cs, build_temporal(2))


class TestHierarchyFile:
    def test_load(self, toy_files):
        structure, names = load_hierarchy(toy_files["hierarchy"])
        assert names == ["A", "B", "C"]
        assert structure.te.m == 2
        assert structure.dim == 9

    def test_generated_names(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"agg_matrix": [[1, 1]], "m": 2}))
        _, names = load_hierarchy(path)
        assert names == ["s0", "s1", "s2"]

    def test_name_count_mismatch(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(
            json.dumps({"agg_matrix": [[1, 1]], "m": 2, "series_names": ["x"]})
        )
        with pytest.raises(ValidationError, match="names"):
            load_hierarchy(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="JSON"):
            load_hierarchy(path)

    def test_whole_float_m_is_accepted(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"agg_matrix": [[1, 1]], "m": 4.0}))
        st, _ = load_hierarchy(path)
        assert st.te.m == 4

    @pytest.mark.parametrize("agg", [
        [[True, False, 1]],  # JSON booleans
        [[1, 1, "1"]],  # a numeric string
        [[1, None, 1]],  # null
        [[1, 1, 1], [1, 1]],  # ragged rows
        [[1, 1], 1],  # a row beside a number
        5,
    ])
    def test_agg_matrix_holds_only_rows_of_numbers(self, tmp_path, agg):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"agg_matrix": agg, "m": 2}))
        with pytest.raises(ValidationError, match="'agg_matrix' must be"):
            load_hierarchy(path)

    def test_agg_matrix_may_be_one_row(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"agg_matrix": [1, 0.5], "m": 2}))
        st, _ = load_hierarchy(path)
        np.testing.assert_array_equal(st.cs.agg, [[1.0, 0.5]])

    @pytest.mark.parametrize("names", ["ABC", {"A": 0, "B": 1, "C": 2}])
    def test_series_names_must_be_a_list(self, tmp_path, names):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"agg_matrix": [[1, 1]], "m": 2,
                                    "series_names": names}))
        with pytest.raises(ValidationError, match="must be a list of 3 names"):
            load_hierarchy(path)

    @pytest.mark.parametrize("bad", [1, "a|b", "a,b", 'a"b', "a\nb", " a", "b\t"])
    def test_names_a_stacked_csv_cannot_read_back_are_rejected(self, tmp_path, bad):
        path = tmp_path / "h.json"
        names = [bad, "x", "y"]
        path.write_text(json.dumps({"agg_matrix": [[1, 1]], "m": 2,
                                    "series_names": names}))
        with pytest.raises(ValidationError, match=re.escape(f"series name {bad!r}")):
            load_hierarchy(path)

    def test_names_round_trip_through_a_stacked_csv(self, tmp_path):
        path = tmp_path / "h.json"
        names = ["New South Wales", "a:b", "x'y"]
        path.write_text(json.dumps({"agg_matrix": [[1, 1]], "m": 2,
                                    "series_names": names}))
        st, loaded = load_hierarchy(path)
        assert loaded == names
        rows = np.arange(2.0 * st.dim).reshape(2, st.dim)
        write_stacked_csv(tmp_path / "x.csv", st, names, rows)
        assert read_stacked_csv(tmp_path / "x.csv", st, names).tobytes() == rows.tobytes()

    def test_duplicate_series_names(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"agg_matrix": [[1, 1]], "m": 2,
                                    "series_names": ["A", "B", "A"]}))
        with pytest.raises(ValidationError, match="h.json: duplicate series names"):
            load_hierarchy(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"m": 4}))
        with pytest.raises(ValidationError, match="agg_matrix"):
            load_hierarchy(path)


class TestStackedCsv:
    def test_round_trip(self, tmp_path):
        st = make_structure()
        names = ["A", "B", "C"]
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(5, st.dim))
        path = tmp_path / "x.csv"
        write_stacked_csv(path, st, names, rows)
        back = read_stacked_csv(path, st, names)
        np.testing.assert_allclose(back, rows, rtol=1e-12)

    def test_header_grammar(self, tmp_path):
        st = make_structure()
        labels = stacked_labels(st, ["A", "B", "C"])
        assert labels[0] == "series:A|k:2|h:1"
        assert labels[1] == "series:A|k:1|h:1"
        assert labels[-1] == "series:C|k:1|h:2"

    def test_shuffled_columns_are_permuted_back(self, tmp_path):
        st = make_structure()
        names = ["A", "B", "C"]
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(2, st.dim))
        path = tmp_path / "x.csv"
        write_stacked_csv(path, st, names, rows)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        perm = rng.permutation(st.dim)
        shuffled = [",".join(header[c] for c in perm)]
        for line in lines[1:]:
            vals = line.split(",")
            shuffled.append(",".join(vals[c] for c in perm))
        path.write_text("\n".join(shuffled) + "\n")
        back = read_stacked_csv(path, st, names)
        np.testing.assert_allclose(back, rows, rtol=1e-12)

    def test_unknown_series(self, tmp_path):
        st = make_structure()
        path = tmp_path / "x.csv"
        write_stacked_csv(path, st, ["A", "B", "C"], np.zeros((1, st.dim)))
        with pytest.raises(ValidationError, match="unknown series"):
            read_stacked_csv(path, st, ["A", "B", "D"])

    def test_bad_float_reports_line(self, tmp_path):
        st = make_structure()
        path = tmp_path / "x.csv"
        write_stacked_csv(path, st, ["A", "B", "C"], np.zeros((2, st.dim)))
        text = path.read_text().replace("0,0", "0,oops", 1)
        path.write_text(text)
        with pytest.raises(ValidationError, match=":2"):
            read_stacked_csv(path, st, ["A", "B", "C"])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_line_and_column(self, tmp_path, bad):
        st = make_structure()
        path = tmp_path / "x.csv"
        write_stacked_csv(path, st, ["A", "B", "C"], np.zeros((2, st.dim)))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("0.0", bad, 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=(
                rf":3: non-finite value '{bad}' in column 'series:A\|k:2\|h:1'")):
            read_stacked_csv(path, st, ["A", "B", "C"])

    def test_bad_label(self, tmp_path):
        st = make_structure()
        path = tmp_path / "x.csv"
        path.write_text("series:A|k:2\n1\n")
        with pytest.raises(ValidationError, match="bad column label"):
            read_stacked_csv(path, st, ["A", "B", "C"])

    def test_blank_rows_are_skipped(self, tmp_path):
        st = make_structure()
        path = tmp_path / "x.csv"
        rows = np.arange(2 * st.dim, dtype=float).reshape(2, st.dim)
        write_stacked_csv(path, st, ["A", "B", "C"], rows)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[1], "", "  ", lines[2]]) + "\n")
        np.testing.assert_array_equal(read_stacked_csv(path, st, ["A", "B", "C"]), rows)

    @pytest.mark.parametrize("text,message", [
        ("", "x.csv: empty file"),
        ("header", "x.csv: no data rows"),
        ("value count", "x.csv:3: 8 values, expected 9"),
    ])
    def test_rows_are_checked(self, tmp_path, text, message):
        st = make_structure()
        path = tmp_path / "x.csv"
        write_stacked_csv(path, st, ["A", "B", "C"], np.zeros((2, st.dim)))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text({"": "", "header": lines[0] + "\n",
                         "value count": "\n".join(lines) + "\n"}[text])
        with pytest.raises(ValidationError, match=re.escape(message)):
            read_stacked_csv(path, st, ["A", "B", "C"])

    @pytest.mark.parametrize("label,message", [
        ("series:A|k:3|h:1", "x.csv: 3 is not a factor of m=2"),
        ("series:A|k:1|h:3", "x.csv: position 2 out of range for k=1"),
        ("series:A|k:2|h:1", "x.csv: duplicate column 'series:A|k:2|h:1'"),
    ])
    def test_a_label_outside_the_layout_or_repeated(self, tmp_path, label, message):
        # the label replaces the last column, C's second high-frequency cell
        st = make_structure()
        path = tmp_path / "x.csv"
        write_stacked_csv(path, st, ["A", "B", "C"], np.zeros((1, st.dim)))
        lines = path.read_text().splitlines()
        lines[0] = lines[0].rsplit(",", 1)[0] + "," + label
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=re.escape(message)):
            read_stacked_csv(path, st, ["A", "B", "C"])

    def test_missing_columns(self, tmp_path):
        st = make_structure()
        path = tmp_path / "x.csv"
        path.write_text("series:A|k:2|h:1\n1.0\n")
        with pytest.raises(ValidationError, match="expected 9"):
            read_stacked_csv(path, st, ["A", "B", "C"])


class TestResidualCsv:
    def test_round_trip_preserves_kind_and_layout(self, tmp_path):
        st = make_structure()
        rng = np.random.default_rng(2)
        rs = ResidualSet(st, rng.normal(size=(7, st.dim)), "multi_step")
        path = tmp_path / "res.csv"
        write_residuals_csv(path, rs, ["A", "B", "C"])
        back = read_residuals_csv(path, st, ["A", "B", "C"], "multi_step")
        np.testing.assert_allclose(back.E, rs.E, rtol=1e-12)
        assert back.kind == "multi_step"


class TestCovarianceSerialisation:
    def test_csv(self, tmp_path):
        st = make_structure()
        rng = np.random.default_rng(3)
        A = rng.normal(size=(st.dim, st.dim))
        cov = CovarianceMatrix(A @ A.T, CovarianceSpec("sam"))
        path = tmp_path / "cov.csv"
        write_covariance_csv(path, cov)
        back = np.loadtxt(path, delimiter=",")
        np.testing.assert_allclose(back, cov.values, rtol=1e-10)

    def test_json_round_trip(self):
        st = make_structure()
        rng = np.random.default_rng(4)
        A = rng.normal(size=(st.dim, st.dim))
        cov = CovarianceMatrix(A @ A.T, CovarianceSpec("shr"), lambda_used=0.3)
        back = covariance_from_json(covariance_to_json(cov))
        np.testing.assert_allclose(back.values, cov.values, rtol=1e-12)
        assert back.spec.kind == "shr"
        assert back.lambda_used == 0.3


    def test_json_round_trip_of_a_rooted_covariance(self):
        st = make_structure()
        rng = np.random.default_rng(5)
        rs = ResidualSet(st, rng.normal(size=(4, st.dim)), "multi_step")
        cov = build_omega(CovarianceSpec("hb", lam=0.0), st, rs)
        back = covariance_from_json(covariance_to_json(cov))
        np.testing.assert_array_equal(back.values, cov.values)
        assert back.spec.kind == "hb"
        assert back.lambda_used == 0.0


class TestIngest:
    def test_full_columns_coherent(self, toy_files):
        ds = ingest(toy_files["data"], toy_files["hierarchy"])
        assert ds.values.shape == (3, toy_files["T"])
        assert ds.n_periods == toy_files["T"] // 2
        assert ds.coherence_report == []

    def test_bottoms_only_derives_uppers(self, toy_files, tmp_path):
        full = np.loadtxt(toy_files["data"], delimiter=",", skiprows=1)
        path = tmp_path / "bottoms.csv"
        lines = ["B,C"] + [f"{r[1]:.10g},{r[2]:.10g}" for r in full]
        path.write_text("\n".join(lines) + "\n")
        ds = ingest(path, toy_files["hierarchy"])
        np.testing.assert_allclose(ds.values[0], full[:, 0], rtol=1e-9)

    def test_noisy_uppers_reported_not_fatal(self, toy_files, tmp_path):
        full = np.loadtxt(toy_files["data"], delimiter=",", skiprows=1)
        full[5, 0] += 10.0
        path = tmp_path / "noisy.csv"
        lines = ["A,B,C"] + [
            ",".join(f"{v:.10g}" for v in row) for row in full
        ]
        path.write_text("\n".join(lines) + "\n")
        ds = ingest(path, toy_files["hierarchy"])
        assert len(ds.coherence_report) == 1
        assert "'A'" in ds.coherence_report[0]

    def test_missing_bottom_is_fatal(self, toy_files, tmp_path):
        full = np.loadtxt(toy_files["data"], delimiter=",", skiprows=1)
        path = tmp_path / "partial.csv"
        lines = ["A,B"] + [f"{r[0]:.10g},{r[1]:.10g}" for r in full]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="missing bottom"):
            ingest(path, toy_files["hierarchy"])

    def test_length_not_divisible(self, toy_files, tmp_path):
        text = toy_files["data"].read_text().strip().split("\n")
        path = tmp_path / "odd.csv"
        path.write_text("\n".join(text[:-1]) + "\n")  # drop one observation
        with pytest.raises(ValidationError, match="not divisible"):
            ingest(path, toy_files["hierarchy"])

    def test_unknown_series_fatal(self, toy_files, tmp_path):
        text = toy_files["data"].read_text().replace("A,B,C", "A,B,Z")
        path = tmp_path / "weird.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match="not in the hierarchy"):
            ingest(path, toy_files["hierarchy"])

    def test_duplicate_series_columns_fatal(self, toy_files, tmp_path):
        text = toy_files["data"].read_text().replace("A,B,C", "A,B,B")
        path = tmp_path / "twice.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match="twice.csv: duplicate series columns"):
            ingest(path, toy_files["hierarchy"])

    def test_quarterly_toy_period_count(self, tmp_path):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"agg_matrix": [[1, 1]], "m": 4}))
        d = tmp_path / "d.csv"
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(16, 2))
        lines = ["s1,s2"] + [f"{a:.6g},{b:.6g}" for a, b in vals]
        d.write_text("\n".join(lines) + "\n")
        ds = ingest(d, h)
        assert ds.n_periods == 4

    def test_single_column_trivial_hierarchy(self, tmp_path):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"agg_matrix": [[1.0]], "m": 1,
                                 "series_names": ["top", "leaf"]}))
        d = tmp_path / "d.csv"
        d.write_text("leaf\n1\n2\n3\n")
        ds = ingest(d, h)
        np.testing.assert_allclose(ds.values[0], [1, 2, 3])

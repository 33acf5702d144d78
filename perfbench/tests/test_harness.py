"""The harness at toy size: rounds, failures, trace, result line, inputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
from spans import Tracer
from workloads import (
    METHODS,
    WORKLOADS,
    Workload,
    build_structure,
    make_inputs,
    tree_aggregation,
)

BENCH = Path(__file__).resolve().parents[1]

TOY_PIPELINE = Workload(
    name="toy-pipeline",
    kind="pipeline",
    samplers=("ctjb", "gauss-g", "gauss-h"),
    L=20,
    origins_per_round=2,
    subgroup_sizes=(2, 2),
    m=4,
    first_window=12,
    residuals="overlapping_multi_step",
)
TOY_STUDY = Workload(
    name="toy-study",
    kind="study",
    samplers=WORKLOADS["study"].samplers,
    L=20,
    origins_per_round=2,
    years=40,
)


@pytest.mark.parametrize("name, shape, dim", [
    ("gdp", (33, 62), 665),
    ("monthly", (30, 40), 1960),
    ("study", (1, 2), 9),
])
def test_workload_shapes(name, shape, dim):
    st = build_structure(WORKLOADS[name])
    assert st.cs.agg.shape == shape
    assert st.dim == dim


def test_tree_aggregation_rows():
    agg = tree_aggregation((2, 1, 1), (2, 1), cross_groups=2)
    np.testing.assert_array_equal(agg, [
        [1, 1, 1, 1],  # total
        [1, 1, 1, 0], [0, 0, 0, 1],  # groups of subgroups
        [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],  # subgroups
        [1, 0, 1, 0], [0, 1, 0, 1],  # cross grouping
    ])


def test_inputs_follow_the_seed():
    a = make_inputs(TOY_PIPELINE, 5, Tracer()).origins
    b = make_inputs(TOY_PIPELINE, 5, Tracer()).origins
    c = make_inputs(TOY_PIPELINE, 6, Tracer()).origins
    np.testing.assert_array_equal(a[-1][0].values, b[-1][0].values)
    assert a[-1][1] == b[-1][1]
    assert not np.array_equal(a[-1][0].values, c[-1][0].values)
    # an expanding window: each origin adds one most-aggregated period
    assert [d.n_periods for d, _ in a] == [13, 14]
    assert a[1][0].values[:, :52].tolist() == a[0][0].values.tolist()


@pytest.mark.parametrize("wl", [TOY_PIPELINE, TOY_STUDY], ids=lambda w: w.name)
@pytest.mark.parametrize("traced", [False, True])
def test_run_is_correct_and_complete(wl, traced, tmp_path):
    result = harness.run(wl, 1, 0.0, traced, 0.5, trace_dir=tmp_path)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 0)
    metrics = result["metrics"]
    if traced:
        assert set(metrics) == set(harness.PER_LAYER) | {"trace.untraced_s"}
        spans = json.loads((tmp_path / f"trace-{wl.name}-seed1.json").read_text())
        origin_s = [s["end"] - s["start"] for s in spans if s["name"] == "origin"]
        assert metrics["trace.untraced_s"]["value"] < 0.25 * min(origin_s)
        assert metrics["scoring.crps_cells"]["value"] == len(METHODS) * len(wl.samplers) * (
            build_structure(wl).dim
        )
    else:
        assert set(metrics) == {"cells_per_s", "origin_s", "peak_rss_mb", "setup_s"}
        assert metrics["setup_s"]["value"] > 0.5
    assert all(v["value"] > 0 for k, v in metrics.items() if k != "simulation.frobenius_s")


def test_a_failing_origin_is_counted_and_the_run_goes_on(monkeypatch):
    real = harness.driver_op

    def flaky(wl, inputs, j):
        if j == 1:
            raise RuntimeError("injected")
        return real(wl, inputs, j)

    monkeypatch.setattr(harness, "driver_op", flaky)
    result = harness.run(TOY_PIPELINE, 1, 0.0, False, 0.5, trace_dir=None)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["correct"] is True


def test_verification_failure_marks_the_run_incorrect(monkeypatch):
    real = harness.driver_op

    def skewed(wl, inputs, j):
        res = real(wl, inputs, j)
        res.raw_crps[...] *= 1.5  # scores no longer match the draws
        return res

    monkeypatch.setattr(harness, "driver_op", skewed)
    result = harness.run(TOY_STUDY, 1, 0.0, False, 0.5, trace_dir=None)
    assert result["correct"] is False


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

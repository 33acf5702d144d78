"""Regenerate the byte-identity goldens of the CLI reports.

Run from the repository root:

    PYTHONPATH=src python tests/goldens/make_goldens.py

It rewrites the inputs under ``tests/goldens/inputs/`` and, for every run
in ``RUNS``, the CSVs that run writes under ``tests/goldens/<run>/``.
``tests/test_goldens.py`` repeats the runs and compares the bytes, so a
refactor that must not change any report is checked against them.
Regenerate only for a change that is meant to alter report bytes, and
say so with that change.  ``manifest.json`` is not kept: it holds timings.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from ctreco.cli import main
from ctreco.hierarchy import stack_window
from ctreco.io import load_hierarchy, write_stacked_csv

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

METHODS = (
    "base,ct-bu,ct-shrcs-bute,ct-wlsvte-bucs,oct-ols,oct-struc,oct-wlsv,"
    "oct-bdshr,octh-shr,octh-bshr,octh-hshr,octh-hbshr"
)
SAMPLERS = "ctjb,gauss-g,gauss-b,gauss-h,gauss-hb"

# run name -> CLI arguments; "{in}" is the inputs directory and "{out}"
# the directory holding every run's output directory.  Runs execute in
# this order, so a run may read what an earlier one wrote.
RUNS = {
    "simulate-default": [
        "--seed", "3", "--output-dir", "{out}/simulate-default", "simulate",
        "--replicates", "3", "--years", "60", "--L", "40",
    ],
    "simulate-nonneg-redraw": [
        "--seed", "5", "--output-dir", "{out}/simulate-nonneg-redraw",
        "simulate", "--replicates", "3", "--years", "60", "--L", "40",
        "--grid", "{in}/grid.json", "--nonneg", "--redraw-sigmas",
    ],
    "pipeline-all": [
        "--seed", "4", "--output-dir", "{out}/pipeline-all", "pipeline",
        "{in}/data.csv", "--hierarchy", "{in}/hierarchy.json",
        "--methods", METHODS, "--samplers", SAMPLERS, "--L", "40",
    ],
    "pipeline-overlapping": [
        "--seed", "6", "--jobs", "2", "--output-dir",
        "{out}/pipeline-overlapping", "pipeline", "{in}/data.csv",
        "--hierarchy", "{in}/hierarchy.json", "--methods", METHODS,
        "--samplers", SAMPLERS, "--L", "40", "--residuals", "overlapping",
        "--nonneg", "--fixed-order", "2", "--benchmark", "oct-wlsv@gauss-g",
    ],
    "sample-ctjb": [
        "--seed", "7", "--output-dir", "{out}/sample-ctjb", "sample",
        "{in}/train.csv", "--hierarchy", "{in}/hierarchy.json",
        "--method", "ctjb", "--L", "30", "--export-residuals",
    ],
    "sample-gaussian": [
        "--seed", "8", "--output-dir", "{out}/sample-gaussian", "sample",
        "{in}/train.csv", "--hierarchy", "{in}/hierarchy.json",
        "--method", "gaussian", "--cov", "shr", "--L", "30",
    ],
    "score": [
        "--output-dir", "{out}/score", "score",
        "--samples", "ctjb={out}/sample-ctjb/samples.csv",
        "--samples", "gaussian={out}/sample-gaussian/samples.csv",
        "--observations", "{in}/observed.csv",
        "--hierarchy", "{in}/hierarchy.json", "--benchmark", "ctjb",
    ],
}


def run_all(out_root: Path, inputs: Path = INPUTS) -> None:
    """Execute every run in ``RUNS``; each writes to ``out_root/<run>``."""
    for name, args in RUNS.items():
        argv = [a.format(**{"in": inputs, "out": out_root}) for a in args]
        rc = main(argv)
        if rc != 0:
            raise RuntimeError(f"golden run {name!r} exited {rc}")


def write_inputs(inputs: Path = INPUTS) -> None:
    """Quarterly data for T = B1 + B2 + B3 and X = B1 + B2, 13 years."""
    inputs.mkdir(parents=True, exist_ok=True)
    hierarchy = {
        "agg_matrix": [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]],
        "m": 4,
        "series_names": ["T", "X", "B1", "B2", "B3"],
    }
    (inputs / "hierarchy.json").write_text(json.dumps(hierarchy) + "\n")
    (inputs / "grid.json").write_text(
        json.dumps({"methods": METHODS.split(","),
                    "samplers": SAMPLERS.split(",")}) + "\n"
    )
    rng = np.random.default_rng(2023)
    n_obs, burn = 52, 40
    level = np.array([6.0, 4.0, 5.0])
    phi = np.array([0.6, 0.3, 0.8])
    b = np.zeros((3, n_obs + burn))
    for t in range(1, n_obs + burn):
        b[:, t] = phi * b[:, t - 1] + 1.5 * rng.standard_normal(3)
    b = b[:, burn:] + level[:, None]
    values = np.vstack([b.sum(axis=0), b[:2].sum(axis=0), b])

    def write_wide(path, cols):
        lines = [",".join(hierarchy["series_names"])]
        lines += [",".join(f"{v:.10g}" for v in col) for col in cols.T]
        path.write_text("\n".join(lines) + "\n")

    write_wide(inputs / "data.csv", values)
    write_wide(inputs / "train.csv", values[:, :-4])
    st, names = load_hierarchy(inputs / "hierarchy.json")
    values = np.loadtxt(inputs / "data.csv", delimiter=",", skiprows=1).T
    write_stacked_csv(
        inputs / "observed.csv", st, names, stack_window(st, values[:, -4:])
    )


def main_cli() -> int:
    write_inputs()
    scratch = HERE / "_runs"
    shutil.rmtree(scratch, ignore_errors=True)
    run_all(scratch)
    for name in RUNS:
        target = HERE / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for csv in sorted((scratch / name).glob("*.csv")):
            shutil.copyfile(csv, target / csv.name)
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())

"""Regenerate the byte-identity goldens of the CLI reports.

Run from the repository root:

    PYTHONPATH=src python tests/goldens/make_goldens.py

It rewrites the inputs under ``tests/goldens/inputs/`` and, for every run
in ``RUNS``, the files of ``KEPT`` that run writes under
``tests/goldens/<run>/``.  With ``--compare DIR`` it writes nothing under
``tests/goldens/``: it reruns every golden into ``DIR`` from the kept
inputs and prints, for each golden file, how many cells changed and the
largest absolute and relative gap of the changed numeric cells; it exits
1 unless every file is identical.
``tests/test_goldens.py`` repeats the runs and compares the bytes, so a
refactor that must not change any report is checked against them.
Regenerate only for a change that is meant to alter report bytes, and
say so with that change.  ``manifest.json`` is not kept: it holds timings.
"""

from __future__ import annotations

import argparse
import contextlib
import io
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
        "--export-residuals",
    ],
    "score": [
        "--output-dir", "{out}/score", "score",
        "--samples", "ctjb={out}/sample-ctjb/samples.csv",
        "--samples", "gaussian={out}/sample-gaussian/samples.csv",
        "--observations", "{in}/observed.csv",
        "--hierarchy", "{in}/hierarchy.json", "--benchmark", "ctjb",
    ],
    "reconcile-export-omega": [
        "--output-dir", "{out}/reconcile-export-omega", "reconcile",
        "{out}/sample-ctjb/samples.csv", "--hierarchy", "{in}/hierarchy.json",
        "--method", "oct", "--omega", "bdshr",
        "--residuals", "{out}/sample-ctjb/residuals.csv",
        "--residual-kind", "one-step", "--export-omega",
    ],
}

# reconcile runs over the method families and the weightings they take,
# each reconciling the ctjb draws: run name -> its method arguments
_ONE_STEP = ["--residuals", "{out}/sample-ctjb/residuals.csv",
             "--residual-kind", "one-step"]
_MULTI_STEP = ["--residuals", "{out}/sample-gaussian/residuals.csv",
               "--residual-kind", "multi-step"]
_RECONCILE_RUNS = {
    "reconcile-ct-bu": ["--method", "ct-bu"],
    "reconcile-cs-bu-te-shr": ["--method", "ct-cs-bu-te", "--omega", "shr",
                               *_ONE_STEP],
    "reconcile-te-bu-cs-wlsv-nonneg": ["--method", "ct-te-bu-cs",
                                       "--omega", "wlsv", *_ONE_STEP,
                                       "--nonneg"],
    "reconcile-cs-bu-te-struc": ["--method", "ct-cs-bu-te", "--omega", "struc"],
    "reconcile-cs-bu-te-wlsv": ["--method", "ct-cs-bu-te", "--omega", "wlsv",
                                *_ONE_STEP],
    "reconcile-te-bu-cs-ols": ["--method", "ct-te-bu-cs", "--omega", "ols"],
    "reconcile-te-bu-cs-struc": ["--method", "ct-te-bu-cs", "--omega", "struc"],
    "reconcile-oct-ols": ["--method", "oct", "--omega", "ols"],
    "reconcile-oct-struc": ["--method", "oct", "--omega", "struc"],
    "reconcile-oct-wlsv": ["--method", "oct", "--omega", "wlsv", *_ONE_STEP],
    "reconcile-oct-shr": ["--method", "oct", "--omega", "shr", *_MULTI_STEP],
    # the sample runs keep 10 residual rows, too few for a non-singular
    # sam at dim 35, so sam reads 60 rows written with the inputs
    "reconcile-oct-sam": ["--method", "oct", "--omega", "sam", "--residuals",
                          "{in}/residuals.csv", "--residual-kind", "multi-step"],
    "reconcile-oct-hb": ["--method", "oct", "--omega", "hb", *_MULTI_STEP],
    "reconcile-oct-b": ["--method", "oct", "--omega", "b", *_MULTI_STEP],
    "reconcile-oct-h-lambda": ["--method", "oct", "--omega", "h",
                               "--lambda", "0.3", *_MULTI_STEP],
}
RUNS.update({
    name: ["--output-dir", "{out}/" + name, "reconcile",
           "{out}/sample-ctjb/samples.csv", "--hierarchy", "{in}/hierarchy.json",
           *args]
    for name, args in _RECONCILE_RUNS.items()
})

# the output files compared byte for byte
KEPT = ("*.csv", "omega.json")


def kept_files(run_dir: Path) -> list[str]:
    """Names of the files of ``KEPT`` in one run's output directory."""
    return sorted({p.name for pattern in KEPT for p in run_dir.glob(pattern)})


def run_all(out_root: Path, inputs: Path = INPUTS) -> None:
    """Execute every run in ``RUNS``; each writes to ``out_root/<run>``."""
    for name, args in RUNS.items():
        argv = [a.format(**{"in": inputs, "out": out_root}) for a in args]
        rc = main(argv)
        if rc != 0:
            raise RuntimeError(f"golden run {name!r} exited {rc}")


def write_inputs(inputs: Path = INPUTS) -> None:
    """Quarterly data for T = B1 + B2 + B3 and X = B1 + B2, 13 years, and
    60 rows of stacked residuals for it."""
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
    # correlated residual rows, enough of them for a full-rank sample covariance
    rng = np.random.default_rng(2024)
    mix = np.eye(st.dim) + 0.3 * rng.standard_normal((st.dim, st.dim))
    write_stacked_csv(inputs / "residuals.csv", st, names,
                      rng.standard_normal((60, st.dim)) @ mix)


def _cells(path: Path) -> list[str]:
    """The cells of a kept file: CSV fields row by row, or the scalars of
    a JSON document in key order."""
    text = path.read_text()
    if path.suffix != ".json":
        return [cell for line in text.splitlines() for cell in line.split(",")]

    def leaves(node):
        if isinstance(node, dict):
            return [c for key in sorted(node) for c in leaves(node[key])]
        if isinstance(node, list):
            return [c for item in node for c in leaves(item)]
        return [json.dumps(node)]

    return leaves(json.loads(text))


def gap_summary(golden: Path, produced: Path) -> str:
    """How a produced file differs from its golden, cell by cell."""
    if not golden.exists() or not produced.exists():
        return "not in the goldens" if produced.exists() else "not written"
    if golden.read_bytes() == produced.read_bytes():
        return "identical"
    old, new = _cells(golden), _cells(produced)
    if len(old) != len(new):
        return f"cell count differs ({len(old)} -> {len(new)})"
    changed, abs_gap, rel_gap = 0, 0.0, 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        changed += 1
        try:
            x, y = float(a), float(b)
        except ValueError:
            continue
        gap = abs(x - y)
        abs_gap = max(abs_gap, gap)
        rel_gap = max(rel_gap, gap / max(abs(x), abs(y)))
    return (f"{changed} of {len(old)} cells changed, largest gap "
            f"{abs_gap:.3g} absolute, {rel_gap:.3g} relative")


def compare(out_root: Path) -> list[str]:
    """Rerun every golden into ``out_root`` and describe each kept file's
    gap from its golden, one line per file."""
    with contextlib.redirect_stdout(io.StringIO()):  # the paths written
        run_all(out_root)
    lines = []
    for name in RUNS:
        files = set(kept_files(HERE / name)) | set(kept_files(out_root / name))
        for file in sorted(files):
            summary = gap_summary(HERE / name / file, out_root / name / file)
            lines.append(f"{name}/{file}: {summary}")
    return lines


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compare", metavar="DIR", type=Path,
        help="rerun every golden into DIR and print its gaps from the "
             "goldens instead of rewriting them",
    )
    args = parser.parse_args(argv)
    if args.compare is not None:
        lines = compare(args.compare)
        print("\n".join(lines))
        return 0 if all(line.endswith(": identical") for line in lines) else 1
    write_inputs()
    scratch = HERE / "_runs"
    shutil.rmtree(scratch, ignore_errors=True)
    run_all(scratch)
    for name in RUNS:
        target = HERE / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for file in kept_files(scratch / name):
            shutil.copyfile(scratch / name / file, target / file)
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())

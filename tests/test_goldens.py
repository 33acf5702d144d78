"""Every report the CLI writes in the golden runs matches its golden byte
for byte.

The goldens pin the CSVs of ``simulate``, ``pipeline``, ``sample``,
``score`` and ``reconcile``, and the ``omega.json`` of
``reconcile --export-omega``, at fixed seeds, so a change meant to keep
every output the same is checked here.  ``tests/goldens/make_goldens.py``
regenerates them.
"""

import importlib.util
from pathlib import Path

import pytest

GOLDENS = Path(__file__).resolve().parent / "goldens"
_spec = importlib.util.spec_from_file_location(
    "make_goldens", GOLDENS / "make_goldens.py"
)
make_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_goldens)

REGENERATE = (
    "regenerate with `PYTHONPATH=src python tests/goldens/make_goldens.py` "
    "only if the change is meant to alter report bytes"
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_runs")
    make_goldens.run_all(out)
    return out


@pytest.mark.parametrize("name", list(make_goldens.RUNS))
def test_reports_match_goldens_byte_for_byte(runs, name):
    expected = make_goldens.kept_files(GOLDENS / name)
    produced = make_goldens.kept_files(runs / name)
    assert expected, f"no goldens for run {name!r}; {REGENERATE}"
    assert produced == expected, f"run {name!r} wrote other files; {REGENERATE}"
    for file in expected:
        got = (runs / name / file).read_bytes()
        want = (GOLDENS / name / file).read_bytes()
        assert got == want, f"{name}/{file} differs from its golden; {REGENERATE}"


@pytest.mark.parametrize("summary,code", [
    ("identical", 0),
    ("3 of 9 cells changed, largest gap 1e-16 absolute, 1e-16 relative", 1),
    ("not written", 1),
])
def test_compare_exits_1_unless_every_file_is_identical(
        tmp_path, monkeypatch, capsys, summary, code):
    lines = ["score/scores.csv: identical", f"sample-ctjb/samples.csv: {summary}"]
    monkeypatch.setattr(make_goldens, "compare", lambda out_root: lines)
    assert make_goldens.main_cli(["--compare", str(tmp_path)]) == code
    assert capsys.readouterr().out.splitlines() == lines

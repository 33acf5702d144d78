"""Every CSV the CLI writes in the golden runs matches its golden byte for byte.

The goldens pin the reports of ``simulate``, ``pipeline``, ``sample`` and
``score`` at fixed seeds, so a change meant to keep every output the same
is checked here.  ``tests/goldens/make_goldens.py`` regenerates them.
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
    expected = sorted(p.name for p in (GOLDENS / name).glob("*.csv"))
    produced = sorted(p.name for p in (runs / name).glob("*.csv"))
    assert expected, f"no goldens for run {name!r}; {REGENERATE}"
    assert produced == expected, f"run {name!r} wrote other CSVs; {REGENERATE}"
    for csv in expected:
        got = (runs / name / csv).read_bytes()
        want = (GOLDENS / name / csv).read_bytes()
        assert got == want, f"{name}/{csv} differs from its golden; {REGENERATE}"

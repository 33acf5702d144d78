"""File formats: hierarchy JSON, stacked-layout CSV, residuals, covariances.

The hierarchy definition is JSON with ``agg_matrix`` (row-major array of
arrays), ``m`` (integer) and optional ``series_names`` (uppers first,
then bottoms).  Vectors in the canonical stacked layout travel as CSV
with the header grammar ``series:<name>|k:<int>|h:<int>`` per column and
one row per vector (or per draw).  Dense covariances use the same CSV
shape without headers, plus a compact JSON form carrying only the lower
triangle for caching.

Stacked vectors and covariances are written with repr-round-tripping
precision, so reruns are byte-identical; the CLI's reports use ``%.12g``.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ctreco.covariance import CovarianceMatrix, CovarianceSpec
from ctreco.exceptions import ValidationError
from ctreco.hierarchy import (
    CrossTemporalStructure,
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
)
from ctreco.residuals import ResidualSet

__all__ = [
    "Dataset",
    "load_hierarchy",
    "stacked_labels",
    "write_stacked_csv",
    "read_stacked_csv",
    "write_residuals_csv",
    "read_residuals_csv",
    "write_covariance_csv",
    "covariance_to_json",
    "covariance_from_json",
    "ingest",
    "atomic_write_text",
]

def _fmt(x: float) -> str:
    # shortest decimal that round-trips the exact float64 value
    return repr(float(x))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file and promote, so readers never see partials."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def load_hierarchy(path: str | Path) -> tuple[CrossTemporalStructure, list[str]]:
    """Read a hierarchy definition file.

    Returns the structure and the series names (generated as ``s0``,
    ``s1``, ... when the file has none).
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    if "agg_matrix" not in payload or "m" not in payload:
        raise ValidationError(f"{path}: needs 'agg_matrix' and 'm' fields")
    m = payload["m"]
    # exact types: a JSON true is a bool, which would pass as the int 1
    if not (type(m) is int or type(m) is float and m.is_integer()):
        raise ValidationError(f"{path}: 'm' must be a whole number, got {m!r}")
    agg = payload["agg_matrix"]  # rows, or one row
    rows = agg if type(agg) is list and all(type(r) is list for r in agg) else [agg]
    if not all(type(r) is list and len(r) == len(rows[0])
               and all(type(v) in (int, float) for v in r) for r in rows):
        raise ValidationError(f"{path}: 'agg_matrix' must be equal-length rows of numbers")
    structure = build_cross_temporal(
        build_cross_sectional(np.array(rows, dtype=float)), build_temporal(int(m))
    )
    names = payload.get("series_names")
    if names is None:
        names = [f"s{i}" for i in range(structure.n)]
    if len(names) != structure.n:
        raise ValidationError(
            f"{path}: {len(names)} series names for {structure.n} series"
        )
    if len(set(names)) != len(names):
        raise ValidationError(f"{path}: duplicate series names")
    return structure, list(names)


def stacked_labels(
    structure: CrossTemporalStructure, names: list[str]
) -> list[str]:
    """Column labels of the canonical stacked layout."""
    labels = []
    for i in range(structure.n):
        for k in structure.te.factors:
            for h in range(1, structure.te.periods_at(k) + 1):
                labels.append(f"series:{names[i]}|k:{k}|h:{h}")
    return labels


def write_stacked_csv(
    path: str | Path,
    structure: CrossTemporalStructure,
    names: list[str],
    rows: np.ndarray,
) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != structure.dim:
        raise ValidationError(
            f"rows have {rows.shape[1]} columns, expected {structure.dim}"
        )
    lines = [",".join(stacked_labels(structure, names))]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_label(label: str, path) -> tuple[str, int, int]:
    parts = label.split("|")
    try:
        series = parts[0].split(":", 1)[1]
        k = int(parts[1].split(":", 1)[1])
        h = int(parts[2].split(":", 1)[1])
        if not (parts[0].startswith("series:") and parts[1].startswith("k:")
                and parts[2].startswith("h:")):
            raise IndexError
    except (IndexError, ValueError) as exc:
        raise ValidationError(
            f"{path}:1: bad column label {label!r} "
            "(expected series:<name>|k:<int>|h:<int>)"
        ) from exc
    return series, k, h


def _read_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The stripped header and the (rows, columns) table of a CSV file.

    Blank rows are skipped; every other row must have one value per
    column, each a finite float, or ValidationError names ``path:line``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}:{lineno}: {len(row)} values, expected {len(header)}"
                )
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:
                raise ValidationError(f"{path}:{lineno}: non-finite value "
                                      f"{row[bad[0]]!r} in column {header[bad[0]]!r}")
            rows.append(vals)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return header, np.asarray(rows)


def read_stacked_csv(
    path: str | Path,
    structure: CrossTemporalStructure,
    names: list[str],
) -> np.ndarray:
    """Read stacked-layout rows, permuting columns into canonical order."""
    header, table = _read_csv(path)
    name_to_idx = {nm: i for i, nm in enumerate(names)}
    perm = np.empty(structure.dim, dtype=np.intp)
    seen = set()
    for col, label in enumerate(header):
        series, k, h = _parse_label(label, path)
        if series not in name_to_idx:
            raise ValidationError(f"{path}: unknown series {series!r}")
        try:
            target = structure.index_of(name_to_idx[series], k, h - 1)
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        if target in seen:
            raise ValidationError(f"{path}: duplicate column {label!r}")
        seen.add(target)
        perm[target] = col
    if len(seen) != structure.dim:
        raise ValidationError(
            f"{path}: {len(seen)} columns, expected {structure.dim}"
        )
    return table.take(perm, axis=1)  # C-ordered, as table[:, perm] is not


def write_residuals_csv(
    path: str | Path, residuals: ResidualSet, names: list[str]
) -> None:
    write_stacked_csv(path, residuals.structure, names, residuals.E)


def read_residuals_csv(
    path: str | Path,
    structure: CrossTemporalStructure,
    names: list[str],
    kind: str,
) -> ResidualSet:
    E = read_stacked_csv(path, structure, names)
    return ResidualSet(structure, E, kind)


def write_covariance_csv(path: str | Path, cov: CovarianceMatrix) -> None:
    lines = [",".join(_fmt(v) for v in row) for row in cov.values]
    atomic_write_text(path, "\n".join(lines) + "\n")


def covariance_to_json(cov: CovarianceMatrix) -> str:
    idx = np.tril_indices(cov.dim)
    payload = {
        "kind": cov.spec.kind,
        "lambda": cov.lambda_used,
        "dim": cov.dim,
        "lower_triangle": [float(v) for v in cov.values[idx]],
    }
    return json.dumps(payload, sort_keys=True)


def covariance_from_json(text: str) -> CovarianceMatrix:
    payload = json.loads(text)
    dim = int(payload["dim"])
    values = np.zeros((dim, dim))
    idx = np.tril_indices(dim)
    tri = np.asarray(payload["lower_triangle"], dtype=float)
    if tri.size != idx[0].size:
        raise ValidationError("lower triangle has the wrong length")
    values[idx] = tri
    values = values + np.tril(values, -1).T
    lam = payload.get("lambda")
    return CovarianceMatrix(
        values, CovarianceSpec(payload["kind"], lam=None), lambda_used=lam
    )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Highest-frequency observations bound to a hierarchy.

    ``values`` holds one row per series in hierarchy order (uppers first);
    upper rows are derived from the bottoms when the source file did not
    provide them.  ``coherence_report`` lists observed violations of the
    cross-sectional constraints (observed data may legitimately be noisy;
    violations are reported, not fatal).
    """

    structure: CrossTemporalStructure
    names: list[str]
    values: np.ndarray = field(repr=False)
    coherence_report: list[str] = field(default_factory=list)

    def __post_init__(self):
        V = np.asarray(self.values, dtype=float)
        if V.shape[0] != self.structure.n:
            raise ValidationError("one row per series required")
        if V.shape[1] % self.structure.te.m:
            raise ValidationError(
                f"series length {V.shape[1]} not divisible by m={self.structure.te.m}"
            )
        V.flags.writeable = False
        object.__setattr__(self, "values", V)

    @property
    def n_obs(self) -> int:
        return self.values.shape[1]

    @property
    def n_periods(self) -> int:
        return self.values.shape[1] // self.structure.te.m


def ingest(csv_path: str | Path, hierarchy_path: str | Path) -> Dataset:
    """Load and validate a wide observation CSV against a hierarchy.

    The CSV must contain every bottom series; upper series are optional
    and derived from the bottoms when absent.  Provided upper series are
    checked against the constraints and any violation beyond a relative
    1e-6 is recorded in the coherence report.
    """
    structure, names = load_hierarchy(hierarchy_path)
    header, table = _read_csv(csv_path)
    unknown = [h for h in header if h not in names]
    if unknown:
        raise ValidationError(
            f"{csv_path}: series not in the hierarchy: {unknown}"
        )
    if len(set(header)) != len(header):
        raise ValidationError(f"{csv_path}: duplicate series columns")
    n_a = structure.cs.n_upper
    bottoms = names[n_a:]
    missing = [nm for nm in bottoms if nm not in header]
    if missing:
        raise ValidationError(f"{csv_path}: missing bottom series {missing}")
    T = table.shape[0]
    if T % structure.te.m:
        raise ValidationError(
            f"{csv_path}: length {T} not divisible by m={structure.te.m}"
        )

    col = {nm: header.index(nm) for nm in header}
    B = np.stack([table[:, col[nm]] for nm in bottoms], axis=1)  # (T, n_b)
    U_expected = B @ structure.cs.agg.T  # (T, n_a)
    values = np.empty((structure.n, T))
    report: list[str] = []
    for i, nm in enumerate(names):
        if nm in col:
            values[i] = table[:, col[nm]]
        else:
            values[i] = U_expected[:, i]
    resid = values[:n_a].T - U_expected
    scale = 1.0 + np.abs(U_expected)
    bad = np.abs(resid) > 1e-6 * scale
    for i in range(n_a):
        count = int(bad[:, i].sum())
        if count and names[i] in col:
            worst = float(np.max(np.abs(resid[:, i]) / scale[:, i]))
            report.append(
                f"series {names[i]!r}: {count} of {T} observations violate "
                f"the aggregation constraints (worst relative gap {worst:.3g})"
            )
    return Dataset(
        structure=structure, names=names, values=values, coherence_report=report
    )

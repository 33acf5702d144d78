"""Command-line interface.

Subcommands: ``reconcile`` (apply a reconciliation to stacked base
forecasts), ``sample`` (draw base-forecast samples from a dataset),
``score`` (CRPS / energy-score report for sample files), ``simulate``
(the Monte Carlo study) and ``pipeline`` (expanding-window experiment on
a dataset).  Exit codes: 0 ok, 2 invalid inputs, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from ctreco import __version__
from ctreco.covariance import FULL_KINDS, STRUCTURED_KINDS, CovarianceSpec, build_omega
from ctreco.evaluate import GAUSS_KINDS, base_forecasts, reconciler
from ctreco.exceptions import NumericalError, ValidationError
from ctreco.io import (
    atomic_write_text,
    covariance_to_json,
    ingest,
    load_hierarchy,
    read_residuals_csv,
    read_stacked_csv,
    write_covariance_csv,
    write_residuals_csv,
    write_stacked_csv,
)
from ctreco.pipeline import (
    PipelineConfig,
    build_manifest,
    run_pipeline,
)
from ctreco.probabilistic import GaussianForecast, ctjb_sample, sample_gaussian
from ctreco.reconcile import set_negative_to_zero
from ctreco.residuals import (
    aggregate_levels,
    assemble_multistep,
    assemble_onestep,
    fit_level_models,
)
from ctreco.scoring import relative_indices, score_draws
from ctreco.simulation import (
    DEFAULT_METHODS,
    DEFAULT_SAMPLERS,
    SimulationConfig,
    run_study,
)

_RESIDUAL_KINDS = {
    "one-step": "one_step",
    "multi-step": "multi_step",
    "overlapping": "overlapping_multi_step",
}
# reconcile --method -> the family ``evaluate.reconciler`` builds
_FAMILIES = {"ct-bu": "ct-bu", "ct-cs-bu-te": "cs_then_te_bu",
             "ct-te-bu-cs": "te_then_cs_bu", "oct": "oct"}


def _fmt(x) -> str:
    return "%.12g" % float(x)


def _write_csv(path, header, rows) -> None:
    """A CLI report: the header, then one line per row, its strings as
    given and its numbers at ``%.12g``."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_lambda(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"--lambda must be 'auto' or a float, got {text!r}")


def _out(args, name: str) -> Path:
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _cmd_reconcile(args) -> int:
    if args.export_omega and args.method != "oct":
        raise ValidationError(f"--export-omega needs --method oct, not {args.method}")
    structure, names = load_hierarchy(args.hierarchy)
    rows = read_stacked_csv(args.base, structure, names)
    residuals = (read_residuals_csv(args.residuals, structure, names,
                                    _RESIDUAL_KINDS[args.residual_kind])
                 if args.residuals else None)
    spec = CovarianceSpec(args.omega, lam=_parse_lambda(args.lam))
    rec = reconciler(structure, _FAMILIES[args.method], spec, residuals)
    out = rec(rows)  # read_stacked_csv rejects non-finite cells
    if args.nonneg:
        out = set_negative_to_zero(structure, out)

    if args.export_omega:
        write_covariance_csv(_out(args, "omega.csv"), rec.omega)
        atomic_write_text(_out(args, "omega.json"), covariance_to_json(rec.omega))

    path = _out(args, "reconciled.csv")
    write_stacked_csv(path, structure, names, out)
    print(path)
    return 0


def _load_dataset(args):
    """The dataset of ``sample`` or ``pipeline``, its coherence warnings
    printed, with the (criterion, max_order) that --fixed-order selects."""
    dataset = ingest(args.data, args.hierarchy)
    for line in dataset.coherence_report:
        print(f"warning: {line}", file=sys.stderr)
    if args.fixed_order is not None:
        return dataset, "fixed", args.fixed_order
    return dataset, "aicc", args.max_order


def _cmd_sample(args) -> int:
    dataset, criterion, max_order = _load_dataset(args)
    structure, names = dataset.structure, dataset.names
    data = aggregate_levels(structure, dataset.values)
    models = fit_level_models(data, max_order=max_order, criterion=criterion)

    assemble = assemble_onestep if args.method == "ctjb" else assemble_multistep
    residuals = assemble(structure, models, data)
    if args.export_residuals:
        write_residuals_csv(_out(args, "residuals.csv"), residuals, names)
    if args.method == "ctjb":
        sample = ctjb_sample(
            structure, models, data, residuals, args.L, seed=args.seed
        )
    else:
        # g, b, h, hb draw as the gauss-* samplers: unshrunk
        gauss = GAUSS_KINDS.get(f"gauss-{args.cov}")
        spec = CovarianceSpec(gauss, lam=0.0) if gauss else CovarianceSpec(args.cov)
        sigma = build_omega(spec, structure, residuals)
        xhat = base_forecasts(structure, models, data)
        sample = sample_gaussian(
            GaussianForecast(xhat, sigma), structure, args.L, seed=args.seed
        )

    path = _out(args, "samples.csv")
    write_stacked_csv(path, structure, names, sample.draws)
    print(path)
    return 0


def _cmd_score(args) -> int:
    paths = {}
    for spec in args.samples:
        if "=" not in spec:
            raise ValidationError(
                f"--samples expects label=path, got {spec!r}"
            )
        label, path = spec.split("=", 1)
        if label in paths:
            raise ValidationError(f"repeated --samples label {label!r}")
        paths[label] = path
    if args.benchmark not in paths:
        raise ValidationError(
            f"benchmark {args.benchmark!r} not among samples {sorted(paths)}"
        )
    structure, names = load_hierarchy(args.hierarchy)
    obs = read_stacked_csv(args.observations, structure, names)
    if obs.shape[0] != 1:
        raise ValidationError("observations file must hold exactly one row")
    raws = {label: score_draws(structure, read_stacked_csv(path, structure, names),
                               obs[0], label=label)
            for label, path in paths.items()}
    bench = raws[args.benchmark]
    reports = {label: relative_indices(raw, bench) for label, raw in raws.items()}

    if args.format == "json":
        payload = {
            label: {
                "benchmark": rep.benchmark_id,
                "crps": rep.crps.tolist(),
                "es": rep.es.tolist(),
                "avg_rel_crps": {str(k): v for k, v in rep.avg_rel_crps.items()},
                "avg_rel_crps_overall": rep.avg_rel_crps_overall,
                "rel_es": {str(k): v for k, v in rep.rel_es.items()},
                "avg_rel_es_overall": rep.avg_rel_es_overall,
            }
            for label, rep in reports.items()
        }
        path = _out(args, "scores.json")
        atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2))
    else:
        path = _out(args, "scores.csv")
        _write_csv(path, *_report_table(reports, structure.te.factors))
    print(path)
    return 0


def _report_table(reports: dict, orders):
    """(header, rows) of the relative indices, one row per label, sorted."""
    header = ["label", "benchmark"]
    header += [f"avg_rel_crps_k{k}" for k in orders] + ["avg_rel_crps_all"]
    header += [f"rel_es_k{k}" for k in orders] + ["avg_rel_es_all"]
    rows = [[label, rep.benchmark_id, *(rep.avg_rel_crps[k] for k in orders),
             rep.avg_rel_crps_overall, *(rep.rel_es[k] for k in orders),
             rep.avg_rel_es_overall]
            for label, rep in sorted(reports.items())]
    return header, rows


def _grid_from_file(path) -> tuple[tuple[str, ...], tuple[str, ...]]:
    payload = json.loads(Path(path).read_text())
    methods = tuple(payload.get("methods", DEFAULT_METHODS))
    samplers = tuple(payload.get("samplers", DEFAULT_SAMPLERS))
    return methods, samplers


def _finish_run(args, tables, cfg, inputs, origins: int, started: float) -> int:
    """Write each (name, header, rows) report of a ``simulate`` or
    ``pipeline`` run, then its manifest.json; print every path written."""
    paths = [_out(args, name) for name, _, _ in tables] + [_out(args, "manifest.json")]
    for path, (_, header, rows) in zip(paths, tables):
        _write_csv(path, header, rows)
    manifest = build_manifest(cfg, args.seed, inputs, origins=origins, started=started)
    atomic_write_text(paths[-1], manifest.to_json())
    print(*paths, sep="\n")
    return 0


def _cmd_simulate(args) -> int:
    started = time.time()
    methods, samplers = (
        _grid_from_file(args.grid) if args.grid else (DEFAULT_METHODS, DEFAULT_SAMPLERS)
    )
    config = SimulationConfig(
        years=args.years,
        replicates=args.replicates,
        L=args.L,
        seed=args.seed,
        max_order=args.max_order,
        redraw_sigmas=args.redraw_sigmas,
    )
    result = run_study(config, methods=methods, samplers=samplers,
                       nonneg=args.nonneg)

    tables = [("frobenius.csv", ["method", *samplers],
               [[m, *row] for m, row in zip(methods, result.frobenius)])]
    tables += [(name, ["level", "method", *samplers],
                [[level, m, *row] for level in ("all", *result.orders)
                 for m, row in zip(methods, by_level[level])])
               for name, by_level in (("avg_rel_crps.csv", result.avg_rel_crps),
                                      ("rel_es.csv", result.rel_es))]
    return _finish_run(args, tables, config, [args.grid] if args.grid else [],
                       config.replicates, started)


def _cmd_pipeline(args) -> int:
    started = time.time()
    dataset, criterion, max_order = _load_dataset(args)
    cfg = PipelineConfig(
        methods=tuple(args.methods.split(",")),
        samplers=tuple(args.samplers.split(",")),
        L=args.L,
        seed=args.seed,
        first_window=args.first_window,
        origin_step=args.origin_step,
        max_order=max_order,
        criterion=criterion,
        residuals=_RESIDUAL_KINDS[args.residuals],
        nonneg=args.nonneg,
        benchmark=args.benchmark,
        jobs=args.jobs,
    )
    result = run_pipeline(dataset, cfg)

    tables = [("pipeline_report.csv", *_report_table(result.reports, result.orders))]
    if len(cfg.methods) * len(cfg.samplers) >= 2 and len(result.origins) >= 2:
        header = ["level", "label", "mean_rank", "critical_distance", "friedman_p",
                  "equivalent_to_best"]
        rows = [[level, label, res["mean_ranks"][j], res["critical_distance"],
                 res["friedman_p"], str(bool(res["equivalent_to_best"][j])).lower()]
                for level, res in result.rank_comparison().items()
                for j, label in enumerate(res["labels"])]
        tables.append(("mcb_nemenyi.csv", header, rows))
    return _finish_run(args, tables, cfg, [args.data, args.hierarchy],
                       len(result.origins), started)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctreco",
        description="Cross-temporal forecast reconciliation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers")
    parser.add_argument("--output-dir", default=".", help="where outputs land")
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="output format where both are supported",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconcile", help="reconcile stacked base forecasts")
    p.add_argument("base", help="CSV of stacked base forecasts (rows = vectors)")
    p.add_argument("--hierarchy", required=True, help="hierarchy JSON")
    p.add_argument(
        "--method",
        choices=tuple(_FAMILIES),
        default="oct",
    )
    p.add_argument(
        "--omega",
        choices=FULL_KINDS + STRUCTURED_KINDS,
        default="ols",
    )
    p.add_argument("--lambda", dest="lam", default="auto",
                   help="shrinkage intensity: 'auto' or a float in [0,1]")
    p.add_argument("--residuals", help="residual CSV (for residual-based omegas)")
    p.add_argument(
        "--residual-kind", choices=tuple(_RESIDUAL_KINDS), default="multi-step"
    )
    p.add_argument("--nonneg", action="store_true",
                   help="clamp negative bottom cells and re-aggregate")
    p.add_argument("--export-omega", action="store_true",
                   help="also write the oct weighting matrix (CSV + JSON cache)")
    p.set_defaults(func=_cmd_reconcile)

    p = sub.add_parser("sample", help="draw base-forecast samples from data")
    p.add_argument("data", help="wide CSV of highest-frequency observations")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--method", choices=("gaussian", "ctjb"), default="ctjb")
    p.add_argument(
        "--cov", choices=("sam", "shr", "g", "h", "b", "hb"), default="sam",
        help="gaussian covariance; g/b/h/hb draw as the gauss-* samplers "
             "(unshrunk, g being sam)",
    )
    p.add_argument("--L", type=int, default=200, help="number of draws")
    p.add_argument("--max-order", type=int, default=5)
    p.add_argument("--fixed-order", type=int, default=None)
    p.add_argument("--export-residuals", action="store_true",
                   help="also write the residual matrix used by the sampler")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("score", help="score sample files against observations")
    p.add_argument("--samples", action="append", required=True,
                   metavar="LABEL=PATH", help="may be given multiple times")
    p.add_argument("--observations", required=True,
                   help="stacked CSV with exactly one row")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--benchmark", required=True,
                   help="label whose scores are the denominators")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("simulate", help="run the Monte Carlo study")
    p.add_argument("--replicates", type=int, default=SimulationConfig.replicates)
    p.add_argument("--years", type=int, default=SimulationConfig.years)
    p.add_argument("--L", type=int, default=SimulationConfig.L)
    p.add_argument("--max-order", type=int, default=SimulationConfig.max_order)
    p.add_argument("--grid", help="JSON file with 'methods' and 'samplers'")
    p.add_argument("--redraw-sigmas", action="store_true",
                   help="redraw innovation scales per replicate")
    p.add_argument("--nonneg", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("pipeline", help="expanding-window experiment on data")
    p.add_argument("data")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--methods", default=",".join(PipelineConfig.methods),
                   help="comma-separated method list")
    p.add_argument("--samplers", default=",".join(PipelineConfig.samplers))
    p.add_argument("--L", type=int, default=PipelineConfig.L)
    p.add_argument("--first-window", type=int, default=PipelineConfig.first_window,
                   help="first training window, in most-aggregated periods")
    p.add_argument("--origin-step", type=int, default=PipelineConfig.origin_step,
                   help="origin spacing, in highest-frequency steps")
    p.add_argument("--max-order", type=int, default=PipelineConfig.max_order)
    p.add_argument("--fixed-order", type=int, default=None)
    p.add_argument("--residuals", choices=("multi-step", "overlapping"),
                   default=next(k for k, v in _RESIDUAL_KINDS.items()
                                if v == PipelineConfig.residuals))
    p.add_argument("--benchmark", default=PipelineConfig.benchmark)
    p.add_argument("--nonneg", action="store_true")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

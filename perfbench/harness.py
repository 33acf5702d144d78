"""Measured loop, traced loop and verification of one benchmark run."""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from ctreco.pipeline import run_pipeline
from ctreco.reconcile import build_projection
from ctreco.simulation import run_study

import oracles
import replica
from spans import Tracer
from workloads import METHODS, Workload, make_inputs

SETUP_REPEATS = 5

# per-layer metric -> (span names, what to sum: "s" for seconds or a count key)
PER_LAYER = {
    "scoring.score_s": (("scoring.score",), "s"),
    "scoring.crps_cells": (("scoring.score",), "crps_cells"),
    "covariance.build_s": (("covariance.build",), "s"),
    "covariance.builds": (("covariance.build",), "builds"),
    "covariance.dense_mb": (("covariance.build",), "dense_mb"),
    "reconcile.projection_s": (("reconcile.projection",), "s"),
    "reconcile.map_mb": (("reconcile.projection",), "map_mb"),
    "reconcile.apply_s": (("reconcile.apply",), "s"),
    "reconcile.draws": (("reconcile.apply",), "draws"),
    "probabilistic.sample_s": (("probabilistic.sample",), "s"),
    "probabilistic.draws": (("probabilistic.sample",), "draws"),
    "residuals.assemble_s": (("residuals.aggregate", "residuals.assemble"), "s"),
    "residuals.rows": (("residuals.assemble",), "rows"),
    "models.fit_s": (("models.fit",), "s"),
    "models.fits": (("models.fit",), "fits"),
    "models.forecast_s": (("models.forecast",), "s"),
    "simulation.dgp_s": (("simulation.dgp",), "s"),
    "simulation.frobenius_s": (("simulation.frobenius",), "s"),
    "hierarchy.build_s": (("hierarchy.build",), "s"),
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def set_up(wl: Workload, seed: int, tr: Tracer):
    """Generate the inputs SETUP_REPEATS times; median seconds of one."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = make_inputs(wl, seed, tr)
        times.append(time.perf_counter() - t)
    return inputs, statistics.median(times)


def driver_op(wl: Workload, inputs, j: int):
    """Origin j through the program's own driver."""
    if wl.kind == "study":
        return run_study(inputs.configs[j], METHODS, wl.samplers)
    dataset, cfg = inputs.origins[j]
    return run_pipeline(dataset, cfg)


def replica_op(wl: Workload, inputs, j: int, tr: Tracer, keep: bool = False):
    """Origin j through the traced replica of the driver."""
    if wl.kind == "study":
        return replica.study_replicate(
            tr, inputs.configs[j], METHODS, wl.samplers, keep=keep
        )
    dataset, cfg = inputs.origins[j]
    return replica.pipeline_origin(tr, dataset, cfg, keep=keep)


def end_round() -> None:
    """Drop maps cached across origins, as a fresh process would.

    ``build_projection`` keeps every map and covariance it built; left to
    grow across rounds the cache, not the round, would set peak memory.
    """
    clear = getattr(build_projection, "cache_clear", None)
    if clear is not None:
        clear()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def measure(wl: Workload, inputs, seconds: float) -> dict:
    """Whole rounds of driver origins until ``seconds`` have passed.

    ``cells_per_s`` is the median over rounds of the cells a round
    completed per second it took, so that a stretch of a run in which the
    host runs slower or faster than usual moves it no more than it moves
    ``origin_s``.
    """
    attempted = failed = 0
    times, results, round_rates = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        completed = len(times)
        for j in range(wl.origins_per_round):
            attempted += 1
            t = time.perf_counter()
            try:
                res = driver_op(wl, inputs, j)
            except Exception:
                failed += 1
                _report_failure(f"origin {j}")
                continue
            times.append(time.perf_counter() - t)
            results.append((j, res))
        end_round()
        now = time.perf_counter()
        round_rates.append((len(times) - completed) * wl.cells / (now - round_start))
        if now - start >= seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "attempted": attempted,
        "failed": failed,
        "results": results,
        "metrics": {
            "cells_per_s": (statistics.median(round_rates), "cells/s"),
            "origin_s": (statistics.median(times) if times else float("nan"), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        },
    }


def trace(wl: Workload, inputs, seconds: float, tr: Tracer) -> dict:
    """Whole rounds of traced replica origins until ``seconds`` have passed.

    The first origin that completes keeps its draws for verification.
    """
    attempted = failed = 0
    ok_origins, kept = [], None
    start = time.perf_counter()
    while True:
        for j in range(wl.origins_per_round):
            attempted += 1
            try:
                with tr.origin() as oid:
                    run = replica_op(wl, inputs, j, tr, keep=kept is None)
            except Exception:
                failed += 1
                _report_failure(f"traced origin {j}")
                continue
            ok_origins.append(oid)
            if kept is None:
                kept = (j, run)
        end_round()
        if time.perf_counter() - start >= seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "kept": kept,
        "metrics": layer_metrics(tr, ok_origins),
    }


def layer_metrics(tr: Tracer, origins: list[int]) -> dict:
    """Per-layer medians over the completed traced origins.

    A metric whose spans run inside origins is the median over origins of
    its per-origin total; one whose spans run only in set-up is the median
    over the set-up repeats.  ``trace.untraced_s`` is the part of an
    origin's wall time that no layer span covers.
    """
    per_origin: dict[int, list] = defaultdict(list)
    origin_s = {}
    for s in tr.spans:
        if s.name == "origin":
            origin_s[s.origin] = s.seconds
        elif s.origin is not None:
            per_origin[s.origin].append(s)

    def value(span, what):
        return span.seconds if what == "s" else span.counts.get(what, 0)

    out = {}
    for metric, (names, what) in PER_LAYER.items():
        in_origins = any(
            s.name in names for o in origins for s in per_origin[o]
        )
        if in_origins:
            vals = [
                sum(value(s, what) for s in per_origin[o] if s.name in names)
                for o in origins
            ]
        else:
            vals = [
                value(s, what)
                for s in tr.spans
                if s.origin is None and s.name in names
            ]
        out[metric] = (statistics.median(vals) if vals else 0.0, unit_of(metric))
    untraced = [
        origin_s[o] - sum(s.seconds for s in per_origin[o]) for o in origins
    ]
    out["trace.untraced_s"] = (
        statistics.median(untraced) if untraced else 0.0, "s"
    )
    return out


def verify(wl: Workload, inputs, seed: int, out: dict, traced: bool) -> list[str]:
    """Every verification check; returns the failures.

    The draws of one origin come from the replica: kept from the traced
    section and compared with a fresh driver call, or re-run after the
    measured section and compared with that origin's driver result.  The
    relative indices are checked on every driver result of the run.
    """
    if traced:
        if out["kept"] is None:
            return []
        j, run_j = out["kept"]
        try:
            res = driver_op(wl, inputs, j)
        except Exception:
            _report_failure(f"driver on traced origin {j}")
            return [f"origin {j}: the driver failed where the replica ran"]
        results = [(j, res)]
    else:
        if not out["results"]:
            return []
        results = out["results"]
        j, res = results[0]
        try:
            run_j = replica_op(wl, inputs, j, Tracer(), keep=True)
        except Exception:
            _report_failure(f"replica of origin {j}")
            return [f"origin {j}: the replica failed where the driver ran"]
    rng = np.random.default_rng(seed)
    errors = [f"origin {j}: {e}" for e in oracles.verify_origin(run_j, res, rng)]
    indices = oracles.study_indices if wl.kind == "study" else oracles.pipeline_indices
    for jj, res in results:
        errors += [f"origin {jj}: {e}" for e in indices(res)]
    return errors


def run(wl: Workload, seed: int, seconds: float, traced: bool, import_s: float,
        trace_dir: Path | None) -> dict:
    """One benchmark run; returns the result object to print."""
    tr = Tracer()
    inputs, setup_once = set_up(wl, seed, tr)
    t = time.perf_counter()
    out = trace(wl, inputs, seconds, tr) if traced else measure(wl, inputs, seconds)
    measured_s = time.perf_counter() - t
    t = time.perf_counter()
    if traced:
        tr.write(trace_dir / f"trace-{wl.name}-seed{seed}.json")
    errors = verify(wl, inputs, seed, out, traced)
    for e in errors:
        print(f"perfbench: verification failed: {e}", file=sys.stderr)
    print(
        f"perfbench: {wl.name} seed {seed}: {out['attempted']} origins in "
        f"{measured_s:.1f} s, verification {time.perf_counter() - t:.1f} s",
        file=sys.stderr,
    )
    metrics = dict(out["metrics"])
    if not traced:
        metrics["setup_s"] = (import_s + setup_once, "s")
    return {
        "correct": not errors,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }

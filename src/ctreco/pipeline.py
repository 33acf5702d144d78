"""Expanding-window forecasting experiment on user data.

For every forecast origin, ``evaluate.evaluate_origin`` -- the kernel
the Monte Carlo study uses too -- fits models per (series, order) on the
training window, draws base forecast samples, reconciles them per method
and scores them against the held-out next period.  Origins advance by a
fixed number of highest-frequency steps; the aggregation windows of
every temporal order are anchored to end at the origin, so each origin
always forecasts exactly one whole most-aggregated period ahead.

Scores are averaged over origins before entering the relative indices.
Origins are independent given per-origin seed substreams, so parallel
execution merges deterministically.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ctreco import __version__
from ctreco.evaluate import check_grid, evaluate_origin, relative_reports
from ctreco.exceptions import ValidationError
from ctreco.hierarchy import stack_window
from ctreco.io import Dataset

__all__ = ["PipelineConfig", "PipelineResult", "RunManifest", "run_pipeline",
           "origin_indices"]


@dataclass(frozen=True)
class PipelineConfig:
    """What to run at every forecast origin."""

    methods: tuple[str, ...] = ("base", "ct-shrcs-bute", "oct-wlsv")
    samplers: tuple[str, ...] = ("ctjb", "gauss-g")
    L: int = 200
    seed: int = 0
    first_window: int = 10  # most-aggregated periods in the first training set
    origin_step: int = 1  # highest-frequency steps between origins
    max_order: int = 5
    criterion: str = "aicc"
    residuals: str = "multi_step"  # multi_step | overlapping_multi_step
    nonneg: bool = False
    benchmark: str = "base@ctjb"
    jobs: int = 1

    def __post_init__(self):
        check_grid(self.methods, self.samplers, self.benchmark)
        if self.residuals not in ("multi_step", "overlapping_multi_step"):
            raise ValidationError(
                f"residuals must be multi_step or overlapping_multi_step, "
                f"got {self.residuals!r}"
            )
        if self.L < 2 or self.first_window < 2 or self.origin_step < 1:
            raise ValidationError("L, first_window and origin_step too small")


@dataclass(frozen=True, eq=False)
class PipelineResult:
    methods: tuple[str, ...]
    samplers: tuple[str, ...]
    orders: tuple[int, ...]
    origins: tuple[int, ...]
    raw_crps: np.ndarray = field(repr=False)  # (methods, samplers, n, p)
    raw_es: np.ndarray = field(repr=False)
    reports: dict = field(repr=False)  # label -> ScoreReport
    # CRPS of every origin: (origins, methods, samplers, n, p)
    origin_crps: np.ndarray = field(repr=False, default=None)

    def rank_comparison(self) -> dict:
        """Friedman / Nemenyi comparison across origins, per order level.

        Returns {level: mcb result} where the score of each method@sampler
        cell at one origin is its mean CRPS over series at that level
        ("all" pools every level).  Needs at least two cells and origins.
        """
        from ctreco.scoring import mcb_nemenyi

        labels = [
            f"{m}@{s}" for m in self.methods for s in self.samplers
        ]
        n_cells = len(labels)
        if n_cells < 2 or self.origin_crps.shape[0] < 2:
            raise ValidationError(
                "rank comparison needs at least 2 grid cells and 2 origins"
            )
        out = {}
        flat = self.origin_crps.reshape(
            self.origin_crps.shape[0], n_cells, -1, len(self.orders)
        )
        for kk, level in enumerate(self.orders):
            out[level] = mcb_nemenyi(flat[:, :, :, kk].mean(axis=2))
        out["all"] = mcb_nemenyi(flat.mean(axis=(2, 3)))
        for res in out.values():
            res["labels"] = labels
        return out


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run bit-for-bit."""

    config: dict
    seed: int
    inputs: dict
    version: str
    origins: int
    timing_s: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "seed": self.seed,
                "inputs": self.inputs,
                "version": self.version,
                "origins": self.origins,
                "timing_s": round(self.timing_s, 3),
            },
            sort_keys=True,
            indent=2,
        )


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def origin_indices(n_obs: int, m: int, first_window: int, step: int) -> list[int]:
    """Highest-frequency indices of the forecast origins.

    The first origin sits after ``first_window`` whole periods; origins
    then advance by ``step`` observations while a full held-out period
    remains.
    """
    first = first_window * m
    if first + m > n_obs:
        raise ValidationError(
            f"first window of {first_window} periods leaves no test data "
            f"(T={n_obs}, m={m})"
        )
    return list(range(first, n_obs - m + 1, step))


def _score_origin(args):
    """One origin of ``run_pipeline``, in the form a process pool maps."""
    (dataset_values, structure, cfg, t0, origin_idx) = args
    m = structure.te.m
    # per-origin substream, independent of scheduling order
    origin_seq = np.random.SeedSequence(cfg.seed, spawn_key=(origin_idx,))
    crps, es, _ = evaluate_origin(
        structure,
        dataset_values[:, t0 % m : t0],
        stack_window(structure, dataset_values[:, t0 : t0 + m]),
        cfg.methods,
        cfg.samplers,
        cfg.L,
        origin_seq.spawn(len(cfg.samplers)),
        max_order=cfg.max_order,
        criterion=cfg.criterion,
        residuals=cfg.residuals,
        nonneg=cfg.nonneg,
    )
    return crps, es


def run_pipeline(dataset: Dataset, cfg: PipelineConfig) -> PipelineResult:
    """Run the expanding-window experiment and aggregate over origins."""
    structure = dataset.structure
    origins = origin_indices(
        dataset.n_obs, structure.te.m, cfg.first_window, cfg.origin_step
    )
    jobs = [
        (dataset.values, structure, cfg, t0, j) for j, t0 in enumerate(origins)
    ]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_score_origin, jobs))
    else:
        results = [_score_origin(job) for job in jobs]

    origin_crps = np.stack([crps_o for crps_o, _ in results])
    crps_avg = origin_crps.mean(axis=0)
    es_avg = np.stack([es_o for _, es_o in results]).mean(axis=0)
    return PipelineResult(
        methods=cfg.methods,
        samplers=cfg.samplers,
        orders=structure.te.factors,
        origins=tuple(origins),
        raw_crps=crps_avg,
        raw_es=es_avg,
        reports=relative_reports(
            cfg.methods, cfg.samplers, structure.te.factors, crps_avg, es_avg,
            cfg.benchmark,
        ),
        origin_crps=origin_crps,
    )


def build_manifest(
    cfg, seed: int, input_paths: list, origins: int, started: float
) -> RunManifest:
    from dataclasses import asdict

    config = asdict(cfg) if hasattr(cfg, "__dataclass_fields__") else dict(cfg)
    for key, val in list(config.items()):
        if isinstance(val, tuple):
            config[key] = list(val)
    return RunManifest(
        config=config,
        seed=seed,
        inputs={str(p): file_digest(p) for p in input_paths},
        version=__version__,
        origins=origins,
        timing_s=time.time() - started,
    )

"""The benchmark's workloads: synthetic hierarchies, panels and run grids.

Every input is generated from the workload seed.  The program receives
only the generated inputs: a ``SimulationConfig`` per study replicate, or
a ``Dataset`` plus ``PipelineConfig`` per expanding-window origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ctreco.hierarchy import (
    CrossTemporalStructure,
    build_cross_sectional,
    build_cross_temporal,
    build_temporal,
)
from ctreco.io import Dataset
from ctreco.pipeline import PipelineConfig
from ctreco.simulation import SimulationConfig, simulate_dgp, study_structure

from spans import Tracer

# Every paper method that reconciles to the package's coherence tolerance.
METHODS = (
    "base",
    "ct-bu",
    "ct-shrcs-bute",
    "ct-wlsvte-bucs",
    "oct-wlsv",
    "oct-bdshr",
    "octh-shr",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``study`` (one ``run_study`` call per replicate) or
    ``pipeline`` (one ``run_pipeline`` call per expanding-window origin).
    A round is ``origins_per_round`` origins; every round of a run repeats
    the same origins on the same inputs.
    """

    name: str
    kind: str
    samplers: tuple[str, ...]
    L: int
    origins_per_round: int
    # study only
    years: int = 0
    # pipeline only: tree hierarchy, seasonal period, windows, residuals
    subgroup_sizes: tuple[int, ...] = ()
    group_sizes: tuple[int, ...] = ()
    cross_groups: int = 0
    m: int = 0
    first_window: int = 0
    residuals: str = ""

    @property
    def cells(self) -> int:
        """(method x sampler) cells reconciled and scored per origin."""
        return len(METHODS) * len(self.samplers)


WORKLOADS = {
    "study": Workload(
        name="study",
        kind="study",
        samplers=("ctjb", "gauss-g", "gauss-b", "gauss-h", "gauss-hb"),
        L=500,
        # replicate costs differ by about 6 % between seeds; 16 per round
        # keep that out of the run-to-run spread
        origins_per_round=16,
        years=500,
    ),
    # n_b = 62, n_a = 1 + 8 + 24 = 33, n = 95, m = 4: dim 95 * 7 = 665
    "gdp": Workload(
        name="gdp",
        kind="pipeline",
        samplers=("ctjb", "gauss-g", "gauss-h"),
        L=500,
        origins_per_round=2,
        subgroup_sizes=(3,) * 14 + (2,) * 10,
        group_sizes=(3,) * 8,
        m=4,
        first_window=24,
        residuals="multi_step",
    ),
    # n_b = 40, n_a = 1 + 5 + 20 + 4 = 30, n = 70, m = 12: dim 70 * 28 = 1960
    "monthly": Workload(
        name="monthly",
        kind="pipeline",
        samplers=("ctjb", "gauss-g", "gauss-hb"),
        L=500,
        origins_per_round=2,
        subgroup_sizes=(2,) * 20,
        group_sizes=(4,) * 5,
        cross_groups=4,
        m=12,
        first_window=12,
        residuals="overlapping_multi_step",
    ),
}


def tree_aggregation(
    subgroup_sizes: tuple[int, ...],
    group_sizes: tuple[int, ...],
    cross_groups: int = 0,
) -> np.ndarray:
    """Aggregation matrix of a total / group / subgroup tree over the bottoms.

    Subgroups sum runs of consecutive bottoms of the given sizes; groups
    sum runs of consecutive subgroups.  With ``cross_groups = c`` the rows
    summing bottoms ``j`` with ``j % c == g`` are appended, a second
    grouping that cuts across the tree (as purpose cuts across region).
    """
    n_b = sum(subgroup_sizes)
    if sum(group_sizes) not in (0, len(subgroup_sizes)):
        raise ValueError("group sizes must cover every subgroup")
    subgroups = []
    start = 0
    for size in subgroup_sizes:
        row = np.zeros(n_b)
        row[start : start + size] = 1.0
        subgroups.append(row)
        start += size
    groups = []
    start = 0
    for size in group_sizes:
        groups.append(np.sum(subgroups[start : start + size], axis=0))
        start += size
    cross = [
        (np.arange(n_b) % cross_groups == g).astype(float)
        for g in range(cross_groups)
    ]
    return np.vstack([np.ones(n_b)] + groups + subgroups + cross)


def build_structure(wl: Workload) -> CrossTemporalStructure:
    """The workload's cross-temporal structure."""
    if wl.kind == "study":
        return study_structure()
    agg = tree_aggregation(wl.subgroup_sizes, wl.group_sizes, wl.cross_groups)
    return build_cross_temporal(build_cross_sectional(agg), build_temporal(wl.m))


def simulate_panel(
    st: CrossTemporalStructure, n_obs: int, seed: int
) -> np.ndarray:
    """Coherent (n, n_obs) high-frequency panel.

    The bottoms come in pairs from the study's data-generating process
    (``simulate_dgp``: two AR(2) series with correlated innovations), each
    pair with its own seed-drawn coefficients, scales and correlation,
    shifted to a positive level.  Uppers are summed through the
    cross-sectional summation matrix.
    """
    n_b = st.cs.n_bottom
    if n_obs % 2:
        raise ValueError("the pair generator needs an even series length")
    rng = np.random.default_rng(seed)
    n_pairs = (n_b + 1) // 2
    pair_seeds = np.random.SeedSequence(seed).spawn(n_pairs)
    bottoms = []
    for seq in pair_seeds:
        phi = rng.uniform((0.2, -0.5, 0.2, -0.5), (0.9, 0.0, 0.9, 0.0))
        sig = rng.uniform(0.5, 2.0, size=2)
        cfg = SimulationConfig(
            phi_b=(float(phi[0]), float(phi[1])),
            phi_c=(float(phi[2]), float(phi[3])),
            sigma_b=float(sig[0]),
            sigma_c=float(sig[1]),
            rho=float(rng.uniform(-0.8, 0.8)),
            years=n_obs // 2,
        )
        pair = simulate_dgp(cfg, seed=seq)[1:]
        bottoms.append(pair + rng.uniform(10.0, 40.0, size=(2, 1)))
    b = np.vstack(bottoms)[:n_b]
    return st.cs.summation @ b


@dataclass(frozen=True)
class StudyInputs:
    structure: CrossTemporalStructure
    configs: tuple[SimulationConfig, ...]


@dataclass(frozen=True)
class PipelineInputs:
    structure: CrossTemporalStructure
    origins: tuple[tuple[Dataset, PipelineConfig], ...]


def make_inputs(wl: Workload, seed: int, tr: Tracer):
    """Everything one round needs, generated from ``seed``.

    The structure build and the panel simulation are traced as set-up
    spans.
    """
    seeds = np.random.SeedSequence(seed).generate_state(wl.origins_per_round + 1)
    with tr.span("hierarchy.build"):
        st = build_structure(wl)
    if wl.kind == "study":
        return StudyInputs(
            structure=st,
            configs=tuple(
                SimulationConfig(
                    years=wl.years, L=wl.L, replicates=1, seed=int(s)
                )
                for s in seeds[1:]
            )
        )
    last = wl.first_window + wl.origins_per_round  # periods incl. held-out
    with tr.span("simulation.dgp"):
        panel = simulate_panel(st, last * wl.m, int(seeds[0]))
    names = [f"s{i}" for i in range(st.n)]
    origins = []
    for j, s in enumerate(seeds[1:]):
        window = wl.first_window + j
        data = Dataset(
            structure=st, names=names, values=panel[:, : (window + 1) * wl.m]
        )
        cfg = PipelineConfig(
            methods=METHODS,
            samplers=wl.samplers,
            L=wl.L,
            seed=int(s),
            first_window=window,
            origin_step=wl.m,
            residuals=wl.residuals,
            benchmark="base@ctjb",
        )
        origins.append((data, cfg))
    return PipelineInputs(structure=st, origins=tuple(origins))

"""Entry points that regenerate every evaluation table and figure.

One function per paper artefact:

* :func:`figure12` — omnetpp execution time across affinity distances;
* :func:`figure13` — L1D miss reduction, HDS vs HALO, all 11 benchmarks;
* :func:`figure14` — speedup, HDS vs HALO, all 11 benchmarks;
* :func:`figure15` — speedup under the random 4-pool allocator;
* :func:`table1` — grouped-object fragmentation at peak memory usage;
* :func:`roms_representation_blowup` — §5.2's 31-nodes-vs-150k-streams
  comparison.

:func:`evaluate_all` does the shared work (profile once, analyse with both
techniques, measure all configurations over trials) so figures 13/14 come
from a single set of runs, exactly as in the paper.  Every entry point
builds its cells and measures them through the one cell runner,
:func:`repro.harness.parallel.run_cells`, serially or with ``jobs=N``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.artifact_cache import ArtifactCache
from ..hds.pipeline import analyse_profile
from ..workloads.base import get_workload
from .experiment import trial_seeds
from .parallel import Cell, run_cells
from .prepare import (
    WorkloadEvaluation,
    halo_params_for,
    hds_params_for,
    prepare_workload,
)

logger = logging.getLogger(__name__)

#: Benchmarks in the paper's presentation order (Figures 13-15 x-axis).
PAPER_BENCHMARKS = (
    "health", "ft", "analyzer", "ammp", "art", "equake",
    "povray", "omnetpp", "xalanc", "leela", "roms",
)

#: Configurations of the Figure 13-15 matrix, in presentation order.
MATRIX_CONFIGS = ("baseline", "halo", "hds", "random-pools")

#: The nine benchmarks of Table 1, in its row order.
TABLE1_BENCHMARKS = (
    "health", "equake", "analyzer", "ammp", "art", "ft",
    "povray", "roms", "leela",
)


def evaluate_all(
    benchmarks: Sequence[str] = PAPER_BENCHMARKS,
    trials: int = 3,
    scale: str = "ref",
    include_random: bool = True,
    engine: str = "auto",
    families: Sequence[str] = (),
    **options,
) -> dict[str, WorkloadEvaluation]:
    """Run the full evaluation matrix (figures 13, 14 and 15 share it).

    Each benchmark is profiled once and analysed with both techniques,
    then every ``(benchmark, configuration, seed)`` cell is measured, for
    seeds ``1 .. trials``, and every one is reported.
    *engine* selects the measurement backend: ``auto`` (the default),
    ``columnar`` and ``event`` measure every cell from one recorded event
    trace per benchmark at *scale* (the profile replays the
    profile-scale recording), while ``direct`` executes the workload once
    per cell — the oracle the trace engines are checked against, with
    bit-identical results.  *families* names extra standalone
    allocator families (:data:`repro.allocators.ALLOCATOR_FAMILIES`) to
    measure alongside the paper configurations; their trials land in each
    evaluation's ``extra`` mapping.

    *options* go to :func:`~repro.harness.parallel.run_cells`: ``jobs``,
    ``cache``, ``phase_times`` and the resilience knobs ``task_timeout``,
    ``max_retries``, ``fault_plan``, ``checkpoint``/``resume`` and
    ``failures``.  They apply to serial runs exactly as to ``jobs > 1``,
    and the results are identical either way.

    Degradation: a cell that fails all its retries becomes a
    :class:`~repro.harness.parallel.FailedMeasurement` in ``failures``;
    its benchmark survives as long as baseline, HALO and HDS each keep at
    least one measured trial (random pools and extra families degrade to
    absence).  A benchmark whose prepare phase, or an entire required
    configuration, fails is dropped from the result — the rest of the
    matrix is unaffected.
    """
    seeds = trial_seeds(trials)
    configs = [c for c in MATRIX_CONFIGS if include_random or c != "random-pools"]
    configs.extend(f for f in families if f not in configs)
    cells = {
        (name, config): [Cell(name, config, seed, scale, engine=engine) for seed in seeds]
        for name in benchmarks
        for config in configs
    }
    results = run_cells([cell for row in cells.values() for cell in row], **options)

    evaluations: dict[str, WorkloadEvaluation] = {}
    for name in benchmarks:
        summary = results.prepared.get(cells[name, "halo"][0].prepare_key(include_hds=True))
        if summary is None:
            continue
        by_config = {config: results.trials(cells[name, config]) for config in configs}
        missing = [c for c in ("baseline", "halo", "hds") if by_config[c] is None]
        if missing:
            logger.error(
                "dropping %s from the evaluation: no surviving trials for %s",
                name, ", ".join(missing),
            )
            continue
        evaluations[name] = WorkloadEvaluation(
            name=name,
            baseline=by_config["baseline"],
            halo=by_config["halo"],
            hds=by_config["hds"],
            random_pools=by_config.get("random-pools"),
            halo_groups=summary.halo_groups,
            hds_groups=summary.hds_groups,
            hds_streams=summary.hds_streams,
            graph_nodes=summary.graph_nodes,
            extra={f: by_config[f] for f in families if by_config[f] is not None},
        )
    return evaluations


# ---------------------------------------------------------------------------
# Figure/table front ends
# ---------------------------------------------------------------------------


@dataclass
class FigureSeries:
    """One named series of per-benchmark values."""

    label: str
    values: dict[str, float]


@dataclass
class FigureResult:
    """Data behind one reproduced figure."""

    figure: str
    series: list[FigureSeries]
    notes: dict[str, float] = field(default_factory=dict)


def figure13(evaluations: dict[str, WorkloadEvaluation]) -> FigureResult:
    """L1D miss reduction, Chilimbi et al. (HDS) vs HALO."""
    return FigureResult(
        figure="Figure 13: L1D cache miss reduction",
        series=[
            FigureSeries(
                "Chilimbi et al.",
                {n: e.hds_miss_reduction for n, e in evaluations.items()},
            ),
            FigureSeries(
                "HALO", {n: e.halo_miss_reduction for n, e in evaluations.items()}
            ),
        ],
    )


def figure14(evaluations: dict[str, WorkloadEvaluation]) -> FigureResult:
    """Execution-time speedup, Chilimbi et al. (HDS) vs HALO."""
    return FigureResult(
        figure="Figure 14: speedup",
        series=[
            FigureSeries(
                "Chilimbi et al.", {n: e.hds_speedup for n, e in evaluations.items()}
            ),
            FigureSeries("HALO", {n: e.halo_speedup for n, e in evaluations.items()}),
        ],
    )


def figure15(evaluations: dict[str, WorkloadEvaluation]) -> FigureResult:
    """Speedup under the random 4-pool allocator (placement sensitivity)."""
    return FigureResult(
        figure="Figure 15: random 4-pool allocator speedup",
        series=[
            FigureSeries(
                "random pools", {n: e.random_speedup for n, e in evaluations.items()}
            )
        ],
    )


def figure12(
    distances: Sequence[int] = tuple(2**k for k in range(3, 14)),
    trials: int = 3,
    scale: str = "ref",
    benchmark: str = "omnetpp",
    **options,
) -> FigureResult:
    """omnetpp execution time across affinity distances, vs the baseline.

    Values are simulated cycles (the paper reports seconds); the dashed
    baseline of the original plot is returned in ``notes['baseline']``.
    A distance whose every trial failed is left out of the series.
    *options* go to :func:`~repro.harness.parallel.run_cells`.

    The default sweep stops at 2^13 rather than the paper's 2^17: profiling
    cost grows with the affinity window (the paper itself notes the
    overhead trade-off), and the curve has flattened by then.  Pass a wider
    ``distances`` for the full range.
    """
    workload = get_workload(benchmark)
    seeds = trial_seeds(trials)
    baseline = [Cell(benchmark, "baseline", seed, scale) for seed in seeds]
    sweep = {}
    for distance in distances:
        params = halo_params_for(workload).with_affinity_distance(distance)
        sweep[distance] = [
            Cell(benchmark, "halo", seed, scale, halo_params=params) for seed in seeds
        ]
    results = run_cells(baseline + [cell for row in sweep.values() for cell in row], **options)
    base = results.trials(baseline)
    if base is None:
        raise RuntimeError(f"every baseline trial of {benchmark} failed")
    times = {
        str(distance): result.cycles.median
        for distance, row in sweep.items()
        if (result := results.trials(row)) is not None
    }
    return FigureResult(
        figure=f"Figure 12: {benchmark} time vs affinity distance",
        series=[FigureSeries("HALO cycles", times)],
        notes={"baseline": base.cycles.median},
    )


@dataclass
class FragmentationRow:
    """One row of Table 1."""

    benchmark: str
    fraction: float
    wasted_bytes: int


def table1(
    benchmarks: Sequence[str] = TABLE1_BENCHMARKS,
    scale: str = "ref",
    **options,
) -> list[FragmentationRow]:
    """Fragmentation behaviour of grouped objects at peak memory usage.

    One HALO cell (seed 1) per benchmark; a row whose cell failed all its
    retries is omitted.  *options* go to
    :func:`~repro.harness.parallel.run_cells`.
    """
    cells = [Cell(name, "halo", 1, scale) for name in benchmarks]
    results = run_cells(cells, **options)
    rows = []
    for cell in cells:
        measurement = results.measured.get(cell.key)
        if measurement is None:
            continue
        frag = measurement.frag_at_peak
        if frag is None:
            rows.append(FragmentationRow(cell.workload, 0.0, 0))
        else:
            rows.append(FragmentationRow(cell.workload, frag.fraction, frag.wasted_bytes))
    return rows


@dataclass
class RepresentationComparison:
    """§5.2's representation-size comparison on roms."""

    benchmark: str
    affinity_graph_nodes: int
    hot_streams: int


def roms_representation_blowup(
    scale: str = "test",
    cache: Optional[ArtifactCache] = None,
) -> RepresentationComparison:
    """Affinity-graph nodes vs hot-stream count for roms."""
    workload = get_workload("roms")
    if scale == "test":
        # The standard profile scale: share the evaluation's cached artifacts.
        prepared = prepare_workload("roms", cache=cache, workload=workload)
        profile, hds_artifacts = prepared.profile, prepared.hds
    else:
        from ..core.pipeline import profile_workload

        params = halo_params_for(workload)
        profile = profile_workload(workload, params, scale=scale, record_trace=True)
        hds_artifacts = analyse_profile(profile, hds_params_for(workload))
    return RepresentationComparison(
        benchmark="roms",
        affinity_graph_nodes=len(profile.graph),
        hot_streams=hds_artifacts.stream_count,
    )

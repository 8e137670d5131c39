"""Measurement harness: runners, trial methodology, figure reproduction."""

from .experiment import (
    TrialResult,
    TrialStats,
    aggregate_trials,
    miss_reduction,
    run_trials,
    speedup,
    trial_seeds,
)
from .parallel import Cell, run_cells, run_trials_parallel
from .prepare import (
    PhaseTimes,
    PreparedArtifacts,
    WorkloadEvaluation,
    halo_params_for,
    hds_params_for,
    prepare_workload,
)
from ..trace.access import AccessTrace, AccessTraceRecorder
from .runner import (
    Measurement,
    PeakTracker,
    measure,
    measure_baseline,
    measure_halo,
    measure_hds,
    measure_random_pools,
    run_measurement,
    total_live_bytes,
)

__all__ = [
    "AccessTrace",
    "AccessTraceRecorder",
    "Cell",
    "Measurement",
    "PeakTracker",
    "PhaseTimes",
    "PreparedArtifacts",
    "TrialResult",
    "TrialStats",
    "WorkloadEvaluation",
    "aggregate_trials",
    "halo_params_for",
    "hds_params_for",
    "measure",
    "measure_baseline",
    "measure_halo",
    "measure_hds",
    "measure_random_pools",
    "miss_reduction",
    "prepare_workload",
    "run_cells",
    "run_measurement",
    "run_trials",
    "run_trials_parallel",
    "speedup",
    "total_live_bytes",
    "trial_seeds",
]

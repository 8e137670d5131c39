"""Wall-clock baseline for the parallel evaluation engine.

Times one small-scale evaluation sweep three ways — serial, ``jobs=4``
cold, and ``jobs=4`` against a warm artifact cache — checks the three
produce identical results, and records the honest numbers in
``BENCH_eval_walltime.json`` at the repository root.

The parallel speedup scales with available cores: on a single-core
container the workers time-slice and the cold parallel run is *slower*
than serial (process + pickle overhead with no parallelism to pay for
it), which the recorded ``cpu_count`` makes interpretable.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_parallel_runner.py -s
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.artifact_cache import ArtifactCache
from repro.harness.prepare import PhaseTimes
from repro.harness.reproduce import evaluate_all

#: A sweep small enough to run in CI but with a real profile/analyse load.
SWEEP = ("deepsjeng", "roms", "povray", "ammp")
SCALE = os.environ.get("REPRO_BENCH_SCALE", "test")
TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "1"))
JOBS = 4

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_eval_walltime.json"


def _digest(evaluations) -> dict:
    return {
        name: {
            "baseline_cycles": e.baseline.cycles.median,
            "halo_cycles": e.halo.cycles.median,
            "halo_l1": e.halo.l1_misses.median,
            "hds_l1": e.hds.l1_misses.median,
        }
        for name, e in evaluations.items()
    }


def test_parallel_walltime_baseline(tmp_path):
    serial_times = PhaseTimes()
    start = time.perf_counter()
    serial = evaluate_all(
        benchmarks=SWEEP, trials=TRIALS, scale=SCALE, include_random=True,
        phase_times=serial_times,
    )
    serial_wall = time.perf_counter() - start

    cache = ArtifactCache(tmp_path / "cache")
    cold_times = PhaseTimes()
    start = time.perf_counter()
    cold = evaluate_all(
        SWEEP, trials=TRIALS, scale=SCALE, include_random=True,
        jobs=JOBS, cache=cache, phase_times=cold_times,
    )
    cold_wall = time.perf_counter() - start

    warm_times = PhaseTimes()
    start = time.perf_counter()
    warm = evaluate_all(
        SWEEP, trials=TRIALS, scale=SCALE, include_random=True,
        jobs=JOBS, cache=cache, phase_times=warm_times,
    )
    warm_wall = time.perf_counter() - start

    # Identical results in all three modes — the engine's core contract.
    assert _digest(serial) == _digest(cold) == _digest(warm)
    # The warm cache skipped every profile.
    assert warm_times.profile == 0.0
    assert warm_times.cache_misses == 0

    record = {
        "sweep": list(SWEEP),
        "scale": SCALE,
        "trials": TRIALS,
        "jobs": JOBS,
        "cpu_count": os.cpu_count(),
        "serial_wall_s": round(serial_wall, 2),
        "parallel_cold_wall_s": round(cold_wall, 2),
        "parallel_warm_wall_s": round(warm_wall, 2),
        "serial_phases": {
            "profile_s": round(serial_times.profile, 2),
            "analyse_s": round(serial_times.analyse, 2),
            "measure_s": round(serial_times.measure, 2),
        },
        "warm_cache": {"hits": warm_times.cache_hits, "profile_s": 0.0},
    }
    RESULTS_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nserial {serial_wall:.2f}s   jobs={JOBS} cold {cold_wall:.2f}s   "
          f"warm {warm_wall:.2f}s   (cpus={os.cpu_count()})")
    print(f"wrote {RESULTS_PATH}")

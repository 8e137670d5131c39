"""Parallel evaluation engine: serial equivalence and trial aggregation.

The engine's contract is that fanning the evaluation matrix over worker
processes changes wall-clock time and nothing else — identical seeds,
identical measurements, identical aggregates.  These tests pin that
contract on the cheapest workload (deepsjeng at test scale).
"""

import pytest

from repro.core.artifact_cache import ArtifactCache
from repro.harness.experiment import (
    TrialStats,
    aggregate_trials,
    nearest_rank,
    run_trials,
    trial_seeds,
)
from repro.harness.parallel import run_trials_parallel
from repro.harness.prepare import PhaseTimes
from repro.harness.reproduce import evaluate_all
from repro.harness.runner import measure_baseline
from repro.workloads.base import get_workload

BENCH = "deepsjeng"


class TestNearestRank:
    def test_median_of_odd(self):
        assert nearest_rank([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_quartiles_are_symmetric(self):
        # Historically q25 truncated its rank while q75 rounded, so a
        # reversed distribution produced asymmetric quartiles.  Both ends
        # must use the same rounding now.
        values = [1.0, 2.0, 3.0, 4.0]
        stats = TrialStats.of(values)
        mirrored = TrialStats.of([5.0 - v for v in values])
        assert stats.q25 == 5.0 - mirrored.q75
        assert stats.q75 == 5.0 - mirrored.q25

    def test_bounds_clamped(self):
        assert nearest_rank([1.0, 2.0], 0.0) == 1.0
        assert nearest_rank([1.0, 2.0], 1.0) == 2.0
        assert nearest_rank([7.0], 0.25) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)

    def test_unsorted_input_matters_not_for_trialstats(self):
        assert TrialStats.of([3.0, 1.0, 2.0]) == TrialStats.of([1.0, 2.0, 3.0])


class TestTrialSeeds:
    def test_discard_first_adds_warmup_seed(self):
        assert list(trial_seeds(3)) == [0, 1, 2, 3]
        assert list(trial_seeds(3, discard_first=False)) == [0, 1, 2]

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            trial_seeds(0)

    def test_aggregate_drops_first(self):
        workload = get_workload(BENCH)
        measurements = [
            measure_baseline(workload, scale="test", seed=seed) for seed in trial_seeds(2)
        ]
        result = aggregate_trials(measurements)
        assert len(result.measurements) == 2
        assert result.measurements[0] is measurements[1]

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_trials([])


class TestSerialParallelEquivalence:
    def test_baseline_trials_identical(self):
        workload = get_workload(BENCH)
        serial = run_trials(
            lambda seed: measure_baseline(workload, scale="test", seed=seed), trials=2
        )
        parallel = run_trials_parallel(BENCH, "baseline", trials=2, scale="test", jobs=2)
        assert serial.cycles == parallel.cycles
        assert serial.l1_misses == parallel.l1_misses
        assert [m.cycles for m in serial.measurements] == [
            m.cycles for m in parallel.measurements
        ]
        assert [m.cache.l1_misses for m in serial.measurements] == [
            m.cache.l1_misses for m in parallel.measurements
        ]

    def test_full_evaluation_identical(self, tmp_path):
        # The whole engine: prepare wave (profile + analyse through the
        # shared cache) then one task per (config, seed).
        cache = ArtifactCache(tmp_path / "cache")
        times = PhaseTimes()
        serial = evaluate_all([BENCH], trials=2, scale="test", include_random=True)[BENCH]
        parallel = evaluate_all(
            [BENCH], trials=2, scale="test", include_random=True,
            jobs=2, cache=cache, phase_times=times,
        )[BENCH]
        for config in ("baseline", "halo", "hds", "random_pools"):
            s, p = getattr(serial, config), getattr(parallel, config)
            assert s.cycles == p.cycles, config
            assert s.l1_misses == p.l1_misses, config
        assert serial.halo_groups == parallel.halo_groups
        assert serial.hds_groups == parallel.hds_groups
        assert serial.hds_streams == parallel.hds_streams
        assert serial.graph_nodes == parallel.graph_nodes
        # The phase report saw real work and exactly two cache misses
        # (the single benchmark's event trace plus its prepared artifacts,
        # each produced once despite two workers).
        assert times.measure > 0.0
        assert times.profile > 0.0
        assert times.cache_misses == 2
        assert times.trace_records == 1
        assert times.trace_replays == 1

    def test_warm_cache_skips_profiling(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run_trials_parallel(
            BENCH, "halo", trials=1, scale="test", jobs=2, cache=cache
        )
        warm = PhaseTimes()
        rerun = run_trials_parallel(
            BENCH, "halo", trials=1, scale="test", jobs=2, cache=cache,
            phase_times=warm,
        )
        cold = run_trials_parallel(BENCH, "halo", trials=1, scale="test", jobs=2)
        assert warm.profile == 0.0
        assert warm.cache_hits >= 1
        assert warm.cache_misses == 0
        # And the cached artifacts still reproduce the uncached measurement.
        assert rerun.cycles == cold.cycles
        assert rerun.l1_misses == cold.l1_misses

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            evaluate_all([BENCH], trials=1, scale="test", jobs=0)


class TestResilience:
    """The engine fails per cell, not per matrix — and recovers workers."""

    def test_killed_worker_cell_retried_to_identical_result(self):
        from repro.faults import FaultPlan
        from repro.harness.parallel import run_trials_parallel

        clean = run_trials_parallel(BENCH, "baseline", trials=2, scale="test", jobs=2)
        times = PhaseTimes()
        failures = []
        plan = FaultPlan(
            kill_tasks=(f"measure:{BENCH}:baseline:test:1",), max_kill_attempts=1
        )
        survived = run_trials_parallel(
            BENCH, "baseline", trials=2, scale="test", jobs=2,
            fault_plan=plan, phase_times=times, failures=failures,
        )
        assert failures == []
        assert times.task_retries >= 1
        assert survived.cycles == clean.cycles
        assert survived.l1_misses == clean.l1_misses

    def test_permanent_failure_becomes_failed_measurement(self):
        from repro.faults import FaultPlan
        from repro.harness.parallel import FailedMeasurement, run_trials_parallel

        failures = []
        plan = FaultPlan(
            kill_tasks=(f"measure:{BENCH}:baseline:test:2",), max_kill_attempts=99
        )
        result = run_trials_parallel(
            BENCH, "baseline", trials=2, scale="test", jobs=2,
            fault_plan=plan, max_retries=1, failures=failures,
        )
        assert len(failures) == 1
        failure = failures[0]
        assert isinstance(failure, FailedMeasurement)
        assert (failure.workload, failure.config, failure.seed) == (BENCH, "baseline", 2)
        assert failure.attempts == 2
        # The surviving seeds still aggregate (seed 0 discarded, seed 1 kept).
        assert len(result.measurements) == 1
        assert result.measurements[0].seed == 1

    def test_all_cells_failing_raises(self):
        from repro.faults import FaultPlan
        from repro.harness.parallel import run_trials_parallel

        plan = FaultPlan(worker_kill_rate=1.0)
        with pytest.raises(RuntimeError, match="every trial"):
            run_trials_parallel(
                BENCH, "baseline", trials=1, scale="test", jobs=2,
                fault_plan=plan, max_retries=0,
            )

    def test_stalled_worker_times_out_and_retries(self):
        from repro.faults import FaultPlan
        from repro.harness.parallel import run_trials_parallel

        clean = run_trials_parallel(BENCH, "baseline", trials=1, scale="test", jobs=2)
        times = PhaseTimes()
        failures = []
        plan = FaultPlan(
            stall_tasks=(f"measure:{BENCH}:baseline:test:1",),
            worker_stall_seconds=60.0,
            max_kill_attempts=1,  # the retry does not stall
        )
        survived = run_trials_parallel(
            BENCH, "baseline", trials=1, scale="test", jobs=2,
            fault_plan=plan, task_timeout=8.0, phase_times=times, failures=failures,
        )
        assert failures == []
        assert times.task_retries >= 1
        assert survived.cycles == clean.cycles

    def test_keyboard_interrupt_aborts_quickly(self):
        import os
        import signal
        import threading
        import time as time_mod

        from repro.faults import FaultPlan
        from repro.harness.parallel import run_trials_parallel

        plan = FaultPlan(worker_stall_rate=1.0, worker_stall_seconds=60.0)
        timer = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        started = time_mod.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_trials_parallel(
                    BENCH, "baseline", trials=2, scale="test", jobs=2, fault_plan=plan
                )
        finally:
            timer.cancel()
        # Without cancellation the coordinator would sit on 60s stalls.
        assert time_mod.monotonic() - started < 20.0

    def test_evaluate_all_reports_prepare_failure_and_keeps_rest(self, tmp_path):
        from repro.faults import FaultPlan

        failures = []
        plan = FaultPlan(kill_tasks=(f"prepare:{BENCH}",), max_kill_attempts=99)
        evaluations = evaluate_all(
            [BENCH], trials=1, scale="test", include_random=False, jobs=2,
            cache=ArtifactCache(tmp_path / "cache"),
            fault_plan=plan, max_retries=1, failures=failures,
        )
        assert evaluations == {}
        assert any(f.kind == "prepare" and f.workload == BENCH for f in failures)


class TestResumeMetrics:
    def test_resumed_run_does_not_double_count_journal_cells(self, tmp_path):
        """Obs counters after ``--resume`` reflect only fresh work.

        Completed cells loaded from the checkpoint journal land in the
        result dict, but must not fold into the metrics registry again —
        a resumed matrix that re-counted its journal would inflate
        ``harness.tasks`` (and every derived throughput number) versus
        the uninterrupted run it is supposed to be indistinguishable from.
        """
        from repro import obs
        from repro.harness.checkpoint import CheckpointJournal

        journal = CheckpointJournal(tmp_path / "ckpt.journal")
        with obs.collecting() as first_registry:
            first = evaluate_all(
                [BENCH], trials=1, scale="test", include_random=False, jobs=2,
                cache=ArtifactCache(tmp_path / "cache"), checkpoint=journal,
            )[BENCH]
        first_tasks = first_registry.snapshot().sum_counter("harness.tasks")
        completed = len(journal.load())
        assert first_tasks == completed > 0  # every cell ran exactly once

        with obs.collecting() as registry:
            resumed = evaluate_all(
                [BENCH], trials=1, scale="test", include_random=False, jobs=2,
                cache=ArtifactCache(tmp_path / "cache"), checkpoint=journal,
                resume=True,
            )[BENCH]
        snapshot = registry.snapshot()
        # Nothing was fresh, so no task (or retry) counters moved at all.
        assert snapshot.sum_counter("harness.tasks") == 0
        assert snapshot.sum_counter("harness.task_retries") == 0
        # And the journal did not grow: the resume re-ran nothing.
        assert len(journal.load()) == completed
        assert resumed.baseline.cycles == first.baseline.cycles
        assert resumed.halo.cycles == first.halo.cycles

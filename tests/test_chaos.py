"""End-to-end chaos suite: the pipeline under scheduled faults.

Every test here runs a real slice of the evaluation pipeline with a
fixed-seed :class:`FaultPlan` injecting the failure modes catalogued in
``docs/FAILURE_MODES.md`` — corrupted caches, dying workers, bad traces,
exhausted pools — and asserts the run *degrades* (retries, falls back,
reports) instead of dying or silently producing different numbers.

All tests carry the ``chaos`` marker so CI can run them as a dedicated
job (``pytest -m chaos``); they also run in the default suite.
"""

import logging
import zlib

import pytest

from repro.core.artifact_cache import ArtifactCache
from repro.faults import FaultPlan, fault_plan_active, inject_into_path
from repro.harness.checkpoint import CheckpointJournal
from repro.harness.parallel import run_trials_parallel
from repro.harness.prepare import PhaseTimes, get_or_record_trace, prepare_workload
from repro.harness.reproduce import evaluate_all
from repro.harness.runner import measure_halo
from repro.trace.format import EventTrace
from repro.workloads.base import get_workload

pytestmark = pytest.mark.chaos

BENCHMARKS = ["deepsjeng", "health", "art"]
BENCH = "deepsjeng"


def _evaluation_metrics(evaluation):
    return {
        config: (r.cycles, r.l1_misses)
        for config in ("baseline", "halo", "hds")
        for r in (getattr(evaluation, config),)
    }


class TestChaosMatrix:
    def test_corrupted_cache_and_killed_worker_reproduce_clean_run(self, tmp_path):
        """The acceptance run: ≥3 benchmarks, damaged cache, one killed cell.

        Only the faulted cells may degrade (re-record, retry); the final
        numbers must equal the clean run's, and nothing may end up in the
        failure report.
        """
        cache = ArtifactCache(tmp_path / "cache")
        clean = evaluate_all(
            BENCHMARKS, trials=1, scale="test", include_random=False,
            jobs=2, cache=cache,
        )
        damaged = inject_into_path(
            cache.root, FaultPlan(seed=1234, corrupt_mode="bitflip", corrupt_rate=1.0)
        )
        assert damaged, "the warm cache should have had entries to corrupt"

        times = PhaseTimes()
        failures = []
        plan = FaultPlan(
            seed=1234,
            kill_tasks=("measure:health:halo:test:1",),
            max_kill_attempts=1,
        )
        chaotic = evaluate_all(
            BENCHMARKS, trials=1, scale="test", include_random=False,
            jobs=2, cache=cache, phase_times=times,
            fault_plan=plan, failures=failures,
        )

        assert failures == []
        assert times.task_retries >= 1  # the killed cell came back
        assert times.cache_misses > 0  # the corrupted entries were rebuilt
        assert set(chaotic) == set(clean) == set(BENCHMARKS)
        for name in BENCHMARKS:
            assert _evaluation_metrics(chaotic[name]) == _evaluation_metrics(clean[name])
            assert chaotic[name].halo_groups == clean[name].halo_groups


class TestKillAndResume:
    def test_interrupted_run_resumes_to_identical_result(self, tmp_path):
        clean = evaluate_all(
            [BENCH], trials=1, scale="test", include_random=False, jobs=2
        )[BENCH]

        journal = CheckpointJournal(tmp_path / "ckpt.journal")
        failures = []
        plan = FaultPlan(
            kill_tasks=(f"measure:{BENCH}:hds:test:1",), max_kill_attempts=99
        )
        # jobs=1 keeps exactly one cell in flight, so the repeated kill
        # takes out only its own task — with max_retries=0, an innocent
        # bystander sharing the broken pool would die alongside it.
        interrupted = evaluate_all(
            [BENCH], trials=1, scale="test", include_random=False, jobs=1,
            fault_plan=plan, max_retries=0, checkpoint=journal, failures=failures,
        )
        # The hds config lost its only counted seed, so the benchmark is
        # reported failed — but every *other* cell was journalled.
        assert interrupted == {}
        assert len(failures) == 1
        done = journal.load()
        assert f"prepare:{BENCH}" in done
        assert f"measure:{BENCH}:hds:test:1" not in done
        assert len(done) == 6  # prepare + 3 configs x 2 seeds - the killed cell

        resumed = evaluate_all(
            [BENCH], trials=1, scale="test", include_random=False, jobs=2,
            checkpoint=journal, resume=True,
        )[BENCH]
        assert len(journal.load()) == 7
        assert _evaluation_metrics(resumed) == _evaluation_metrics(clean)
        assert resumed.halo_groups == clean.halo_groups
        assert resumed.graph_nodes == clean.graph_nodes


class TestCorruptTraceFallback:
    def test_replay_falls_back_to_direct_execution(self, caplog):
        trace = get_or_record_trace(BENCH)
        tampered = bytearray(trace.body)
        tampered[len(tampered) // 2] ^= 0xFF
        corrupt = EventTrace(trace.header, bytes(tampered), flags=trace.flags)
        assert not corrupt.verify()

        with caplog.at_level(logging.WARNING, logger="repro.harness.prepare"):
            degraded = prepare_workload(
                BENCH, trace=corrupt, use_trace=True, include_hds=False
            )
        assert any("falling back to direct execution" in r.message for r in caplog.records)

        direct = prepare_workload(BENCH, use_trace=False, include_hds=False)
        assert [sorted(g.members) for g in degraded.halo.groups] == [
            sorted(g.members) for g in direct.halo.groups
        ]
        workload = get_workload(BENCH)
        fallback_run = measure_halo(workload, degraded.halo, scale="test", seed=0)
        direct_run = measure_halo(workload, direct.halo, scale="test", seed=0)
        assert fallback_run.cycles == direct_run.cycles
        assert fallback_run.cache.l1_misses == direct_run.cache.l1_misses

    def test_cached_tampered_trace_is_re_recorded(self, tmp_path, caplog):
        from repro.harness.prepare import trace_key_for

        cache = ArtifactCache(tmp_path / "cache")
        trace = get_or_record_trace(BENCH, cache=cache)
        tampered = bytearray(trace.body)
        tampered[0] ^= 0xFF
        cache.put(
            trace_key_for(BENCH),
            EventTrace(trace.header, bytes(tampered), flags=trace.flags),
        )

        times = PhaseTimes()
        with caplog.at_level(logging.WARNING, logger="repro.harness.prepare"):
            recovered = get_or_record_trace(BENCH, cache=cache, times=times)
        assert any("re-recording" in r.message for r in caplog.records)
        assert recovered.verify()
        assert times.cache_misses == 1
        assert times.trace_records == 1
        assert zlib.crc32(recovered.body) == trace.header.crc32


class TestPoolExhaustion:
    def test_forced_exhaustion_degrades_but_serves_everything(self):
        # health is the heaviest grouper at test scale, so a one-chunk
        # budget genuinely runs its pools dry.
        prepared = prepare_workload("health", use_trace=False, include_hds=False)
        workload = get_workload("health")
        healthy = measure_halo(workload, prepared.halo, scale="test", seed=0)
        assert healthy.degraded_allocs == 0

        with fault_plan_active(FaultPlan(group_max_chunks=1)):
            squeezed = measure_halo(workload, prepared.halo, scale="test", seed=0)
        # The run completed — every request was served — but the grouped
        # pools ran dry and the overflow went to the fallback allocator.
        assert squeezed.degraded_allocs > 0
        assert squeezed.allocs == healthy.allocs
        assert squeezed.frees == healthy.frees


class TestRandomizedPlans:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_random_faults_complete_or_report_every_cell(self, tmp_path, seed):
        """Chaos soak: rate-based faults, fixed seeds, full accounting.

        Under random kills, stalls-turned-decode-errors, and state flips,
        every cell must end either measured or in the failure report —
        never lost, never hanging the engine.
        """
        plan = FaultPlan(
            seed=seed,
            worker_kill_rate=0.3,
            trace_decode_error_rate=0.3,
            state_flip_rate=0.02,
        )
        failures = []
        try:
            result = run_trials_parallel(
                BENCH, "halo", trials=2, scale="test", jobs=2,
                discard_first=False, cache=ArtifactCache(tmp_path / "cache"),
                fault_plan=plan, max_retries=3, failures=failures,
            )
            survived = len(result.measurements)
        except RuntimeError:
            survived = 0
        measure_failures = [f for f in failures if f.kind == "measure"]
        if any(f.kind == "prepare" for f in failures):
            assert survived == 0
        else:
            assert survived + len(measure_failures) == 2


class TestSanitizedEvaluation:
    """Serial and parallel evaluations agree under ``--sanitize``.

    The sanitizer runs in fail-fast mode, so a single invariant or oracle
    violation anywhere in the matrix would abort a cell and surface as a
    failure-report entry and a missing benchmark; a clean pass over the
    full benchmark suite is the zero-findings assertion.
    """

    def test_full_suite_serial_vs_parallel(self, tmp_path):
        from repro import obs
        from repro.harness.reproduce import PAPER_BENCHMARKS
        from repro.sanitize import SanitizerConfig, sanitizer_active

        cache = ArtifactCache(tmp_path / "cache")
        failures = []
        times = PhaseTimes()
        with sanitizer_active(SanitizerConfig(check_interval=512)):
            with obs.collecting() as registry:
                serial = evaluate_all(
                    PAPER_BENCHMARKS, trials=1, scale="test",
                    include_random=False, cache=cache,
                )
            parallel = evaluate_all(
                PAPER_BENCHMARKS, trials=1, scale="test",
                include_random=False, jobs=2, cache=cache,
                phase_times=times, failures=failures,
            )

        assert failures == []
        assert set(serial) == set(parallel) == set(PAPER_BENCHMARKS)
        for name in PAPER_BENCHMARKS:
            assert _evaluation_metrics(serial[name]) == _evaluation_metrics(parallel[name])
            assert serial[name].halo_groups == parallel[name].halo_groups

        # The sanitizer really ran, on both sides of the fork: the serial
        # pass counted its checks in the coordinator registry, the parallel
        # pass shipped worker counters back through PhaseTimes.metrics.
        coordinator = registry.snapshot().counters
        assert coordinator.get("sanitize.checks", 0) > 0
        assert coordinator.get("sanitize.findings", 0) == 0
        assert times.metrics is not None
        workers = times.metrics.counters
        assert workers.get("sanitize.checks", 0) > 0
        assert workers.get("sanitize.shadow.ops", 0) > 0
        assert workers.get("sanitize.findings", 0) == 0


class TestColumnarDifferential:
    """The columnar engine stays bit-identical to the per-event oracle
    even while faults and sanitizers reshape the run around it."""

    #: health's HALO artifact actually groups at test scale, so the
    #: state-flip selector corruption has placements to perturb.
    DIFF_BENCH = "health"

    @pytest.fixture(scope="class")
    def halo_inputs(self, tmp_path_factory):
        cache = ArtifactCache(tmp_path_factory.mktemp("cache"))
        trace = get_or_record_trace(self.DIFF_BENCH, cache=cache)
        prepared = prepare_workload(self.DIFF_BENCH, cache=cache, trace=trace)
        return get_workload(self.DIFF_BENCH), trace, prepared.halo

    def test_state_flip_plan_hits_both_engines_identically(self, halo_inputs):
        """State-corruption faults are a pure function of the allocation
        index, so the engines must agree on the *faulted* run too."""
        workload, trace, halo = halo_inputs
        plan = FaultPlan(seed=77, state_flip_rate=0.5)
        kwargs = dict(scale="test", seed=1, trace=trace)
        clean = measure_halo(workload, halo, **kwargs, engine="event")
        with fault_plan_active(plan):
            event = measure_halo(workload, halo, **kwargs, engine="event")
            columnar = measure_halo(workload, halo, **kwargs, engine="columnar")
        assert columnar == event
        # The plan really fired: flipped selector states change which
        # allocations the grouped pools capture.
        assert (event.grouped_allocs, event.forwarded_allocs) != (
            clean.grouped_allocs, clean.forwarded_allocs)

    def test_sanitizer_degrades_columnar_to_event_with_same_numbers(self, halo_inputs):
        from repro import obs
        from repro.harness.runner import resolve_engine
        from repro.sanitize import SanitizerConfig, sanitizer_active

        workload, trace, halo = halo_inputs
        kwargs = dict(scale="test", seed=1, trace=trace)
        plain = measure_halo(workload, halo, **kwargs, engine="columnar")
        with sanitizer_active(SanitizerConfig(check_interval=512)):
            assert resolve_engine("columnar", trace) == "event"
            with obs.collecting() as registry:
                sanitized = measure_halo(workload, halo, **kwargs, engine="columnar")
        counters = registry.snapshot().counters
        # The shadow heap observed the run, found nothing, and the
        # degraded-to-event measurement still matches the columnar one.
        assert counters.get("sanitize.shadow.ops", 0) > 0
        assert counters.get("sanitize.findings", 0) == 0
        assert sanitized == plain

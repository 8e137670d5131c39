"""Resilient cell runner: the one evaluation path for serial and ``--jobs`` runs.

The paper's evaluation is one matrix of independent cells, each a single
``(benchmark, configuration, seed)`` measurement.  Every entry point —
:func:`~repro.harness.reproduce.evaluate_all`, ``table1``, ``figure12``
and :func:`run_trials_parallel` — builds a list of :class:`Cell` values
and hands it to :func:`run_cells`: a prepare wave (profile + analyse once
per benchmark and parameter set), then one task per cell.  Seeds come
from :func:`~repro.harness.experiment.trial_seeds` and results fold
through :func:`~repro.harness.experiment.aggregate_trials`, so where a
cell ran never changes what it measured.

Execution: with ``jobs == 1``, no task timeout and no fault plan, each
task runs inline in the calling process — under the caller's sanitizer,
fault plan and metrics registry, with nothing pickled and, without a
cache, nothing written to disk.  Every other combination runs tasks in a
:class:`concurrent.futures.ProcessPoolExecutor`, because only a separate
process can be killed when a task times out or a fault drill kills its
worker.

Resilience (in both modes): the runner fails per *cell*, never per
*matrix*.  Each task runs under a bounded retry policy with exponential
backoff and an optional per-task timeout; a worker that dies (OOM-kill,
segfault, injected fault) breaks only its pool, which is rebuilt and the
in-flight cells resubmitted; a cell that exhausts its retries becomes a
:class:`FailedMeasurement` in the caller's failure list instead of an
exception that discards every other result.  With a
:class:`~repro.harness.checkpoint.CheckpointJournal` attached, every
completed cell is journalled as it lands, so an interrupted run resumes
from completed work — and, because cells are deterministic, a resumed run
is bit-identical to an uninterrupted one.  ``KeyboardInterrupt`` cancels
pending work and terminates in-flight workers instead of hanging on them.

Artifact handling: each process memoises the prepared artifacts and
decoded traces it loads, so the prepare wave's work is reused by every
cell that runs there.  A pool run shares them through the on-disk
:class:`~repro.core.artifact_cache.ArtifactCache` (a run-private
temporary directory when the caller disabled caching); an inline run
shares the memo directly and drops it when the run ends, so every call
starts cold.
"""

from __future__ import annotations

import hashlib
import logging
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from ..core.artifact_cache import ArtifactCache, artifact_key
from ..core.pipeline import HaloParams, optimise_profile
from ..core.selectors import monitored_sites
from ..faults.plan import FaultPlan, clear_fault_plan, install_fault_plan
from ..hds.pipeline import HdsParams
from ..sanitize.invariants import (
    SanitizerConfig,
    active_sanitizer,
    clear_sanitizer,
    install_sanitizer,
)
from ..obs import metrics as obs_metrics
from ..obs.spans import phase_span
from ..trace.format import EventTrace
from ..trace.replay import replay_profile
from .checkpoint import CheckpointJournal
from .experiment import TrialResult, aggregate_trials, trial_seeds
from .prepare import (
    PROFILE_SCALE,
    PhaseTimes,
    PreparedArtifacts,
    get_or_record_trace,
    halo_params_for,
    hds_params_for,
    prepare_workload,
    trace_key_for,
)
from .runner import CONFIGS, Measurement, measure
from ..workloads.base import Workload, get_workload

logger = logging.getLogger(__name__)

#: Configurations whose artifacts the prepare wave builds; each is also
#: the :class:`PreparedArtifacts` field holding them.
PREPARED_CONFIGS = ("halo", "hds")

#: Configurations a cell may name: the whole registry except ``calder``,
#: whose artifacts come from its own profiling pass, not the prepare wave.
CELL_CONFIGS = frozenset(CONFIGS) - {"calder"}


@dataclass(frozen=True)
class Cell:
    """One cell of the evaluation matrix: a single measured run.

    Parameters left at None are the workload's defaults.  *engine*
    selects the measurement backend: ``direct`` executes the workload,
    while ``auto``/``columnar``/``event`` measure from its event trace
    when *scale* is the trace-recording scale.
    """

    workload: str
    config: str
    seed: int
    scale: str = "ref"
    halo_params: Optional[HaloParams] = None
    hds_params: Optional[HdsParams] = None
    engine: str = "direct"

    @cached_property
    def params_tag(self) -> str:
        """Key suffix: empty at the workload's default parameters, else a digest."""
        if self.halo_params is None and self.hds_params is None:
            return ""
        workload = get_workload(self.workload)
        defaults = (halo_params_for(workload), hds_params_for(workload))
        params = (self.halo_params or defaults[0], self.hds_params or defaults[1])
        if params == defaults:
            return ""
        digest = artifact_key(
            workload=self.workload,
            profile_scale=PROFILE_SCALE,
            halo_params=params[0],
            hds_params=params[1],
        )
        return ":" + digest[:12]

    @property
    def key(self) -> str:
        """Journal and fault-plan key of this cell."""
        return f"measure:{self.workload}:{self.config}:{self.scale}:{self.seed}{self.params_tag}"

    def prepare_key(self, include_hds: bool) -> str:
        """Key of the prepare task that builds this cell's artifacts."""
        return f"prepare:{self.workload}{'' if include_hds else ':halo'}{self.params_tag}"


@dataclass
class PreparedSummary:
    """What a prepare task reports back to the coordinating process.

    The artifacts themselves stay in the cache / process memo; only the
    figure metadata and phase timings travel back over the pipe.
    """

    workload: str
    key: str
    halo_groups: int
    hds_groups: int
    hds_streams: int
    graph_nodes: int
    from_cache: bool
    times: PhaseTimes


@dataclass(frozen=True)
class FailedMeasurement:
    """A matrix cell that exhausted its retries.

    Carries enough identity to re-run the cell by hand; stands in the
    caller's failure list so one bad cell no longer poisons the matrix.
    """

    workload: str
    config: str
    scale: str
    seed: Optional[int]
    error: str
    attempts: int
    kind: str = "measure"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"{self.workload}/{self.config}" if self.config else self.workload
        seed = f" seed={self.seed}" if self.seed is not None else ""
        return (
            f"{self.kind} {where}{seed} failed after "
            f"{self.attempts} attempt(s): {self.error}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout envelope for one resilient run.

    Args:
        task_timeout: Seconds one task may run before its workers are
            terminated and the task is retried (None: no timeout).
        max_retries: Retries per task after its first attempt.
        backoff: Base delay before a retry; doubles per attempt, with
            deterministic per-task jitter (see :meth:`retry_delay`).
    """

    task_timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.25

    def retry_delay(self, key: str, attempt: int) -> float:
        """Backoff before retrying *attempt* of the task named *key*.

        Exponential with deterministic jitter in ``[0.5, 1.0)`` of the
        full step, keyed on ``(key, attempt)``: when many cells fail at
        once (a broken pool, a fault drill), their retries spread out
        instead of stampeding back in lockstep — and because the jitter
        is a pure hash, retry timing is reproducible run to run.  Timing
        only: results stay bit-identical to the serial path.
        """
        digest = hashlib.sha256(repr((key, attempt)).encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return self.backoff * (2 ** attempt) * (0.5 + 0.5 * unit)


# -- task bodies (run inline or in a worker process) -------------------------

#: Per-process memo of workloads, keyed by name.
_WORKLOADS: dict[str, Workload] = {}

#: Per-process memo of prepared artifacts, keyed by workload name and
#: (resolved) HALO/HDS parameters.
_PREPARED: dict[tuple, PreparedArtifacts] = {}

#: Per-process memo of decoded event traces, keyed by the trace cache key.
#: Decoding is the expensive part of a warm replay, so each process
#: decodes a given workload's trace at most once regardless of how many
#: cells or sweep points it processes.
_TRACES: dict[str, EventTrace] = {}


def _workload(name: str) -> Workload:
    """The workload called *name*, built once per process."""
    workload = _WORKLOADS.get(name)
    if workload is None:
        workload = _WORKLOADS[name] = get_workload(name)
    return workload


def _worker_task(
    fn: Callable,
    args: tuple,
    plan: Optional[FaultPlan],
    task_key: str,
    attempt: int,
    sanitize: Optional[SanitizerConfig] = None,
) -> tuple[Any, obs_metrics.MetricsSnapshot]:
    """Worker shim: run one task under the run's sanitizer and fault plan.

    Installs what the coordinator's process had active — the heap
    sanitizer config, which makes ``--jobs N --sanitize`` check exactly
    the ops a serial run would, and the fault plan, whose scheduled
    kills/stalls hit before any real work starts (like a crash at task
    pickup) — and collects the task's metrics in a fresh registry.
    Returns ``(value, metrics snapshot)``.
    """
    if sanitize is not None:
        install_sanitizer(sanitize)
    if plan is not None:
        install_fault_plan(plan)
    try:
        if plan is not None:
            plan.on_worker_task(task_key, attempt)
        with obs_metrics.collecting() as registry:
            value = fn(*args)
        return value, registry.snapshot()
    finally:
        if plan is not None:
            clear_fault_plan()
        if sanitize is not None:
            clear_sanitizer()


def _trace_for(name: str, cache_dir: Optional[str]) -> tuple[EventTrace, PhaseTimes]:
    """Fetch (or record) the event trace for *name* in this process.

    Mirrors :func:`_prepared_for`: the returned :class:`PhaseTimes` covers
    only work this call actually performed (zero on a memo hit).
    """
    key = trace_key_for(name)
    memo = _TRACES.get(key)
    if memo is not None:
        return memo, PhaseTimes()
    times = PhaseTimes()
    cache = ArtifactCache(cache_dir) if cache_dir else None
    trace = get_or_record_trace(name, cache=cache, times=times)
    _TRACES[key] = trace
    return trace, times


def _record_trace_task(name: str, cache_dir: Optional[str]) -> tuple[str, int, PhaseTimes]:
    """Task ensuring *name*'s trace exists in the shared cache."""
    trace, times = _trace_for(name, cache_dir)
    return name, trace.header.events, times


def _prepared_for(
    name: str,
    cache_dir: Optional[str],
    halo_params: Optional[HaloParams],
    hds_params: Optional[HdsParams],
    include_hds: bool = True,
) -> tuple[PreparedArtifacts, PhaseTimes]:
    """Fetch (or build) the prepared artifacts for *name* in this process.

    Returns the artifacts plus the phase time *this call* actually spent —
    zero on a process-memo hit, so repeated tasks in one process never
    re-account the original profile/analyse cost.
    """
    workload = _workload(name)
    key = (
        name,
        halo_params or halo_params_for(workload),
        hds_params or hds_params_for(workload),
    )
    memo = _PREPARED.get(key)
    if memo is not None and (memo.hds is not None or not include_hds):
        return memo, PhaseTimes()
    cache = ArtifactCache(cache_dir) if cache_dir else None
    prepared = prepare_workload(
        name,
        halo_params=halo_params,
        hds_params=hds_params,
        include_hds=include_hds,
        cache=cache,
        workload=workload,
    )
    _PREPARED[key] = prepared
    return prepared, prepared.times


def _prepare_task(
    name: str,
    cache_dir: Optional[str],
    halo_params: Optional[HaloParams],
    hds_params: Optional[HdsParams],
    include_hds: bool = True,
) -> PreparedSummary:
    """Task for the prepare wave: profile + analyse one benchmark."""
    prepared, times = _prepared_for(name, cache_dir, halo_params, hds_params, include_hds)
    return PreparedSummary(
        workload=name,
        key=prepared.key,
        halo_groups=len(prepared.halo.groups),
        hds_groups=len(prepared.hds.groups) if prepared.hds is not None else 0,
        hds_streams=prepared.hds.stream_count if prepared.hds is not None else 0,
        graph_nodes=len(prepared.profile.graph),
        from_cache=prepared.from_cache,
        times=times,
    )


def _measure_task(cell: Cell, cache_dir: Optional[str]) -> tuple[Measurement, PhaseTimes]:
    """Task for one cell: fetch its trace and artifacts, then measure."""
    times = PhaseTimes()
    workload = _workload(cell.workload)
    measure_kwargs: dict = {}
    if cell.engine != "direct" and cell.scale == PROFILE_SCALE:
        trace, trace_times = _trace_for(cell.workload, cache_dir)
        times.add(trace_times)
        measure_kwargs = {"trace": trace, "engine": cell.engine}
    artifacts = None
    if cell.config in PREPARED_CONFIGS:
        prepared, prep_times = _prepared_for(
            cell.workload,
            cache_dir,
            cell.halo_params,
            cell.hds_params,
            include_hds=cell.config == "hds",
        )
        times.add(prep_times)
        artifacts = getattr(prepared, cell.config)
    with phase_span(times, "measure", workload=cell.workload, config=cell.config):
        measurement = measure(
            workload, cell.config, artifacts, scale=cell.scale, seed=cell.seed,
            **measure_kwargs,
        )
    return measurement, times


# -- coordinator side ---------------------------------------------------------


class _InlineExecutor:
    """Executor that runs each task at submission, in the calling process.

    Shutting it down drops the process memos, so they never outlive the
    run that filled them.
    """

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        for memo in (_WORKLOADS, _PREPARED, _TRACES):
            memo.clear()


@dataclass
class _TaskSpec:
    """One schedulable cell: task callable plus reporting identity."""

    key: str
    fn: Callable
    args: tuple
    workload: str = ""
    config: str = ""
    scale: str = ""
    seed: Optional[int] = None
    kind: str = "measure"

    def failure(self, error: str, attempts: int) -> FailedMeasurement:
        return FailedMeasurement(
            workload=self.workload,
            config=self.config,
            scale=self.scale,
            seed=self.seed,
            error=error,
            attempts=attempts,
            kind=self.kind,
        )


@dataclass
class _RunReport:
    """Outcome of one resilient wave: fresh results, failures, churn.

    ``requeues`` counts healthy bystander tasks rescheduled because a
    *different* task broke or timed out the pool; ``pool_rebuilds``
    counts the teardown/rebuild cycles themselves.  ``metrics`` merges
    the snapshots worker processes sent back (None for inline runs,
    which publish to the caller's registry directly).
    """

    fresh: dict[str, Any] = field(default_factory=dict)
    failures: list[FailedMeasurement] = field(default_factory=list)
    retries: int = 0
    requeues: int = 0
    pool_rebuilds: int = 0
    metrics: Optional[obs_metrics.MetricsSnapshot] = None


class _ResilientRunner:
    """Task scheduler wrapping one (rebuildable) executor.

    Owns submission, per-task deadlines, bounded retry with exponential
    backoff, broken-pool recovery, journalling, and interrupt-safe
    teardown.  One runner is shared across the waves of a pipeline entry
    point so process memos survive between waves.  It runs tasks inline
    when nothing needs a separate process: one job, no timeout to
    enforce and no fault plan to inject.
    """

    def __init__(
        self,
        jobs: int,
        policy: RetryPolicy,
        fault_plan: Optional[FaultPlan] = None,
        journal: Optional[CheckpointJournal] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"need at least one job, got {jobs}")
        self.jobs = jobs
        self.policy = policy
        self.fault_plan = fault_plan
        self.inline = jobs == 1 and policy.task_timeout is None and fault_plan is None
        # Captured at construction on the coordinator: workers inherit the
        # same sanitizer configuration an inline run executes under.
        self.sanitize = active_sanitizer()
        self.journal = journal
        self._pool: Optional[Union[ProcessPoolExecutor, _InlineExecutor]] = None

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self) -> Union[ProcessPoolExecutor, _InlineExecutor]:
        if self._pool is None:
            self._pool = (
                _InlineExecutor() if self.inline else ProcessPoolExecutor(max_workers=self.jobs)
            )
        return self._pool

    def _submit(self, spec: _TaskSpec, attempt: int) -> Future:
        pool = self._ensure_pool()
        if self.inline:
            return pool.submit(spec.fn, *spec.args)
        return pool.submit(
            _worker_task, spec.fn, spec.args, self.fault_plan, spec.key, attempt, self.sanitize
        )

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting on in-flight work.

        Worker processes are terminated outright so a stalled or wedged
        task cannot block the coordinator (plain ``shutdown`` joins the
        workers, which is exactly the Ctrl-C hang this engine removes).
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Orderly shutdown after the last wave (waits for idle workers)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def abort(self) -> None:
        """Emergency teardown: cancel pending futures, terminate workers."""
        self._kill_pool()

    # -- scheduling --------------------------------------------------------

    def run(self, specs: Sequence[_TaskSpec]) -> _RunReport:
        """Run every spec to completion, retrying and degrading per policy.

        Returns the wave's report; never raises for task failures.
        ``KeyboardInterrupt`` (and ``SystemExit``) abort cleanly — pending
        futures are cancelled and workers terminated — then propagate.
        """
        report = _RunReport()
        try:
            self._run(specs, report)
        except (KeyboardInterrupt, SystemExit):
            logger.warning("interrupted: cancelling pending tasks and terminating workers")
            self.abort()
            raise
        return report

    def _run(self, specs: Sequence[_TaskSpec], report: _RunReport) -> None:
        pending: deque[tuple[_TaskSpec, int]] = deque((s, 0) for s in specs)
        delayed: list[tuple[float, _TaskSpec, int]] = []  # (ready_at, spec, attempt)
        # future -> (spec, attempt, deadline, submitted_at)
        running: dict[Future, tuple[_TaskSpec, int, Optional[float], float]] = {}
        timeout = self.policy.task_timeout

        def settle(spec: _TaskSpec, attempt: int, error: str) -> None:
            """Schedule a retry for a failed attempt, or record the failure."""
            if attempt < self.policy.max_retries:
                ready = time.monotonic() + self.policy.retry_delay(spec.key, attempt)
                delayed.append((ready, spec, attempt + 1))
                report.retries += 1
                obs_metrics.inc("harness.task_retries", 1, kind=spec.kind)
                logger.warning(
                    "task %s attempt %d failed (%s); retrying", spec.key, attempt, error
                )
            else:
                report.failures.append(spec.failure(error, attempts=attempt + 1))
                obs_metrics.inc("harness.task_failures", 1, kind=spec.kind)
                logger.error(
                    "task %s failed permanently after %d attempt(s): %s",
                    spec.key, attempt + 1, error,
                )

        def rebuild(bystanders: int) -> None:
            """Account one pool teardown and its requeued healthy tasks."""
            report.pool_rebuilds += 1
            obs_metrics.inc("harness.pool_rebuilds", 1)
            if bystanders:
                report.requeues += bystanders
                obs_metrics.inc("harness.task_requeues", bystanders)

        while pending or delayed or running:
            now = time.monotonic()
            # Promote retry-delayed tasks whose backoff has elapsed.
            ready = [entry for entry in delayed if entry[0] <= now]
            for entry in ready:
                delayed.remove(entry)
                pending.append((entry[1], entry[2]))
            # Keep at most `jobs` tasks in flight so a submitted task
            # starts (almost) immediately and its deadline is meaningful.
            while pending and len(running) < self.jobs:
                spec, attempt = pending.popleft()
                submitted = time.monotonic()
                future = self._submit(spec, attempt)
                deadline = None if timeout is None else submitted + timeout
                running[future] = (spec, attempt, deadline, submitted)
                obs_metrics.inc("harness.tasks", 1, kind=spec.kind)

            if not running:
                if delayed:  # nothing in flight; sleep out the next backoff
                    time.sleep(max(0.0, min(e[0] for e in delayed) - time.monotonic()))
                continue

            # Wait for the first completion, next deadline, or next retry.
            horizon: Optional[float] = None
            deadlines = [d for (_, _, d, _) in running.values() if d is not None]
            if deadlines:
                horizon = max(0.0, min(deadlines) - time.monotonic())
            if delayed:
                until_retry = max(0.0, min(e[0] for e in delayed) - time.monotonic())
                horizon = until_retry if horizon is None else min(horizon, until_retry)
            done, _ = wait(running, timeout=horizon, return_when=FIRST_COMPLETED)

            broken = False
            for future in done:
                spec, attempt, _, submitted = running.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool as exc:
                    # The dying worker poisons every in-flight future; each
                    # affected task is retried (the culprit re-draws its
                    # fate, innocents normally succeed on the fresh pool).
                    broken = True
                    settle(spec, attempt, f"worker process died ({exc!r})")
                except Exception as exc:
                    settle(spec, attempt, repr(exc))
                else:
                    obs_metrics.observe(
                        "harness.task_seconds", time.monotonic() - submitted, kind=spec.kind
                    )
                    if not self.inline:
                        value, snapshot = value
                        if report.metrics is None:
                            report.metrics = obs_metrics.MetricsSnapshot()
                        report.metrics.merge(snapshot)
                    report.fresh[spec.key] = value
                    if self.journal is not None:
                        self.journal.append(spec.key, value)
            if broken:
                self._kill_pool()
                rebuild(bystanders=len(running))
                for spec, attempt, _, _ in running.values():
                    pending.append((spec, attempt))  # bystanders keep their attempt
                running.clear()
                continue

            # Enforce per-task deadlines: a stalled worker cannot be
            # cancelled through the executor API, so the pool is torn down
            # and every in-flight task rescheduled (expired ones count a
            # failed attempt, bystanders do not).
            now = time.monotonic()
            expired = [
                future
                for future, (_, _, deadline, _) in running.items()
                if deadline is not None and now >= deadline
            ]
            if expired:
                self._kill_pool()
                for future in expired:
                    spec, attempt, _, _ = running.pop(future)
                    obs_metrics.inc("harness.task_timeouts", 1, kind=spec.kind)
                    settle(spec, attempt, f"timed out after {timeout:.1f}s")
                rebuild(bystanders=len(running))
                for spec, attempt, _, _ in running.values():
                    pending.append((spec, attempt))
                running.clear()


def _fold_report(phase_times: Optional[PhaseTimes], report: _RunReport) -> None:
    """Accumulate one wave's churn and worker metrics into *phase_times*."""
    if phase_times is None:
        return
    phase_times.task_retries += report.retries
    phase_times.requeues += report.requeues
    phase_times.pool_rebuilds += report.pool_rebuilds
    if report.metrics is not None:
        phase_times.add(PhaseTimes(metrics=report.metrics))


def _preload(
    journal: Optional[CheckpointJournal], resume: bool
) -> dict[str, Any]:
    """Completed cells a resumed run may skip (empty without ``resume``)."""
    if journal is None or not resume:
        return {}
    done = journal.load()
    if done:
        logger.info(
            "resuming from %s: %d completed cell(s) loaded", journal.path, len(done)
        )
    return done


def _as_journal(
    checkpoint: Optional[Union[CheckpointJournal, str, Path]]
) -> Optional[CheckpointJournal]:
    if checkpoint is None or isinstance(checkpoint, CheckpointJournal):
        return checkpoint
    return CheckpointJournal(checkpoint)


@contextmanager
def _shared_cache_dir(cache: Optional[ArtifactCache], inline: bool) -> Iterator[Optional[str]]:
    """The artifact-cache directory a run's tasks share (None: no cache).

    A pool run without a persistent cache gets a run-private temporary
    directory, so each benchmark is still profiled once rather than once
    per worker process; an inline run shares its process memo instead.
    """
    if cache is not None:
        cache.root.mkdir(parents=True, exist_ok=True)
        yield str(cache.root)
    elif inline:
        yield None
    else:
        with tempfile.TemporaryDirectory(prefix="halo-artifacts-") as tmp:
            yield tmp


def _check_names(cells: Sequence[Cell]) -> None:
    """Reject unknown workloads and configurations before scheduling.

    Both are deterministic errors: retried as cells, they would only be
    reported late (or dropped) instead of raised.
    """
    for name in dict.fromkeys(cell.workload for cell in cells):
        get_workload(name)
    unknown = sorted({cell.config for cell in cells} - CELL_CONFIGS)
    if unknown:
        raise ValueError(
            f"unknown configuration(s) {', '.join(unknown)}; "
            f"expected one of {', '.join(sorted(CELL_CONFIGS))}"
        )


@dataclass
class CellResults:
    """What :func:`run_cells` produced, journalled cells included.

    ``measured`` maps :attr:`Cell.key` to its measurement and ``prepared``
    maps :meth:`Cell.prepare_key` to its summary; failed cells are absent
    from both and listed in ``failures``.
    """

    measured: dict[str, Measurement]
    prepared: dict[str, PreparedSummary]
    failures: list[FailedMeasurement]

    def trials(self, cells: Sequence[Cell], discard_first: bool = True) -> Optional[TrialResult]:
        """Aggregate the surviving seeds of *cells* (None if none survived).

        The warm-up convention drops seed 0 *when it succeeded*; a failed
        warm-up cell must not silently promote seed 1 into its place.
        """
        by_seed = {c.seed: self.measured[c.key] for c in cells if c.key in self.measured}
        seeds = sorted(by_seed)
        if discard_first and 0 in by_seed:
            seeds = seeds[1:]
        if not seeds:
            return None
        return aggregate_trials([by_seed[s] for s in seeds], discard_first=False)


def run_cells(
    cells: Sequence[Cell],
    *,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    phase_times: Optional[PhaseTimes] = None,
    task_timeout: Optional[float] = None,
    max_retries: int = 2,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint: Optional[Union[CheckpointJournal, str, Path]] = None,
    resume: bool = False,
    failures: Optional[list[FailedMeasurement]] = None,
) -> CellResults:
    """Measure every cell: one prepare task per artifact set, then one task per cell.

    Args:
        cells: The cells to measure; HALO/HDS cells first get a prepare
            task per ``(workload, parameters)``, which also runs HDS
            analysis when any of them is an ``hds`` cell.
        jobs: Worker processes; ``1`` runs inline unless *task_timeout*
            or *fault_plan* needs a killable process.
        cache: Artifact cache for profiles and traces (None: profile
            afresh; inline runs then write nothing to disk).
        phase_times: Accumulates per-phase time, cache traffic, retry
            churn and worker-side metrics.
        task_timeout / max_retries: Per-task deadline and retry budget.
        fault_plan: Faults to inject in worker processes (drills).
        checkpoint / resume: Journal completed cells as they land; with
            *resume*, skip cells the journal already holds.
        failures: Receives a :class:`FailedMeasurement` per cell that
            exhausted its retries.  A cell whose prepare task failed is
            not measured.

    Unknown workload or configuration names raise before any work runs.
    """
    _check_names(cells)
    hds_wanted: dict[tuple[str, str], bool] = {}
    for cell in cells:
        if cell.config in PREPARED_CONFIGS:
            group = (cell.workload, cell.params_tag)
            hds_wanted[group] = hds_wanted.get(group, False) or cell.config == "hds"

    def prepare_key(cell: Cell) -> str:
        return cell.prepare_key(hds_wanted[cell.workload, cell.params_tag])

    prepares: dict[str, Cell] = {}
    for cell in cells:
        if cell.config in PREPARED_CONFIGS:
            prepares.setdefault(prepare_key(cell), cell)

    journal = _as_journal(checkpoint)
    done = _preload(journal, resume)
    runner = _ResilientRunner(
        jobs,
        RetryPolicy(task_timeout=task_timeout, max_retries=max_retries),
        fault_plan=fault_plan,
        journal=journal,
    )
    with _shared_cache_dir(cache, runner.inline) as cache_dir:
        try:
            prep = runner.run([
                _TaskSpec(
                    key=key,
                    fn=_prepare_task,
                    args=(
                        cell.workload, cache_dir, cell.halo_params, cell.hds_params,
                        hds_wanted[cell.workload, cell.params_tag],
                    ),
                    workload=cell.workload,
                    scale=cell.scale,
                    kind="prepare",
                )
                for key, cell in prepares.items()
                if key not in done
            ])
            prepared = {
                key: summary
                for key in prepares
                if (summary := prep.fresh.get(key, done.get(key))) is not None
            }
            measured = runner.run([
                _TaskSpec(
                    key=cell.key,
                    fn=_measure_task,
                    args=(cell, cache_dir),
                    workload=cell.workload,
                    config=cell.config,
                    scale=cell.scale,
                    seed=cell.seed,
                )
                for cell in cells
                if cell.key not in done
                and (cell.config not in PREPARED_CONFIGS or prepare_key(cell) in prepared)
            ])
        finally:
            runner.close()

    if phase_times is not None:
        for report in (prep, measured):
            _fold_report(phase_times, report)
        for summary in prep.fresh.values():
            phase_times.add(summary.times)
        for _, times in measured.fresh.values():
            phase_times.add(times)
    results = CellResults(
        measured={
            cell.key: value[0]
            for cell in cells
            if (value := measured.fresh.get(cell.key, done.get(cell.key))) is not None
        },
        prepared=prepared,
        failures=prep.failures + measured.failures,
    )
    if failures is not None:
        failures.extend(results.failures)
    return results


def run_trials_parallel(
    name: str,
    config: str = "baseline",
    trials: int = 3,
    scale: str = "ref",
    jobs: int = 2,
    discard_first: bool = True,
    halo_params: Optional[HaloParams] = None,
    hds_params: Optional[HdsParams] = None,
    engine: str = "direct",
    **options,
) -> TrialResult:
    """Cell-runner counterpart of :func:`~repro.harness.experiment.run_trials`.

    Runs the same seed sequence for one ``(benchmark, configuration)``
    pair and aggregates identically, so the resulting
    :class:`TrialResult` matches ``run_trials`` exactly.  *options* go to
    :func:`run_cells`.  Cells that fail despite retries land in
    ``failures`` (when given) and are excluded from the aggregate; if
    nothing survives, :class:`RuntimeError`.
    """
    cells = [
        Cell(name, config, seed, scale, halo_params, hds_params, engine)
        for seed in trial_seeds(trials, discard_first)
    ]
    results = run_cells(cells, jobs=jobs, **options)
    result = results.trials(cells, discard_first)
    if result is None:
        raise RuntimeError(
            f"every trial of {name}/{config} failed: "
            + "; ".join(str(f) for f in results.failures)
        )
    return result


# -- trace-driven parameter sweeps --------------------------------------------


@dataclass
class SweepPoint:
    """Offline-pipeline summary for one parameter configuration.

    What a sweep wants to see per config: how the affinity graph and the
    resulting grouping/instrumentation respond to the knobs.  All fields
    derive from a trace replay — no workload execution is involved.
    """

    workload: str
    affinity_distance: int
    merge_tolerance: float
    max_groups: Optional[int]
    groups: int
    grouped_contexts: int
    graph_nodes: int
    monitored_sites: int
    times: PhaseTimes = field(default_factory=PhaseTimes)


def _sweep_task(
    name: str, halo_params: HaloParams, cache_dir: Optional[str]
) -> SweepPoint:
    """Task for one sweep point: one pipeline run from trace for one config."""
    times = PhaseTimes()
    trace, trace_times = _trace_for(name, cache_dir)
    times.add(trace_times)
    workload = _workload(name)
    with phase_span(times, "profile", workload=name, source="trace"):
        profile = replay_profile(trace, workload.program, halo_params)
    times.trace_replays += 1
    with phase_span(times, "analyse", workload=name):
        artifacts = optimise_profile(profile, halo_params)
    return SweepPoint(
        workload=name,
        affinity_distance=halo_params.affinity.distance,
        merge_tolerance=halo_params.grouping.merge_tolerance,
        max_groups=halo_params.max_groups,
        groups=len(artifacts.groups),
        grouped_contexts=sum(len(g.members) for g in artifacts.groups),
        graph_nodes=len(profile.graph),
        monitored_sites=len(monitored_sites(artifacts.identification.selectors)),
        times=times,
    )


def _sweep_key(name: str, config: HaloParams) -> str:
    """Stable journal key for one sweep point (parameter-content hash)."""
    digest = artifact_key(
        workload=name,
        profile_scale=PROFILE_SCALE,
        halo_params=config,
        kind="sweep-point",
    )
    return f"sweep:{name}:{digest[:16]}"


def run_sweep_parallel(
    name: str,
    configs: Sequence[HaloParams],
    jobs: int = 2,
    cache: Optional[ArtifactCache] = None,
    phase_times: Optional[PhaseTimes] = None,
    task_timeout: Optional[float] = None,
    max_retries: int = 2,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint: Optional[Union[CheckpointJournal, str, Path]] = None,
    resume: bool = False,
    failures: Optional[list[FailedMeasurement]] = None,
) -> list[SweepPoint]:
    """Fan a trace-driven parameter sweep out over worker processes.

    The workload is recorded at most once (a first wave populates the
    shared trace cache); every configuration then replays the recording.
    Point order follows *configs*; points that fail every retry are
    omitted and reported via *failures*.  A corrupt trace never fails a
    point: the replay layer falls back to direct execution per
    :func:`~repro.harness.prepare.prepare_workload` semantics.
    """
    if jobs < 1:
        raise ValueError(f"need at least one job, got {jobs}")
    total = PhaseTimes()
    journal = _as_journal(checkpoint)
    done = _preload(journal, resume)
    runner = _ResilientRunner(
        jobs,
        RetryPolicy(task_timeout=task_timeout, max_retries=max_retries),
        fault_plan=fault_plan,
        journal=journal,
    )
    with _shared_cache_dir(cache, runner.inline) as cache_dir:
        try:
            record_key = f"record:{name}"
            if record_key not in done:
                record = runner.run([
                    _TaskSpec(
                        key=record_key,
                        fn=_record_trace_task,
                        args=(name, cache_dir),
                        workload=name,
                        kind="record",
                    )
                ])
                all_record_failures = record.failures
                _fold_report(total, record)
                for _, _, record_times in record.fresh.values():
                    total.add(record_times)
            else:
                all_record_failures = []
            keys = [_sweep_key(name, config) for config in configs]
            specs = [
                _TaskSpec(
                    key=key,
                    fn=_sweep_task,
                    args=(name, config, cache_dir),
                    workload=name,
                    config=f"point-{index}",
                    kind="sweep",
                )
                for index, (key, config) in enumerate(zip(keys, configs))
                if key not in done
            ]
            report = runner.run(specs)
        finally:
            runner.close()
    results = dict(done)
    results.update(report.fresh)
    points = [results[key] for key in keys if key in results]
    for point in report.fresh.values():
        if isinstance(point, SweepPoint):
            total.add(point.times)
    _fold_report(total, report)
    if failures is not None:
        failures.extend(all_record_failures)
        failures.extend(report.failures)
    if phase_times is not None:
        phase_times.add(total)
    return points

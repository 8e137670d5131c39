"""Command-line interface, mirroring the paper artefact's ``halo`` tool.

The artefact appendix (Section A.5) describes ``halo baseline``, ``halo
run`` and ``halo plot``; this module provides the same verbs against the
simulation:

* ``halo baseline -b povray`` — measure a benchmark under jemalloc-like
  placement;
* ``halo run -b povray [--affinity-distance 128] [--chunk-size N]
  [--max-spare-chunks N] [--max-groups N]`` — run the full HALO pipeline
  and report the optimised measurement (the appendix's per-benchmark flags
  are accepted);
* ``halo plot --figure 13|14|15 [--out DIR] [--jobs N]`` — regenerate a
  paper figure as an ASCII chart plus JSON data points, optionally fanning
  the evaluation matrix out over N worker processes;
* ``halo plot --figure 12`` / ``--table 1`` — likewise for the sweep and
  the fragmentation table;
* ``halo trace record|info|replay|sweep`` — capture a workload's complete
  machine-event stream once, then inspect it, re-measure from it, or sweep
  pipeline parameters against it without ever re-executing the workload;
* ``halo faults inject DIR`` — reproducibly corrupt cached artifacts and
  traces on disk (resilience testing; consumers must degrade, not die);
* ``halo sanitize fuzz`` — differentially fuzz the allocator families
  against the shadow-heap oracle and invariant checker (the same checks
  ``--sanitize`` attaches to ``baseline``/``run``/``plot`` measurements);
  ``--scenarios N`` adds generated-scenario op sequences to the matrix;
* ``halo scenario gen|info|run|corpus`` — seeded generated workloads:
  derive a corpus with golden config hashes, inspect or quick-run a
  generated name (``scn-7``, ``mix-5x3-rr``) or config file, and verify
  a committed corpus manifest (see ``docs/SCENARIOS.md``);
* ``halo obs export|summary|check`` — inspect a metrics snapshot written
  by ``--metrics-out`` (on ``plot`` and ``trace sweep``), convert it to
  Prometheus text or a Perfetto-loadable Chrome trace, or gate it against
  a committed ``BENCH_*.json`` baseline (see ``docs/OBSERVABILITY.md``);
* ``halo list`` — show the available benchmarks.

``halo plot`` runs are resilient at any ``--jobs``: ``--task-timeout``
bounds any single task (it runs in a killable worker process),
``--max-retries`` bounds per-cell retries, and ``--resume`` continues an
interrupted matrix from its checkpoint journal.

Profiling artifacts are cached under ``--cache-dir`` (default
``.halo-cache``; disable with ``--no-cache``), so a warm re-run skips the
profile and analyse phases — the per-phase wall-time report printed after
``run``/``plot`` shows exactly what was skipped.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Iterator, Optional

from . import obs
from .allocators import ALLOCATOR_FAMILIES
from .analysis.report import (
    allocator_health_table,
    bar_chart,
    format_table,
    resilience_summary,
    to_json,
)
from .core.artifact_cache import ArtifactCache
from .core.pipeline import optimise_profile, profile_workload
from .harness import reproduce
from .harness.prepare import PhaseTimes, prepare_workload
from .harness.runner import measure_baseline, measure_family, measure_halo
from .sanitize import FAMILIES as SANITIZE_FAMILIES
from .workloads.base import WorkloadError, get_workload, resolve_scale, workload_names

#: Default on-disk artifact cache location (overridden by ``--cache-dir``).
DEFAULT_CACHE_DIR = Path(".halo-cache")


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help="directory for cached profiling artifacts (default: .halo-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact cache (profile from scratch)",
    )


def cache_from_args(args: argparse.Namespace) -> Optional[ArtifactCache]:
    """The artifact cache selected by ``--cache-dir``/``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    return ArtifactCache(args.cache_dir)


def _add_benchmark_arg(parser: argparse.ArgumentParser) -> None:
    # Not constrained by `choices`: generated scenario names (scn-*/mix-*)
    # are valid targets but only materialise on resolution.
    parser.add_argument(
        "-b", "--benchmark", required=True,
        help="target benchmark (see `halo list`; also accepts generated "
        "scenario names like scn-7 or mix-5x3-rr)",
    )


def _workload_or_exit(name: str):
    """Resolve *name* to a workload, exiting with a clean CLI error."""
    try:
        return get_workload(name)
    except WorkloadError as exc:
        raise SystemExit(f"error: {exc}") from None


def _check_scale(args: argparse.Namespace) -> None:
    """Fail fast on an unknown ``--scale`` (before any expensive phase)."""
    scale = getattr(args, "scale", None)
    if scale is None:
        return
    try:
        resolve_scale(scale)
    except WorkloadError as exc:
        raise SystemExit(f"error: {exc}") from None


def _add_sanitize_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize",
        nargs="?",
        const=1024,
        type=int,
        default=None,
        metavar="N",
        help="enable the heap sanitizer: shadow-heap oracle on every heap op "
        "plus a full invariant walk every N ops (default 1024 when the flag "
        "is given bare); see docs/SANITIZER.md",
    )


@contextlib.contextmanager
def _sanitize_session(args: argparse.Namespace) -> Iterator[None]:
    """Scope the heap sanitizer over a command when ``--sanitize`` was given.

    The config is installed process-globally, so it reaches every machine
    the command constructs — including in worker processes under
    ``--jobs N``, which inherit it through the parallel harness.
    """
    interval = getattr(args, "sanitize", None)
    if interval is None:
        yield
        return
    from .sanitize import SanitizerConfig, sanitizer_active

    with sanitizer_active(SanitizerConfig(check_interval=interval)):
        yield


def _add_metrics_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE.json",
        help="write an observability snapshot (counters, gauges, spans) "
        "here; inspect it with `halo obs`",
    )


@contextlib.contextmanager
def _metrics_session(
    path: Optional[Path], times: Optional[PhaseTimes] = None
) -> Iterator[None]:
    """Install a metrics registry for the duration of a command.

    No-op (observability fully disabled) unless ``--metrics-out`` was
    given.  On exit the registry is uninstalled, worker-side metrics
    carried back on *times* are merged in, and the combined snapshot is
    written to *path* as JSON.
    """
    if path is None:
        yield
        return
    registry = obs.MetricsRegistry()
    obs.install(registry)
    try:
        yield
    finally:
        obs.uninstall()
        snapshot = registry.snapshot()
        if times is not None and times.metrics is not None:
            snapshot.merge(times.metrics)
        path.write_text(obs.snapshot_to_json(snapshot))
        print(f"wrote metrics snapshot {path}")


def _parse_benchmarks(args: argparse.Namespace) -> Optional[tuple[str, ...]]:
    """The validated ``--benchmarks`` list, or None for the paper default."""
    raw = getattr(args, "benchmarks", None)
    if raw is None:
        return None
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    # Resolving (rather than checking against workload_names()) lets
    # generated scenario names through; each resolves or errors cleanly.
    for name in names:
        _workload_or_exit(name)
    if not names:
        raise SystemExit("error: --benchmarks is empty")
    return names


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    """Flags of the resilient entry points.

    ``halo plot`` honours them at any ``--jobs``; ``trace sweep`` only
    with ``--jobs > 1``.
    """
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any task running longer than this "
        "(tasks then run in worker processes, even at --jobs 1)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per failed matrix cell before it is reported failed (default: 2)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the checkpoint journal beside the artifact cache, "
        "skipping already-completed cells",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halo", description="HALO heap-layout optimisation (simulated reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    baseline = sub.add_parser(
        "baseline",
        help="measure an un-optimised allocator family (jemalloc-like default)",
    )
    _add_benchmark_arg(baseline)
    baseline.add_argument("--scale", default="ref", help="input scale (test/train/ref)")
    baseline.add_argument("--seed", type=int, default=1)
    baseline.add_argument(
        "-a", "--allocator",
        choices=tuple(ALLOCATOR_FAMILIES),
        default="baseline",
        help="allocator family to measure (default: the size-class baseline; "
        "freelist-ff/freelist-bf are coalescing free lists, arena is "
        "per-thread arenas with a cross-thread free mailbox)",
    )
    _add_sanitize_arg(baseline)
    _add_metrics_arg(baseline)

    run = sub.add_parser("run", help="run the full HALO pipeline on a benchmark")
    _add_benchmark_arg(run)
    run.add_argument("--scale", default="ref")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--affinity-distance", type=int, default=None)
    run.add_argument("--chunk-size", type=int, default=None)
    run.add_argument("--max-spare-chunks", type=int, default=None)
    run.add_argument("--max-groups", type=int, default=None)
    run.add_argument(
        "--profile",
        type=Path,
        default=None,
        metavar="FILE.json",
        help="reuse a saved profile instead of re-profiling",
    )
    run.add_argument("--show-groups", action="store_true", help="print the allocation groups")
    _add_sanitize_arg(run)
    _add_cache_args(run)
    run.add_argument(
        "--dump-graph",
        type=Path,
        default=None,
        metavar="FILE.dot",
        help="write the grouped affinity graph as Graphviz DOT (paper Figure 9)",
    )

    prof = sub.add_parser("profile", help="profile a benchmark and save the model")
    _add_benchmark_arg(prof)
    prof.add_argument("-o", "--output", type=Path, required=True, metavar="FILE.json")
    prof.add_argument("--scale", default="test")
    prof.add_argument("--affinity-distance", type=int, default=None)
    prof.add_argument(
        "--include-trace",
        action="store_true",
        help="also store the object reference trace (needed for HDS analysis)",
    )

    plot = sub.add_parser("plot", help="regenerate a paper figure or table")
    group = plot.add_mutually_exclusive_group(required=True)
    group.add_argument("--figure", type=int, choices=(12, 13, 14, 15))
    group.add_argument("--table", type=int, choices=(1,))
    plot.add_argument("--trials", type=int, default=3)
    plot.add_argument(
        "--benchmarks",
        metavar="NAME,NAME,...",
        default=None,
        help="comma-separated benchmark subset (default: the paper's set; "
        "ignored by --figure 12, which sweeps a fixed pair)",
    )
    plot.add_argument(
        "--scale",
        default="ref",
        help="measurement input scale (test/train/ref; default: ref)",
    )
    plot.add_argument("--out", type=Path, default=None, help="directory for JSON output")
    plot.add_argument(
        "--engine",
        choices=("direct", "auto", "columnar", "event"),
        default="direct",
        help="measurement backend for the figure matrix: direct executes "
        "workloads; auto/columnar/event measure from recorded event traces "
        "(requires --scale test, the trace-recording scale)",
    )
    plot.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the evaluation matrix (default: 1, serial)",
    )
    plot.add_argument(
        "--families",
        metavar="NAME,NAME,...",
        default=None,
        help="extra standalone allocator families to measure alongside the "
        "paper configurations (from: "
        + ",".join(f for f in ALLOCATOR_FAMILIES if f != "baseline")
        + "); reported in the per-family speedup table "
        "(ignored by --figure 12 and --table 1)",
    )
    _add_resilience_args(plot)
    _add_sanitize_arg(plot)
    _add_cache_args(plot)
    _add_metrics_arg(plot)

    trace = sub.add_parser(
        "trace", help="record, inspect, replay, and sweep machine-event traces"
    )
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    t_record = tsub.add_parser("record", help="record a workload's event trace")
    _add_benchmark_arg(t_record)
    t_record.add_argument("--scale", default="test", help="input scale (test/train/ref)")
    t_record.add_argument("--seed", type=int, default=0)
    t_record.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        metavar="FILE.trace",
        help="output path (default: <benchmark>-<scale>.trace)",
    )
    _add_metrics_arg(t_record)

    t_info = tsub.add_parser("info", help="summarise a recorded trace")
    t_info.add_argument("trace", type=Path, help="trace file to inspect")

    t_replay = tsub.add_parser(
        "replay", help="re-measure a recorded run (no workload execution)"
    )
    t_replay.add_argument(
        "traces", type=Path, nargs="+", metavar="TRACE",
        help="trace file(s) to replay",
    )
    t_replay.add_argument("--seed", type=int, default=1, help="address-space seed")
    t_replay.add_argument(
        "--engine",
        choices=("auto", "columnar", "event"),
        default="auto",
        help="measurement backend (default: auto, which picks the columnar "
        "core unless a sanitizer is active)",
    )
    _add_metrics_arg(t_replay)

    t_sweep = tsub.add_parser(
        "sweep", help="sweep pipeline parameters against one recorded trace"
    )
    t_sweep.add_argument("trace", type=Path, help="trace file to sweep against")
    knob = t_sweep.add_mutually_exclusive_group(required=True)
    knob.add_argument(
        "--affinity-distance",
        metavar="A,A,...",
        help="comma-separated affinity window sizes (paper Figure 12)",
    )
    knob.add_argument(
        "--merge-tolerance",
        metavar="T,T,...",
        help="comma-separated grouping merge tolerances",
    )
    knob.add_argument(
        "--max-groups",
        metavar="N,N,...",
        help="comma-separated group-count caps",
    )
    t_sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1, in-process with a shared decode)",
    )
    _add_resilience_args(t_sweep)
    _add_cache_args(t_sweep)
    _add_metrics_arg(t_sweep)

    faults = sub.add_parser(
        "faults", help="deterministic fault injection for resilience testing"
    )
    fsub = faults.add_subparsers(dest="faults_command", required=True)
    f_inject = fsub.add_parser(
        "inject",
        help="corrupt cached artifact/trace files on disk, reproducibly",
    )
    f_inject.add_argument(
        "target",
        type=Path,
        help="file or directory (e.g. the artifact cache) to damage",
    )
    f_inject.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (default: 0)"
    )
    f_inject.add_argument(
        "--mode",
        choices=("bitflip", "truncate"),
        default="bitflip",
        help="corruption applied to each selected file (default: bitflip)",
    )
    f_inject.add_argument(
        "--rate",
        type=float,
        default=1.0,
        metavar="P",
        help="per-file probability of corruption when targeting a directory "
        "(default: 1.0, every injectable file)",
    )

    obs_parser = sub.add_parser(
        "obs", help="inspect, export, and regression-check metrics snapshots"
    )
    osub = obs_parser.add_subparsers(dest="obs_command", required=True)

    o_export = osub.add_parser(
        "export", help="convert a snapshot to another observability format"
    )
    o_export.add_argument(
        "-i", "--input", type=Path, required=True, metavar="SNAP.json",
        help="snapshot written by --metrics-out",
    )
    o_export.add_argument(
        "--format",
        choices=obs.EXPORT_FORMATS,
        default="jsonl",
        help="output format (chrome-trace loads in Perfetto / chrome://tracing)",
    )
    o_export.add_argument(
        "-o", "--output", type=Path, default=None, metavar="FILE",
        help="write here instead of stdout",
    )

    o_summary = osub.add_parser("summary", help="human-readable snapshot summary")
    o_summary.add_argument(
        "-i", "--input", type=Path, required=True, metavar="SNAP.json",
        help="snapshot written by --metrics-out",
    )

    o_check = osub.add_parser(
        "check", help="compare a snapshot against a committed benchmark baseline"
    )
    o_check.add_argument(
        "-i", "--input", type=Path, required=True, metavar="SNAP.json",
        help="snapshot written by --metrics-out",
    )
    o_check.add_argument(
        "--baseline", type=Path, required=True, metavar="BENCH.json",
        help="committed baseline (BENCH_eval_walltime.json / BENCH_trace_replay.json)",
    )
    o_check.add_argument(
        "--tolerance", type=float, default=0.5, metavar="F",
        help="allowed fractional regression before failing (default: 0.5)",
    )

    sanitize = sub.add_parser(
        "sanitize", help="heap-sanitizer tools (differential allocator fuzzing)"
    )
    szsub = sanitize.add_subparsers(dest="sanitize_command", required=True)
    s_fuzz = szsub.add_parser(
        "fuzz",
        help="fuzz the allocator families against the shadow-heap oracle",
    )
    s_fuzz.add_argument("--seed", type=int, default=0, help="scenario seed")
    s_fuzz.add_argument(
        "--ops", type=int, default=20000, help="heap ops per scenario (default: 20000)"
    )
    s_fuzz.add_argument(
        "--family",
        choices=("all",) + SANITIZE_FAMILIES,
        default="all",
        help="restrict to one allocator family (default: all)",
    )
    s_fuzz.add_argument(
        "--scenarios",
        type=int,
        default=0,
        metavar="N",
        help="additionally fuzz N generated-scenario op sequences (sizes and "
        "lifetime churn from seeded scenario specs; default: 0, off)",
    )

    scenario = sub.add_parser(
        "scenario",
        help="generated workloads: seeded corpora, spec inspection, quick runs",
    )
    scsub = scenario.add_subparsers(dest="scenario_command", required=True)

    sc_gen = scsub.add_parser(
        "gen", help="derive a seeded corpus and print its golden hashes"
    )
    sc_gen.add_argument("--seed", type=int, default=0, help="corpus seed (default: 0)")
    sc_gen.add_argument(
        "--scenarios", type=int, default=4,
        help="single-tenant scenarios in the corpus (default: 4)",
    )
    sc_gen.add_argument(
        "--mixes", type=int, default=2,
        help="multi-tenant mixes in the corpus (default: 2)",
    )
    sc_gen.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="materialise the manifest plus every spec as JSON here",
    )

    sc_info = scsub.add_parser(
        "info", help="show the full spec behind a generated name or config file"
    )
    sc_info.add_argument(
        "scenario", help="generated name (scn-7, mix-5x3-rr) or spec file (.json/.toml)"
    )
    sc_info.add_argument(
        "--json", action="store_true", help="print the canonical JSON instead"
    )

    sc_run = scsub.add_parser(
        "run", help="quick baseline-vs-HALO comparison of one generated workload"
    )
    sc_run.add_argument(
        "scenario", help="generated name (scn-7, mix-5x3-rr) or spec file (.json/.toml)"
    )
    sc_run.add_argument("--scale", default="test", help="input scale (default: test)")
    sc_run.add_argument("--seed", type=int, default=1)
    _add_sanitize_arg(sc_run)

    sc_corpus = scsub.add_parser(
        "corpus", help="verify a corpus manifest against freshly re-sampled specs"
    )
    sc_corpus.add_argument(
        "--manifest", type=Path, default=Path("corpora/default.json"),
        metavar="FILE.json",
        help="manifest to verify (default: corpora/default.json)",
    )

    serve = sub.add_parser(
        "serve", help="long-running serving daemon with online re-optimisation"
    )
    svsub = serve.add_subparsers(dest="serve_command", required=True)

    def _add_serve_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="session seed")
        p.add_argument(
            "--requests", type=int, default=240, help="requests to serve (default: 240)"
        )
        p.add_argument(
            "--epoch-requests", type=int, default=24,
            help="requests per decision epoch (default: 24)",
        )
        p.add_argument(
            "--window", type=int, default=3,
            help="profile/trace sliding-window length in epochs (default: 3)",
        )
        p.add_argument(
            "--regroup-every", type=int, default=2,
            help="scheduled re-grouping period in epochs (default: 2)",
        )
        p.add_argument(
            "--cooldown", type=int, default=2,
            help="epochs to back off after a rollback or abort (default: 2)",
        )
        p.add_argument(
            "--request-factor", type=float, default=0.05,
            help="workload scale factor per request (default: 0.05)",
        )
        p.add_argument(
            "--drift-threshold", type=float, default=0.25,
            help="windowed distribution distance that counts as drift (default: 0.25)",
        )
        p.add_argument(
            "--snapshot-every", type=int, default=1,
            help="epochs between crash-safe snapshots (default: 1)",
        )
        p.add_argument(
            "--phase",
            action="append",
            default=None,
            metavar="START:W=WEIGHT[,W=WEIGHT...]",
            help="request-mix phase, e.g. '0:health=3,ft=1'; repeat for "
            "drifting traffic (default: the built-in two-phase schedule)",
        )
        p.add_argument(
            "--state-dir", type=Path, default=None, metavar="DIR",
            help="directory for crash-safe snapshot journals (enables --resume)",
        )

    s_run = svsub.add_parser("run", help="run one deterministic serving session")
    _add_serve_config_args(s_run)
    s_run.add_argument(
        "--resume", action="store_true",
        help="continue from the newest intact snapshot in --state-dir",
    )
    s_run.add_argument(
        "--stop-after", type=int, default=None, metavar="N",
        help="stop after N requests served in this process (restart testing)",
    )
    s_run.add_argument(
        "--stop-mode", choices=("term", "kill"), default="term",
        help="how --stop-after ends the session: 'term' flushes a snapshot, "
        "'kill' simulates a crash (default: term)",
    )
    _add_metrics_arg(s_run)

    s_status = svsub.add_parser(
        "status", help="summarise snapshot journals in a state directory"
    )
    s_status.add_argument(
        "state_dir", type=Path, help="directory holding serve-*.journal files"
    )

    s_drill = svsub.add_parser(
        "drill", help="run a session under the serve-layer fault drill"
    )
    _add_serve_config_args(s_drill)
    s_drill.add_argument("--drill-seed", type=int, default=0, help="fault-plan seed")
    s_drill.add_argument(
        "--swap-flip", type=float, default=0.35,
        help="per-step mid-migration flip probability (default: 0.35)",
    )
    s_drill.add_argument(
        "--canary-flip", type=float, default=0.25,
        help="per-epoch forced-rollback probability (default: 0.25)",
    )
    s_drill.add_argument(
        "--regroup-stall", type=float, default=0.25,
        help="per-epoch re-grouper stall probability (default: 0.25)",
    )
    s_drill.add_argument(
        "--snapshot-corrupt", type=float, default=0.35,
        help="per-snapshot corruption probability (default: 0.35)",
    )
    _add_metrics_arg(s_drill)

    sub.add_parser("list", help="list available benchmarks")
    return parser


def _cmd_baseline(args: argparse.Namespace) -> int:
    _check_scale(args)
    workload = _workload_or_exit(args.benchmark)
    with _metrics_session(args.metrics_out):
        measurement = measure_family(
            workload, args.allocator, scale=args.scale, seed=args.seed
        )
    print(
        format_table(
            ["metric", "value"],
            [
                ["cycles", f"{measurement.cycles:,.0f}"],
                ["heap accesses", f"{measurement.accesses:,}"],
                ["L1D misses", f"{measurement.cache.l1_misses:,}"],
                ["L2 misses", f"{measurement.cache.l2_misses:,}"],
                ["L3 misses", f"{measurement.cache.l3_misses:,}"],
                ["DTLB misses", f"{measurement.cache.tlb_misses:,}"],
                ["peak live bytes", f"{measurement.peak_live_bytes:,}"],
            ],
            title=f"{args.benchmark} {args.allocator} ({args.scale})",
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    _check_scale(args)
    workload = _workload_or_exit(args.benchmark)
    overrides = {}
    if args.chunk_size is not None:
        overrides["chunk_size"] = args.chunk_size
    if args.max_spare_chunks is not None:
        overrides["max_spare_chunks"] = args.max_spare_chunks
    if args.max_groups is not None:
        overrides["max_groups"] = args.max_groups
    params = reproduce.halo_params_for(workload, **overrides)
    if args.affinity_distance is not None:
        params = params.with_affinity_distance(args.affinity_distance)

    if args.profile is not None:
        from .profiling import load_profile

        profile = load_profile(args.profile, workload.program)
        artifacts = optimise_profile(profile, params)
    else:
        prepared = prepare_workload(
            args.benchmark,
            halo_params=params,
            include_hds=False,
            cache=cache_from_args(args),
            workload=workload,
        )
        artifacts = prepared.halo
    if args.show_groups:
        for line in artifacts.describe_groups():
            print(line)
    if args.dump_graph is not None:
        from .analysis.graphviz import artifacts_dot

        args.dump_graph.write_text(artifacts_dot(artifacts))
        print(f"wrote {args.dump_graph}")
    baseline = measure_baseline(workload, scale=args.scale, seed=args.seed)
    optimised = measure_halo(workload, artifacts, scale=args.scale, seed=args.seed)
    reduction = 0.0
    if baseline.cache.l1_misses:
        reduction = (
            baseline.cache.l1_misses - optimised.cache.l1_misses
        ) / baseline.cache.l1_misses
    speedup = baseline.cycles / optimised.cycles - 1.0 if optimised.cycles else 0.0
    print(
        format_table(
            ["metric", "baseline", "HALO"],
            [
                ["cycles", f"{baseline.cycles:,.0f}", f"{optimised.cycles:,.0f}"],
                ["L1D misses", f"{baseline.cache.l1_misses:,}", f"{optimised.cache.l1_misses:,}"],
                ["groups", "-", str(len(artifacts.groups))],
                ["monitored sites", "-", str(artifacts.plan.bits_used)],
                ["grouped allocs", "-", f"{optimised.grouped_allocs:,}"],
                ["degraded allocs", "-", f"{optimised.degraded_allocs:,}"],
            ],
            title=f"{args.benchmark} ({args.scale})",
        )
    )
    print(f"\nL1D miss reduction: {reduction * 100:+.1f}%   speedup: {speedup * 100:+.1f}%")
    return 0


def _write_json(out: Optional[Path], name: str, payload) -> None:
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.json"
    path.write_text(to_json(payload))
    print(f"\nwrote {path}")


def _report_failures(failures) -> None:
    """Surface permanently failed matrix cells without aborting the run."""
    for failure in failures:
        print(f"warning: {failure}", file=sys.stderr)


def _cmd_plot(args: argparse.Namespace) -> int:
    _check_scale(args)
    benchmarks = _parse_benchmarks(args)
    target = f"table{args.table}" if args.table else f"figure{args.figure}"
    cache = cache_from_args(args)
    times = PhaseTimes()
    failures: list = []
    with _metrics_session(args.metrics_out, times):
        with obs.span(f"halo.plot.{target}", scale=args.scale) as root:
            ret = _run_plot(args, benchmarks, cache, times, failures)
        print(times.report(wall=root.elapsed))
        summary = resilience_summary(times)
        if summary:
            print(summary)
    return ret


def _run_plot(
    args: argparse.Namespace,
    benchmarks: Optional[tuple[str, ...]],
    cache: Optional[ArtifactCache],
    times: PhaseTimes,
    failures: list,
) -> int:
    """The body of ``halo plot`` (split out so the root span wraps it)."""
    checkpoint = None
    if cache is not None or args.resume:
        from .harness.checkpoint import journal_for

        checkpoint = journal_for(
            args.cache_dir if cache is not None else None,
            f"table{args.table}" if args.table else f"figure{args.figure}",
        )
    options = dict(
        jobs=args.jobs,
        cache=cache,
        phase_times=times,
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        checkpoint=checkpoint,
        resume=args.resume,
        failures=failures,
    )
    if args.table == 1:
        rows = reproduce.table1(
            benchmarks=benchmarks or reproduce.TABLE1_BENCHMARKS,
            scale=args.scale,
            **options,
        )
        _report_failures(failures)
        print(
            format_table(
                ["Benchmark", "Frag. (%)", "Frag. (bytes)"],
                [[r.benchmark, f"{r.fraction * 100:.2f}%", f"{r.wasted_bytes:,}"] for r in rows],
                title="Table 1: fragmentation of grouped objects at peak memory usage",
            )
        )
        _write_json(args.out, "table1", rows)
        return 0
    if args.figure == 12:
        result = reproduce.figure12(trials=args.trials, **options)
        _report_failures(failures)
        series = result.series[0]
        print(
            bar_chart(
                {k: v / result.notes["baseline"] - 1.0 for k, v in series.values.items()},
                title=result.figure + " (relative to baseline)",
            )
        )
        _write_json(args.out, "figure12", result)
        return 0
    families: tuple[str, ...] = ()
    if args.families:
        families = tuple(dict.fromkeys(args.families.split(",")))
        unknown = [f for f in families if f not in ALLOCATOR_FAMILIES]
        if unknown:
            print(
                f"unknown allocator families: {', '.join(unknown)} "
                f"(expected from: {', '.join(ALLOCATOR_FAMILIES)})",
                file=sys.stderr,
            )
            return 2
    evaluations = reproduce.evaluate_all(
        benchmarks=benchmarks or reproduce.PAPER_BENCHMARKS,
        trials=args.trials,
        scale=args.scale,
        include_random=args.figure == 15,
        engine=args.engine,
        families=families,
        **options,
    )
    _report_failures(failures)
    figure = {13: reproduce.figure13, 14: reproduce.figure14, 15: reproduce.figure15}[args.figure]
    result = figure(evaluations)
    for series in result.series:
        print(bar_chart(series.values, title=f"{result.figure} — {series.label}"))
        print()
    print(allocator_health_table(evaluations))
    if families:
        print()
        print(
            format_table(
                ["benchmark", "family", "speedup vs baseline"],
                [
                    [name, family, f"{evaluation.family_speedup(family):+.1%}"]
                    for name, evaluation in evaluations.items()
                    for family in families
                    if family in evaluation.extra
                ],
                title="Extra allocator families",
            )
        )
    _write_json(args.out, f"figure{args.figure}", result)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .profiling import save_profile

    _check_scale(args)
    workload = _workload_or_exit(args.benchmark)
    params = reproduce.halo_params_for(workload)
    if args.affinity_distance is not None:
        params = params.with_affinity_distance(args.affinity_distance)
    profile = profile_workload(
        workload, params, scale=args.scale, record_trace=args.include_trace
    )
    save_profile(profile, args.output, include_trace=args.include_trace)
    print(
        f"profiled {args.benchmark} ({args.scale}): "
        f"{len(profile.contexts)} contexts, {len(profile.graph)} graph nodes"
    )
    print(f"wrote {args.output}")
    return 0


def trace_info_lines(trace) -> list[str]:
    """Deterministic summary lines for ``halo trace info``.

    Everything here is a pure function of the recorded event stream (no
    file sizes, no timings), so the output is stable across machines and
    suitable as a golden reference.
    """
    h = trace.header
    returns = h.events - (
        h.calls + h.allocs + h.frees + h.reallocs + h.loads + h.stores + h.works + 1
    )
    return [
        f"workload:        {h.workload} ({h.scale})",
        f"program:         {h.program}",
        f"format:          v{h.format}",
        f"events:          {h.events:,}",
        f"  calls:         {h.calls:,}",
        f"  returns:       {returns:,}",
        f"  allocs:        {h.allocs:,} ({h.alloc_bytes:,} bytes requested)",
        f"  frees:         {h.frees:,}",
        f"  reallocs:      {h.reallocs:,}",
        f"  loads:         {h.loads:,}",
        f"  stores:        {h.stores:,}",
        f"  work:          {h.works:,}",
        f"accessed bytes:  {h.access_bytes:,}",
    ]


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .trace import record_workload

    _check_scale(args)
    _workload_or_exit(args.benchmark)
    output = args.output
    if output is None:
        output = Path(f"{args.benchmark}-{args.scale}.trace")
    with _metrics_session(args.metrics_out):
        with obs.span(
            "halo.trace.record", workload=args.benchmark, scale=args.scale
        ) as sp:
            trace = record_workload(args.benchmark, scale=args.scale, seed=args.seed)
        trace.save(output)
        print(
            f"recorded {args.benchmark} ({args.scale}): {trace.header.events:,} events "
            f"in {sp.elapsed:.2f}s"
        )
        print(f"wrote {output} ({output.stat().st_size:,} bytes)")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from .trace import EventTrace

    trace = EventTrace.load(args.trace)
    for line in trace_info_lines(trace):
        print(line)
    print(f"bytes on disk:   {args.trace.stat().st_size:,}")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from .harness.runner import resolve_engine
    from .trace import EventTrace

    with _metrics_session(args.metrics_out):
        for path in args.traces:
            trace = EventTrace.load(path)
            workload = get_workload(trace.header.workload)
            resolved = resolve_engine(args.engine, trace)
            if resolved == "columnar":
                # Decode once up front: column decoding is a per-trace
                # cost shared by every replay, not engine time, and the
                # bench baselines gate on warm engine throughput.
                trace.columns()
            with obs.span(
                "halo.trace.replay",
                workload=trace.header.workload,
                engine=resolved,
            ) as sp:
                measurement = measure_baseline(
                    workload,
                    scale=trace.header.scale,
                    seed=args.seed,
                    trace=trace,
                    engine=args.engine,
                )
            print(
                format_table(
                    ["metric", "value"],
                    [
                        ["cycles", f"{measurement.cycles:,.0f}"],
                        ["heap accesses", f"{measurement.accesses:,}"],
                        ["L1D misses", f"{measurement.cache.l1_misses:,}"],
                        ["L2 misses", f"{measurement.cache.l2_misses:,}"],
                        ["L3 misses", f"{measurement.cache.l3_misses:,}"],
                        ["DTLB misses", f"{measurement.cache.tlb_misses:,}"],
                        ["peak live bytes", f"{measurement.peak_live_bytes:,}"],
                    ],
                    title=(
                        f"{trace.header.workload} baseline ({trace.header.scale}) "
                        f"[{resolved} engine, {sp.elapsed:.2f}s]"
                    ),
                )
            )
    return 0


def _parse_sweep_values(args: argparse.Namespace) -> tuple[str, list]:
    """The (knob name, parsed value list) selected on a ``trace sweep``."""
    if args.affinity_distance is not None:
        return "affinity-distance", [int(v) for v in args.affinity_distance.split(",")]
    if args.merge_tolerance is not None:
        return "merge-tolerance", [float(v) for v in args.merge_tolerance.split(",")]
    values = [None if v.lower() == "none" else int(v) for v in args.max_groups.split(",")]
    return "max-groups", values


def _cmd_trace_sweep(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .trace import EventTrace

    trace = EventTrace.load(args.trace)
    workload = get_workload(trace.header.workload)
    knob, values = _parse_sweep_values(args)
    base = reproduce.halo_params_for(workload)
    if knob == "affinity-distance":
        configs = [base.with_affinity_distance(v) for v in values]
    elif knob == "merge-tolerance":
        configs = [
            replace(base, grouping=replace(base.grouping, merge_tolerance=v))
            for v in values
        ]
    else:
        configs = [replace(base, max_groups=v) for v in values]

    times = PhaseTimes()
    with _metrics_session(args.metrics_out, times):
        with obs.span(
            "halo.trace.sweep", workload=trace.header.workload, knob=knob
        ) as sweep_span:
            rows = _run_sweep(args, trace, workload, knob, values, configs, times)
        print(
            format_table(
                [knob, "groups", "grouped ctxs", "graph nodes", "monitored sites"],
                rows,
                title=(
                    f"{trace.header.workload}: {len(configs)}-point {knob} sweep "
                    "from one trace"
                ),
            )
        )
        print(
            f"\nswept {len(configs)} configs in {sweep_span.elapsed:.2f}s "
            "(no workload re-execution)"
        )
        summary = resilience_summary(times)
        if summary:
            print(summary)
    return 0


def _run_sweep(
    args: argparse.Namespace,
    trace,
    workload,
    knob: str,
    values: list,
    configs: list,
    times: PhaseTimes,
) -> list[list[str]]:
    """Execute a ``trace sweep`` and return its table rows."""
    if args.jobs > 1:
        from .harness.checkpoint import journal_for
        from .harness.parallel import run_sweep_parallel

        cache = cache_from_args(args)
        checkpoint = None
        if cache is not None or args.resume:
            checkpoint = journal_for(
                args.cache_dir if cache is not None else None,
                f"sweep-{trace.header.workload}",
            )
        failures: list = []
        points = run_sweep_parallel(
            trace.header.workload,
            configs,
            jobs=args.jobs,
            cache=cache,
            phase_times=times,
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            checkpoint=checkpoint,
            resume=args.resume,
            failures=failures,
        )
        _report_failures(failures)
        # Label each surviving point from its own parameters — a failed
        # point leaves a gap, so zipping against `values` would mislabel.
        knob_of = {
            "affinity-distance": lambda p: p.affinity_distance,
            "merge-tolerance": lambda p: p.merge_tolerance,
            "max-groups": lambda p: p.max_groups,
        }[knob]
        return [
            [
                str(knob_of(p)),
                str(p.groups),
                str(p.grouped_contexts),
                str(p.graph_nodes),
                str(p.monitored_sites),
            ]
            for p in points
        ]
    from .core.selectors import monitored_sites
    from .trace import sweep_pipeline

    artifacts = sweep_pipeline(trace, workload.program, configs)
    return [
        [
            str(v),
            str(len(a.groups)),
            str(sum(len(g.members) for g in a.groups)),
            str(len(a.profile.graph)),
            str(len(monitored_sites(a.identification.selectors))),
        ]
        for v, a in zip(values, artifacts)
    ]


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.faults_command == "inject":
        from .faults import FaultPlan, inject_into_path

        plan = FaultPlan(
            seed=args.seed, corrupt_mode=args.mode, corrupt_rate=args.rate
        )
        try:
            damaged = inject_into_path(args.target, plan)
        except FileNotFoundError:
            print(f"error: {args.target} does not exist", file=sys.stderr)
            return 1
        for path in damaged:
            print(f"injected {args.mode} into {path}")
        print(
            f"damaged {len(damaged)} file(s) under {args.target} "
            f"(seed={args.seed}, rate={args.rate})"
        )
        return 0
    return 1  # pragma: no cover - argparse enforces choices


def _load_snapshot(path: Path) -> "obs.MetricsSnapshot":
    """Load a ``--metrics-out`` snapshot, exiting cleanly on bad input."""
    try:
        return obs.snapshot_from_json(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: {path} does not exist")
    except ValueError as exc:
        raise SystemExit(f"error: {path}: {exc}")


def obs_summary_lines(snapshot) -> list[str]:
    """Human-readable summary of a metrics snapshot (``halo obs summary``).

    Three sections: a counters table (sorted by key), gauges, and a span
    roll-up aggregating total seconds and call counts per span name.
    """
    lines: list[str] = []
    if snapshot.counters:
        rows = [
            [key, f"{value:,.3f}".rstrip("0").rstrip(".")]
            for key, value in sorted(snapshot.counters.items())
        ]
        lines.append(format_table(["counter", "value"], rows, title="Counters"))
    if snapshot.gauges:
        rows = [
            [key, f"{value:,.3f}".rstrip("0").rstrip(".")]
            for key, value in sorted(snapshot.gauges.items())
        ]
        lines.append("")
        lines.append(format_table(["gauge", "value"], rows, title="Gauges"))
    if snapshot.histograms:
        rows = [
            [key, f"{h.count:,}", f"{h.total:.3f}"]
            for key, h in sorted(snapshot.histograms.items())
        ]
        lines.append("")
        lines.append(
            format_table(["histogram", "count", "sum (s)"], rows, title="Histograms")
        )
    if snapshot.spans:
        totals: dict[str, list[float]] = {}
        for span in snapshot.spans:
            entry = totals.setdefault(span.name, [0.0, 0])
            entry[0] += span.duration
            entry[1] += 1
        rows = [
            [name, str(count), f"{seconds:.3f}"]
            for name, (seconds, count) in sorted(totals.items())
        ]
        lines.append("")
        lines.append(
            format_table(
                ["span", "count", "total (s)"],
                rows,
                title=f"Spans ({len(snapshot.spans)} recorded)",
            )
        )
    if not lines:
        lines.append("(empty snapshot)")
    return lines


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_command == "export":
        rendered = obs.render(_load_snapshot(args.input), args.format)
        if args.output is not None:
            args.output.write_text(rendered)
            print(f"wrote {args.output}")
        else:
            print(rendered, end="" if rendered.endswith("\n") else "\n")
        return 0
    if args.obs_command == "summary":
        for line in obs_summary_lines(_load_snapshot(args.input)):
            print(line)
        return 0
    if args.obs_command == "check":
        snapshot = _load_snapshot(args.input)
        try:
            passed, report = obs.run_gate(
                snapshot, args.baseline, tolerance=args.tolerance
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report)
        return 0 if passed else 1
    return 1  # pragma: no cover - argparse enforces choices


def _cmd_sanitize(args: argparse.Namespace) -> int:
    if args.sanitize_command == "fuzz":
        return _cmd_sanitize_fuzz(args)
    return 1  # pragma: no cover - argparse enforces choices


def _cmd_sanitize_fuzz(args: argparse.Namespace) -> int:
    from .sanitize import FuzzConfig, default_scenarios, format_ops, run_fuzz

    entries = [
        (config, ()) for config in default_scenarios(args.seed, args.ops, args.family)
    ]
    if args.scenarios:
        from .scenario import scenario_fuzz_entries

        family = None if args.family == "all" else args.family
        entries.extend(
            scenario_fuzz_entries(args.seed, args.scenarios, args.ops, family)
        )
    failed = 0
    rows = []
    for config, extra_ops in entries:
        report = run_fuzz(config, extra_ops=extra_ops)
        variant = []
        if config.colour_stride:
            variant.append(f"colour={config.colour_stride}")
        if config.always_reuse_chunks:
            variant.append("always-reuse")
        if config.chunk_budget is not None:
            variant.append(f"chunk-budget={config.chunk_budget}")
        if config.pool_size != FuzzConfig.pool_size:
            variant.append(f"pool={config.pool_size >> 10}K")
        if extra_ops:
            variant.append(f"scenario seed={config.seed}")
        label = f"{config.family}" + (f" ({', '.join(variant)})" if variant else "")
        rows.append([label, f"{report.executed:,}", "ok" if report.ok else "FAIL"])
        if not report.ok:
            failed += 1
            print(f"\n{label}: {len(report.findings)} finding(s)", file=sys.stderr)
            for finding in report.findings:
                print(f"  {finding}", file=sys.stderr)
            if report.reproducer is not None:
                print(
                    f"minimal reproducer ({len(report.reproducer)} ops):",
                    file=sys.stderr,
                )
                print(format_ops(report.reproducer), file=sys.stderr)
    print(
        format_table(
            ["scenario", "ops", "result"],
            rows,
            title=f"sanitize fuzz (seed {args.seed})",
        )
    )
    if failed:
        print(f"\n{failed} scenario(s) failed", file=sys.stderr)
        return 1
    print("\nall scenarios clean")
    return 0


def _scenario_workload(ref: str):
    """Resolve a scenario reference: a generated name or a spec file path."""
    if ref.endswith((".json", ".toml")) or "/" in ref:
        from .scenario import (
            MixSpec,
            ScenarioError,
            load_config,
            register_mix,
            register_scenario,
        )

        try:
            spec = load_config(ref)
            if isinstance(spec, MixSpec):
                register_mix(spec)
            else:
                register_scenario(spec)
        except (OSError, ScenarioError) as exc:
            raise SystemExit(f"error: {exc}") from None
        return get_workload(spec.name)
    return _workload_or_exit(ref)


def scenario_info_lines(spec) -> list[str]:
    """Deterministic summary lines for ``halo scenario info``.

    Accepts a :class:`~repro.scenario.ScenarioSpec` or a
    :class:`~repro.scenario.MixSpec`; everything printed is a pure
    function of the spec, so the output is stable across machines.
    """
    from .scenario import MixSpec

    if isinstance(spec, MixSpec):
        lines = [
            f"mix:        {spec.name} (config {spec.digest()})",
            f"scheduler:  {spec.scheduler}",
            f"tenants:    {len(spec.tenants)}",
        ]
        for index, tenant in enumerate(spec.tenants):
            lines.append(
                f"  t{index}: {tenant.spec.name} (config {tenant.spec.digest()}) "
                f"weight={tenant.weight:g} burst={tenant.burst}"
            )
            lines.extend(
                "    " + line for line in scenario_info_lines(tenant.spec)[1:]
            )
        return lines
    lines = [
        f"scenario:   {spec.name} (config {spec.digest()})",
        f"phases:     {len(spec.phases)}  table={spec.table_kb}KiB  "
        f"free-stride={spec.free_stride}  work/access={spec.work_per_access:g}",
    ]
    for kind in spec.kinds:
        size = kind.size.to_dict()
        cells = f" cells={kind.cells}" if kind.cells else ""
        group = f" site-group={kind.group}" if kind.site_group else ""
        lines.append(
            f"  kind {kind.label}: n={kind.base_count} size={size}"
            f" life={kind.lifetime} access={kind.access}"
            f" passes={kind.hot_passes}{cells}{group}"
        )
    for phase in spec.phases:
        weights = ", ".join(f"{label}x{weight:g}" for label, weight in phase.weights)
        repeats = f" (x{phase.repeats})" if phase.repeats > 1 else ""
        lines.append(f"  phase {phase.label}{repeats}: {weights}")
    return lines


def _cmd_scenario_gen(args: argparse.Namespace) -> int:
    from .scenario import build_corpus, corpus_digest, corpus_names, materialise_corpus

    names = corpus_names(args.seed, scenarios=args.scenarios, mixes=args.mixes)
    entries = build_corpus(names)
    print(
        format_table(
            ["name", "kind", "config digest"],
            [[e.name, e.kind, e.digest] for e in entries],
            title=f"scenario corpus (seed {args.seed})",
        )
    )
    print(f"\ncorpus digest: {corpus_digest(entries)}")
    if args.out is not None:
        written = materialise_corpus(args.out, entries, args.seed)
        print(f"wrote {len(written)} file(s) under {args.out}")
    return 0


def _cmd_scenario_info(args: argparse.Namespace) -> int:
    workload = _scenario_workload(args.scenario)
    spec = getattr(workload, "mix", None) or workload.spec
    if args.json:
        import json as _json

        print(_json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    for line in scenario_info_lines(spec):
        print(line)
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    _check_scale(args)
    workload = _scenario_workload(args.scenario)
    prepared = prepare_workload(workload.name, include_hds=False, workload=workload)
    baseline = measure_baseline(workload, scale=args.scale, seed=args.seed)
    optimised = measure_halo(workload, prepared.halo, scale=args.scale, seed=args.seed)
    reduction = 0.0
    if baseline.cache.l1_misses:
        reduction = (
            baseline.cache.l1_misses - optimised.cache.l1_misses
        ) / baseline.cache.l1_misses
    speedup = baseline.cycles / optimised.cycles - 1.0 if optimised.cycles else 0.0
    print(
        format_table(
            ["metric", "baseline", "HALO"],
            [
                ["cycles", f"{baseline.cycles:,.0f}", f"{optimised.cycles:,.0f}"],
                ["L1D misses", f"{baseline.cache.l1_misses:,}", f"{optimised.cache.l1_misses:,}"],
                ["groups", "-", str(len(prepared.halo.groups))],
                ["grouped allocs", "-", f"{optimised.grouped_allocs:,}"],
            ],
            title=f"{workload.name} ({args.scale})",
        )
    )
    print(f"\nL1D miss reduction: {reduction * 100:+.1f}%   speedup: {speedup * 100:+.1f}%")
    return 0


def _cmd_scenario_corpus(args: argparse.Namespace) -> int:
    from .scenario import ScenarioError, verify_manifest

    try:
        problems = verify_manifest(args.manifest)
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if problems:
        for problem in problems:
            print(f"DRIFT: {problem}", file=sys.stderr)
        print(f"\n{len(problems)} corpus problem(s)", file=sys.stderr)
        return 1
    print(f"{args.manifest}: all golden hashes reproduce")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.scenario_command == "gen":
        return _cmd_scenario_gen(args)
    if args.scenario_command == "info":
        return _cmd_scenario_info(args)
    if args.scenario_command == "run":
        return _cmd_scenario_run(args)
    if args.scenario_command == "corpus":
        return _cmd_scenario_corpus(args)
    return 1  # pragma: no cover - argparse enforces choices


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        return _cmd_trace_record(args)
    if args.trace_command == "info":
        return _cmd_trace_info(args)
    if args.trace_command == "replay":
        return _cmd_trace_replay(args)
    if args.trace_command == "sweep":
        return _cmd_trace_sweep(args)
    return 1  # pragma: no cover - argparse enforces choices


@contextlib.contextmanager
def _graceful_sigterm() -> Iterator[None]:
    """Translate SIGTERM into KeyboardInterrupt for the serve loop.

    The service's interrupt path flushes a final snapshot, so a plain
    ``kill <pid>`` becomes a graceful shutdown instead of lost state.
    """
    import signal

    def _handler(signum, frame):  # pragma: no cover - signal delivery
        raise KeyboardInterrupt

    previous = None
    try:
        previous = signal.getsignal(signal.SIGTERM)
        signal.signal(signal.SIGTERM, _handler)
    except ValueError:  # pragma: no cover - non-main thread
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            with contextlib.suppress(ValueError):
                signal.signal(signal.SIGTERM, previous)


def _serve_config_from_args(args: argparse.Namespace):
    from .serve import DEFAULT_PHASES, MixPhase, ServeConfig

    phases = DEFAULT_PHASES
    if args.phase:
        parsed = []
        for spec in args.phase:
            start_text, sep, mix_text = spec.partition(":")
            if not sep:
                raise SystemExit(f"bad --phase {spec!r}: expected START:W=WEIGHT,...")
            try:
                mix = []
                for part in mix_text.split(","):
                    name, eq, weight = part.partition("=")
                    mix.append((name.strip(), float(weight) if eq else 1.0))
                parsed.append(MixPhase(int(start_text), tuple(mix)))
            except ValueError as exc:
                raise SystemExit(f"bad --phase {spec!r}: {exc}")
        phases = tuple(sorted(parsed, key=lambda phase: phase.start_request))
    return ServeConfig(
        seed=args.seed,
        requests=args.requests,
        epoch_requests=args.epoch_requests,
        phases=phases,
        request_factor=args.request_factor,
        window_epochs=args.window,
        regroup_every=args.regroup_every,
        cooldown_epochs=args.cooldown,
        drift_threshold=args.drift_threshold,
        snapshot_every=args.snapshot_every,
    )


def _print_serve_report(report, title: str) -> None:
    stats = report.stats
    def _epochs(values: list[int]) -> str:
        return ",".join(str(v) for v in values) if values else "-"

    rows = [
        ("requests served", str(stats.requests)),
        ("epochs", str(stats.epochs)),
        ("table generation", str(report.generation)),
        ("swaps", f"{stats.swaps} (epochs {_epochs(stats.swap_epochs)})"),
        ("rollbacks", f"{stats.rollbacks} (epochs {_epochs(stats.rollback_epochs)})"),
        ("swap aborts", f"{stats.swap_aborts} (epochs {_epochs(stats.abort_epochs)})"),
        ("drift events", f"{stats.drift_events} (epochs {_epochs(stats.drift_epochs)})"),
        ("regroup attempts", str(stats.regroup_attempts)),
        ("regroup stalls", str(stats.regroup_stalls)),
        ("migrated", f"{stats.migrated_regions} regions / {stats.migrated_bytes} B"),
        ("snapshots", str(stats.snapshots)),
        ("sanitizer", f"{stats.sanitize_findings} finding(s) in {stats.sanitize_checks} check(s)"),
        ("live bytes", str(stats.live_bytes)),
    ]
    if report.resumed_from is not None:
        rows.insert(0, ("resumed from epoch", str(report.resumed_from)))
    print(format_table(["metric", "value"], rows, title=title))
    if not report.completed:
        print("\nsession interrupted before completion; continue with --resume")


def _cmd_serve_run(args: argparse.Namespace, plan=None, title: str = "serve run") -> int:
    from .serve import ServeError, run_serve

    if getattr(args, "resume", False) and args.state_dir is None:
        print("--resume requires --state-dir", file=sys.stderr)
        return 1
    try:
        config = _serve_config_from_args(args)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    try:
        with _metrics_session(args.metrics_out), _graceful_sigterm():
            report = run_serve(
                config,
                state_dir=args.state_dir,
                resume=getattr(args, "resume", False),
                plan=plan,
                stop_after=getattr(args, "stop_after", None),
                stop_mode=getattr(args, "stop_mode", "term"),
            )
    except ServeError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    _print_serve_report(report, f"{title} (seed {config.seed})")
    if report.stats.sanitize_findings:
        print(f"\n{report.stats.sanitize_findings} sanitizer finding(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_serve_status(args: argparse.Namespace) -> int:
    from .serve import SnapshotStore

    journals = sorted(Path(args.state_dir).glob("serve-*.journal"))
    if not journals:
        print(f"no serve journals under {args.state_dir}")
        return 0
    rows = []
    for path in journals:
        snapshot = SnapshotStore(path).load()
        if snapshot is None:
            rows.append((path.name, "-", "-", "-", "no intact snapshot"))
            continue
        stats = snapshot.stats
        rows.append(
            (
                path.name,
                str(snapshot.next_epoch),
                str(snapshot.generation),
                str(stats.requests),
                f"{stats.swaps} swap(s), {stats.rollbacks} rollback(s)",
            )
        )
    print(
        format_table(
            ["journal", "next epoch", "generation", "requests", "decisions"],
            rows,
            title="serve status",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.serve_command == "run":
        return _cmd_serve_run(args)
    if args.serve_command == "status":
        return _cmd_serve_status(args)
    if args.serve_command == "drill":
        from .serve import drill_plan

        plan = drill_plan(
            seed=args.drill_seed,
            swap_flip=args.swap_flip,
            canary_flip=args.canary_flip,
            regroup_stall=args.regroup_stall,
            snapshot_corrupt=args.snapshot_corrupt,
        )
        return _cmd_serve_run(args, plan=plan, title="serve drill")
    return 1  # pragma: no cover - argparse enforces choices


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in workload_names():
            workload = get_workload(name)
            print(f"{name:10s} {workload.suite:14s} {workload.description}")
        return 0
    if args.command == "baseline":
        with _sanitize_session(args):
            return _cmd_baseline(args)
    if args.command == "run":
        with _sanitize_session(args):
            return _cmd_run(args)
    if args.command == "plot":
        with _sanitize_session(args):
            return _cmd_plot(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "sanitize":
        return _cmd_sanitize(args)
    if args.command == "scenario":
        if args.scenario_command == "run":
            with _sanitize_session(args):
                return _cmd_scenario(args)
        return _cmd_scenario(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

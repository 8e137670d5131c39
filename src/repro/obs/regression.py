"""Bench regression gate: compare a metrics snapshot against baselines.

The repo commits bench baselines (``BENCH_eval_walltime.json``,
``BENCH_trace_replay.json``, ``BENCH_columnar.json``) regenerated by the
``benchmarks/`` suite.
This module turns a fresh run's :class:`~repro.obs.metrics.MetricsSnapshot`
into a pass/fail verdict against those files, with a configurable
relative tolerance — the engine behind ``halo obs check`` and
``tools/check_regression.py`` (run by the CI bench job).

Each baseline schema gets an *adapter* that derives comparable figures
from the snapshot:

* **eval_walltime** (detected by its ``serial_phases`` key): per-phase
  wall seconds from the ``phase.seconds{phase=...}`` counters, checked
  as upper bounds against the baseline's ``record_s`` / ``profile_s`` /
  ``analyse_s`` / ``measure_s``.
* **trace_replay** (detected by ``replay_sweep_wall_s``): replay and
  record throughput in events/second from the ``trace.*`` counters,
  checked as lower bounds against ``trace_events / *_wall_s``.
* **columnar** (detected by ``columnar_measure_wall_s``): per-engine
  measurement throughput in events/second from the label-filtered
  ``engine.measure.*`` counters, checked as lower bounds — this is the
  gate keeping the columnar core's speedup from regressing.

A check whose inputs are absent from the snapshot (e.g. no record phase
ran) is reported as *skipped* rather than failed, so partial runs can
still be gated on what they did execute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .metrics import MetricsSnapshot

__all__ = ["Check", "compare_snapshot", "render_checks", "run_gate"]


@dataclass
class Check:
    """One baseline comparison and its verdict.

    ``kind`` is ``"upper"`` (current must stay at or below the limit —
    wall times) or ``"lower"`` (current must stay at or above it —
    throughputs).  The limit is the baseline relaxed by ``tolerance``:
    ``baseline * (1 + tolerance)`` for upper bounds, ``baseline /
    (1 + tolerance)`` for lower bounds.
    """

    name: str
    baseline: float
    current: Optional[float]
    kind: str
    tolerance: float
    unit: str = ""

    @property
    def limit(self) -> float:
        """The tolerated bound derived from baseline and tolerance."""
        if self.kind == "upper":
            return self.baseline * (1.0 + self.tolerance)
        return self.baseline / (1.0 + self.tolerance)

    @property
    def skipped(self) -> bool:
        """True when the snapshot lacked the inputs for this check."""
        return self.current is None

    @property
    def ok(self) -> bool:
        """True when the check passed (skipped checks pass vacuously)."""
        if self.current is None:
            return True
        if self.kind == "upper":
            return self.current <= self.limit
        return self.current >= self.limit

    @property
    def status(self) -> str:
        """Human-readable verdict: ``ok`` / ``FAIL`` / ``skipped``."""
        if self.skipped:
            return "skipped"
        return "ok" if self.ok else "FAIL"


def _phase_seconds(snapshot: MetricsSnapshot, phase: str) -> Optional[float]:
    """Total ``phase.seconds`` for *phase*, or ``None`` if never timed."""
    key = f'phase.seconds{{phase="{phase}"}}'
    return snapshot.counters.get(key)


def _throughput(snapshot: MetricsSnapshot, family: str) -> Optional[float]:
    """Events/second for ``trace.<family>`` counters, or ``None``."""
    events = snapshot.sum_counter(f"trace.{family}.events")
    seconds = snapshot.sum_counter(f"trace.{family}.seconds")
    if events <= 0 or seconds <= 0:
        return None
    return events / seconds


def _eval_walltime_checks(
    snapshot: MetricsSnapshot, baseline: dict, tolerance: float
) -> list[Check]:
    """Adapter for the ``BENCH_eval_walltime.json`` schema."""
    checks = []
    for phase in ("record", "profile", "analyse", "measure"):
        base = baseline["serial_phases"].get(f"{phase}_s")
        if base is None:
            continue
        checks.append(
            Check(f"{phase} wall time", base, _phase_seconds(snapshot, phase), "upper",
                  tolerance, unit="s")
        )
    return checks


def _trace_replay_checks(
    snapshot: MetricsSnapshot, baseline: dict, tolerance: float
) -> list[Check]:
    """Adapter for the ``BENCH_trace_replay.json`` schema."""
    checks = []
    events = baseline["trace_events"]
    replay_wall = baseline.get("replay_sweep_wall_s")
    if replay_wall:
        checks.append(
            Check("replay throughput", events / replay_wall, _throughput(snapshot, "replay"),
                  "lower", tolerance, unit="events/s")
        )
    record_wall = baseline.get("record_once_wall_s")
    if record_wall:
        checks.append(
            Check("record throughput", events / record_wall, _throughput(snapshot, "record"),
                  "lower", tolerance, unit="events/s")
        )
    return checks


def _engine_throughput(snapshot: MetricsSnapshot, engine: str) -> Optional[float]:
    """Events/second measured by *engine*, from ``engine.measure.*``."""
    events = snapshot.sum_counter_where("engine.measure.events", engine=engine)
    seconds = snapshot.sum_counter_where("engine.measure.seconds", engine=engine)
    if events <= 0 or seconds <= 0:
        return None
    return events / seconds


def _columnar_checks(
    snapshot: MetricsSnapshot, baseline: dict, tolerance: float
) -> list[Check]:
    """Adapter for the ``BENCH_columnar.json`` schema."""
    checks = []
    events = baseline["trace_events"]
    for engine, key in (("columnar", "columnar_measure_wall_s"),
                        ("event", "event_measure_wall_s")):
        wall = baseline.get(key)
        if wall:
            checks.append(
                Check(f"{engine} measure throughput", events / wall,
                      _engine_throughput(snapshot, engine), "lower",
                      tolerance, unit="events/s")
            )
    return checks


def compare_snapshot(
    snapshot: MetricsSnapshot, baseline: dict, tolerance: float = 0.5
) -> list[Check]:
    """Compare *snapshot* against a parsed baseline document.

    The baseline schema is auto-detected; unknown documents raise
    ``ValueError`` rather than silently passing.
    """
    if "serial_phases" in baseline:
        return _eval_walltime_checks(snapshot, baseline, tolerance)
    if "columnar_measure_wall_s" in baseline:
        return _columnar_checks(snapshot, baseline, tolerance)
    if "replay_sweep_wall_s" in baseline or "record_once_wall_s" in baseline:
        return _trace_replay_checks(snapshot, baseline, tolerance)
    raise ValueError("unrecognised baseline schema (expected eval_walltime or trace_replay keys)")


def render_checks(checks: list[Check]) -> str:
    """Format verdicts as an aligned text table."""
    rows = [("check", "baseline", "limit", "current", "status")]
    for check in checks:
        bound = "<=" if check.kind == "upper" else ">="
        rows.append(
            (
                check.name,
                f"{check.baseline:,.2f}{check.unit and ' ' + check.unit}",
                f"{bound} {check.limit:,.2f}",
                "-" if check.current is None else f"{check.current:,.2f}",
                check.status,
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def run_gate(
    snapshot: MetricsSnapshot,
    baseline_path: Union[str, Path],
    tolerance: float = 0.5,
) -> tuple[bool, str]:
    """Gate *snapshot* against the baseline file at *baseline_path*.

    Returns ``(passed, report)`` where *report* is the rendered table
    plus a one-line summary.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    checks = compare_snapshot(snapshot, baseline, tolerance)
    passed = all(check.ok for check in checks)
    ran = sum(1 for check in checks if not check.skipped)
    summary = (
        f"{'PASS' if passed else 'FAIL'}: {ran}/{len(checks)} checks ran "
        f"(tolerance {tolerance:g}) against {Path(baseline_path).name}"
    )
    return passed, render_checks(checks) + "\n" + summary

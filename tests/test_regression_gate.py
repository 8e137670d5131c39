"""Bench regression gate: baseline adapters, CLI, and the CI entry point.

The gate has to fail loudly on a real regression, pass quietly within
tolerance, and skip (not fail) checks whose inputs a partial run never
produced — otherwise CI either rubber-stamps regressions or flakes on
runs that legitimately exercised only half the pipeline.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.obs import snapshot_to_json
from repro.obs.metrics import MetricsSnapshot
from repro.obs.regression import compare_snapshot, run_gate

REPO = Path(__file__).resolve().parent.parent

EVAL_BASELINE = {
    "serial_phases": {"record_s": 1.5, "profile_s": 2.0, "analyse_s": 3.0, "measure_s": 10.0},
}

TRACE_BASELINE = {
    "trace_events": 1000,
    "replay_sweep_wall_s": 2.0,  # -> 500 events/s baseline
    "record_once_wall_s": 1.0,  # -> 1000 events/s baseline
}


def phase_snapshot(profile=1.0, analyse=1.0, measure=1.0, record=1.0) -> MetricsSnapshot:
    """Snapshot with just the four phase wall-time counters."""
    return MetricsSnapshot(
        counters={
            'phase.seconds{phase="record"}': record,
            'phase.seconds{phase="profile"}': profile,
            'phase.seconds{phase="analyse"}': analyse,
            'phase.seconds{phase="measure"}': measure,
        }
    )


def throughput_snapshot(replay_s=1.0, record_s=1.0) -> MetricsSnapshot:
    """Snapshot with 1000 replayed + recorded events over given seconds."""
    return MetricsSnapshot(
        counters={
            'trace.replay.events{workload="health"}': 1000,
            'trace.replay.seconds{workload="health"}': replay_s,
            'trace.record.events{workload="health"}': 1000,
            'trace.record.seconds{workload="health"}': record_s,
        }
    )


class TestEvalWalltimeAdapter:
    def test_within_tolerance_passes(self):
        checks = compare_snapshot(phase_snapshot(2.5, 3.5, 12.0, 2.0), EVAL_BASELINE, 0.5)
        assert [c.status for c in checks] == ["ok", "ok", "ok", "ok"]

    def test_regression_fails(self):
        checks = compare_snapshot(phase_snapshot(measure=100.0), EVAL_BASELINE, 0.5)
        by_name = {c.name: c for c in checks}
        assert by_name["measure wall time"].status == "FAIL"
        assert by_name["profile wall time"].status == "ok"

    def test_slow_record_fails(self):
        checks = compare_snapshot(phase_snapshot(record=9.0), EVAL_BASELINE, 0.5)
        by_name = {c.name: c for c in checks}
        assert by_name["record wall time"].status == "FAIL"
        assert by_name["measure wall time"].status == "ok"

    def test_upper_limit_is_baseline_times_tolerance(self):
        (check,) = [
            c
            for c in compare_snapshot(phase_snapshot(), EVAL_BASELINE, 0.25)
            if c.name == "analyse wall time"
        ]
        assert check.limit == pytest.approx(3.0 * 1.25)

    def test_missing_phase_skips(self):
        checks = compare_snapshot(MetricsSnapshot(), EVAL_BASELINE, 0.5)
        assert all(c.status == "skipped" for c in checks)
        assert all(c.ok for c in checks)  # vacuous pass


class TestTraceReplayAdapter:
    def test_within_tolerance_passes(self):
        # 1000 ev / 2.2 s = ~455 ev/s vs limit 500/1.5 = 333 ev/s.
        checks = compare_snapshot(throughput_snapshot(replay_s=2.2), TRACE_BASELINE, 0.5)
        assert {c.name: c.status for c in checks} == {
            "replay throughput": "ok",
            "record throughput": "ok",
        }

    def test_slow_replay_fails(self):
        checks = compare_snapshot(throughput_snapshot(replay_s=50.0), TRACE_BASELINE, 0.5)
        by_name = {c.name: c for c in checks}
        assert by_name["replay throughput"].status == "FAIL"
        assert by_name["record throughput"].status == "ok"

    def test_lower_limit_is_baseline_over_tolerance(self):
        checks = compare_snapshot(throughput_snapshot(), TRACE_BASELINE, 1.0)
        by_name = {c.name: c for c in checks}
        assert by_name["replay throughput"].limit == pytest.approx(250.0)
        assert by_name["record throughput"].limit == pytest.approx(500.0)

    def test_no_trace_counters_skips(self):
        checks = compare_snapshot(phase_snapshot(), TRACE_BASELINE, 0.5)
        assert all(c.status == "skipped" for c in checks)


class TestSchemaDetection:
    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unrecognised baseline schema"):
            compare_snapshot(MetricsSnapshot(), {"something": "else"}, 0.5)

    def test_run_gate_reports_pass_and_fail(self, tmp_path):
        baseline = tmp_path / "BENCH_eval.json"
        baseline.write_text(json.dumps(EVAL_BASELINE))
        passed, report = run_gate(phase_snapshot(), baseline, tolerance=0.5)
        assert passed
        assert "PASS: 4/4 checks ran" in report
        passed, report = run_gate(phase_snapshot(measure=99.0), baseline, tolerance=0.5)
        assert not passed
        assert "FAIL" in report

    def test_committed_baselines_parse(self):
        """The real BENCH_*.json files must keep matching an adapter."""
        for name in ("BENCH_eval_walltime.json", "BENCH_trace_replay.json"):
            baseline = json.loads((REPO / name).read_text())
            checks = compare_snapshot(MetricsSnapshot(), baseline, 0.5)
            assert checks, f"{name} produced no checks"


class TestObsCheckCli:
    @pytest.fixture()
    def snapshot_file(self, tmp_path):
        """A phase snapshot on disk, as --metrics-out would write it."""
        path = tmp_path / "metrics.json"
        path.write_text(snapshot_to_json(phase_snapshot()))
        return path

    @pytest.fixture()
    def baseline_file(self, tmp_path):
        """A small eval_walltime baseline on disk."""
        path = tmp_path / "BENCH_eval.json"
        path.write_text(json.dumps(EVAL_BASELINE))
        return path

    def test_pass_exits_zero(self, snapshot_file, baseline_file, capsys):
        ret = cli_main(
            ["obs", "check", "-i", str(snapshot_file), "--baseline", str(baseline_file)]
        )
        assert ret == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_exits_one(self, tmp_path, baseline_file, capsys):
        snap = tmp_path / "bad.json"
        snap.write_text(snapshot_to_json(phase_snapshot(measure=99.0)))
        ret = cli_main(["obs", "check", "-i", str(snap), "--baseline", str(baseline_file)])
        assert ret == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_flag_rescues_failure(self, tmp_path, baseline_file):
        snap = tmp_path / "slow.json"
        snap.write_text(snapshot_to_json(phase_snapshot(measure=20.0)))
        assert cli_main(["obs", "check", "-i", str(snap), "--baseline", str(baseline_file)]) == 1
        assert (
            cli_main(
                ["obs", "check", "-i", str(snap), "--baseline", str(baseline_file),
                 "--tolerance", "3.0"]
            )
            == 0
        )

    def test_missing_snapshot_exits_cleanly(self, tmp_path, baseline_file):
        with pytest.raises(SystemExit):
            cli_main(
                ["obs", "check", "-i", str(tmp_path / "nope.json"),
                 "--baseline", str(baseline_file)]
            )

    def test_bad_baseline_exits_two(self, snapshot_file, tmp_path, capsys):
        bad = tmp_path / "bad_baseline.json"
        bad.write_text('{"something": "else"}')
        ret = cli_main(["obs", "check", "-i", str(snapshot_file), "--baseline", str(bad)])
        assert ret == 2
        assert "error" in capsys.readouterr().err


class TestStandaloneTool:
    def run_tool(self, *argv: str) -> subprocess.CompletedProcess:
        """Invoke tools/check_regression.py as CI does."""
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        return subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_regression.py"), *argv],
            capture_output=True, text=True, env=env, cwd=REPO,
        )

    def test_pass_and_fail_exit_codes(self, tmp_path):
        baseline = tmp_path / "BENCH_eval.json"
        baseline.write_text(json.dumps(EVAL_BASELINE))
        good = tmp_path / "good.json"
        good.write_text(snapshot_to_json(phase_snapshot()))
        bad = tmp_path / "bad.json"
        bad.write_text(snapshot_to_json(phase_snapshot(measure=99.0)))

        result = self.run_tool("--snapshot", str(good), "--baseline", str(baseline))
        assert result.returncode == 0, result.stderr
        assert "PASS" in result.stdout
        result = self.run_tool("--snapshot", str(bad), "--baseline", str(baseline))
        assert result.returncode == 1
        assert "FAIL" in result.stdout

    def test_missing_inputs_exit_two(self, tmp_path):
        result = self.run_tool(
            "--snapshot", str(tmp_path / "nope.json"),
            "--baseline", str(REPO / "BENCH_eval_walltime.json"),
        )
        assert result.returncode == 2
        assert "error" in result.stderr

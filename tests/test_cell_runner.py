"""The one evaluation path: config registry plus cell runner.

Serial and ``--jobs N`` evaluation, Table 1 and Figure 12 all measure
through :func:`repro.harness.parallel.run_cells` and the configuration
registry in :mod:`repro.harness.runner`.  These tests pin what that
promises: inline serial runs stay cold and write nothing, every cell is
measured exactly once through the rebindable ``run_measurement`` seam,
serial runs journal, resume and retry per cell, and the result does not
depend on ``jobs``.
"""

import dataclasses
import json
import pickle
import tempfile
import zlib

import pytest

from repro.cli import main as cli_main
from repro.core.artifact_cache import ArtifactCache
from repro.harness import parallel, runner
from repro.harness.checkpoint import CheckpointJournal
from repro.harness.parallel import Cell
from repro.harness.prepare import PhaseTimes, halo_params_for
from repro.harness.reproduce import evaluate_all, figure12
from repro.workloads.base import WorkloadError, get_workload

BENCH = "deepsjeng"
MATRIX = dict(trials=1, scale="test", families=("arena",))


@pytest.fixture(scope="module")
def serial_matrix():
    return evaluate_all([BENCH], jobs=1, **MATRIX)


class TestConfigRegistry:
    def test_every_family_and_paper_config_registered(self):
        from repro.allocators import ALLOCATOR_FAMILIES

        assert {"halo", "hds", "calder", "random-pools"} <= set(runner.CONFIGS)
        assert set(ALLOCATOR_FAMILIES) <= set(runner.CONFIGS)

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration"):
            runner.measure(get_workload(BENCH), "nope", scale="test", seed=1)

    def test_wrappers_match_registry(self):
        workload = get_workload(BENCH)
        assert runner.measure_random_pools(workload, scale="test", seed=1) == runner.measure(
            workload, "random-pools", scale="test", seed=1
        )


class TestNamesRejectedBeforeScheduling:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unknown_workload_raises(self, jobs):
        with pytest.raises(WorkloadError, match="helth"):
            evaluate_all(["helth"], trials=1, scale="test", jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unknown_family_raises(self, jobs):
        with pytest.raises(ValueError, match="nope"):
            evaluate_all([BENCH], trials=1, scale="test", jobs=jobs, families=("nope",))


class TestInlinePath:
    def test_serial_calls_are_cold_and_write_nothing(self, tmp_path, monkeypatch):
        writes = []
        real_mkdtemp = tempfile.mkdtemp

        def spy_mkdtemp(*args, **kwargs):
            writes.append("mkdtemp")
            return real_mkdtemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkdtemp", spy_mkdtemp)
        monkeypatch.setattr(ArtifactCache, "put", lambda self, key, value: writes.append(key))
        monkeypatch.setattr(
            CheckpointJournal, "append", lambda self, key, value: writes.append(key)
        )
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            times = PhaseTimes()
            evaluate_all([BENCH], trials=1, scale="test", jobs=1, cache=None, phase_times=times)
            assert times.profile > 0  # profiled afresh: no memo outlived the last call
        assert writes == []
        assert list(tmp_path.iterdir()) == []

    def test_cache_less_run_compresses_nothing(self, monkeypatch):
        from repro.trace import record_workload

        compressions = []
        real = zlib.compressobj

        def counting(*args, **kwargs):
            compressions.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(zlib, "compressobj", counting)
        evaluate_all([BENCH], trials=1, scale="test", jobs=1, cache=None)
        assert compressions == []
        # The counter sees a compression: a pickled recording makes its body once.
        trace = record_workload(BENCH, scale="test")
        pickle.dumps(trace)
        trace.to_bytes()
        assert len(compressions) == 1

    def test_every_cell_measured_once_through_the_seam(self, monkeypatch):
        # Seed 1 only: no cell is measured for a result that is then dropped.
        calls = []
        real = runner.run_measurement

        def counting(*args, **kwargs):
            calls.append((kwargs["config"], kwargs["seed"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "run_measurement", counting)
        evaluate_all([BENCH], jobs=1, **MATRIX)
        expected = [
            (config, 1) for config in ("baseline", "halo", "hds", "random-pools", "arena")
        ]
        assert sorted(calls) == sorted(expected)

    def test_serial_equals_jobs(self, serial_matrix):
        parallel_matrix = evaluate_all([BENCH], jobs=2, **MATRIX)
        assert set(serial_matrix[BENCH].extra) == {"arena"}
        assert serial_matrix == parallel_matrix


class TestSerialResilience:
    def test_serial_run_journals_and_resumes(self, tmp_path, monkeypatch):
        journal = CheckpointJournal(tmp_path / "ckpt.journal")
        first = evaluate_all(
            [BENCH], trials=1, scale="test", include_random=False, checkpoint=journal
        )
        assert set(journal.load()) == {f"prepare:{BENCH}"} | {
            f"measure:{BENCH}:{config}:test:1" for config in ("baseline", "halo", "hds")
        }

        def must_not_run(*args, **kwargs):
            raise AssertionError("a resumed run re-measured a journalled cell")

        monkeypatch.setattr(runner, "run_measurement", must_not_run)
        resumed = evaluate_all(
            [BENCH], trials=1, scale="test", include_random=False,
            checkpoint=journal, resume=True,
        )
        assert resumed == first

    def test_journal_with_warm_up_cells_resumes_to_the_same_result(
        self, tmp_path, monkeypatch
    ):
        # Journals written before every trial was reported also hold a
        # seed-0 warm-up cell per configuration.  Those are stand-ins here,
        # with doubled cycles: a resume that reported one would show it.
        fresh_journal = CheckpointJournal(tmp_path / "fresh.journal")
        fresh = evaluate_all(
            [BENCH], trials=1, scale="test", include_random=False, checkpoint=fresh_journal
        )
        old = CheckpointJournal(tmp_path / "old.journal")
        for key, value in fresh_journal.load().items():
            if key.startswith("measure:"):
                measurement, times = value
                warm_up = dataclasses.replace(
                    measurement, seed=0, cycles=2 * measurement.cycles
                )
                old.append(key.rsplit(":", 1)[0] + ":0", (warm_up, times))
            old.append(key, value)
        assert sum(key.endswith(":0") for key in old.load()) == 3

        def must_not_run(*args, **kwargs):
            raise AssertionError("a resumed run measured a cell")

        monkeypatch.setattr(runner, "run_measurement", must_not_run)
        resumed = evaluate_all(
            [BENCH], trials=1, scale="test", include_random=False,
            checkpoint=old, resume=True,
        )
        assert resumed == fresh
        evaluation = resumed[BENCH]
        for trial in (evaluation.baseline, evaluation.halo, evaluation.hds):
            assert [m.seed for m in trial.measurements] == [1]

    def test_serial_cell_failure_is_retried_to_identical_result(self, monkeypatch):
        clean = evaluate_all([BENCH], trials=1, scale="test", include_random=False)
        real = parallel.measure
        raised = []

        def flaky(workload, config, *args, **kwargs):
            if config == "halo" and kwargs["seed"] == 1 and not raised:
                raised.append(config)
                raise RuntimeError("transient fault")
            return real(workload, config, *args, **kwargs)

        monkeypatch.setattr(parallel, "measure", flaky)
        times = PhaseTimes()
        failures = []
        retried = evaluate_all(
            [BENCH], trials=1, scale="test", include_random=False,
            phase_times=times, failures=failures,
        )
        assert raised == ["halo"]
        assert failures == []
        assert times.task_retries == 1
        assert retried == clean

    def test_plot_journals_and_resumes_at_jobs_1(self, tmp_path, capsys):
        common = [
            "plot", "--figure", "13", "--benchmarks", BENCH, "--trials", "1",
            "--scale", "test", "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert cli_main([*common, "--out", str(tmp_path / "first")]) == 0
        assert (tmp_path / "cache" / "checkpoint-figure13.journal").exists()
        assert cli_main([*common, "--resume", "--out", str(tmp_path / "resumed")]) == 0
        capsys.readouterr()
        first = json.loads((tmp_path / "first" / "figure13.json").read_text())
        resumed = json.loads((tmp_path / "resumed" / "figure13.json").read_text())
        assert first == resumed


class TestParameterAwareKeys:
    def test_default_params_keep_the_legacy_key(self):
        params = halo_params_for(get_workload("omnetpp"))
        cell = Cell("omnetpp", "halo", 1, "test", halo_params=params)
        assert cell.key == "measure:omnetpp:halo:test:1"
        assert cell.prepare_key(include_hds=True) == "prepare:omnetpp"

    def test_distances_get_distinct_keys(self):
        params = halo_params_for(get_workload("omnetpp"))
        keys = {
            Cell("omnetpp", "halo", 1, "test", halo_params=params.with_affinity_distance(d)).key
            for d in (8, 64)
        }
        assert len(keys) == 2

    def test_figure12_values_unchanged(self):
        result = figure12(distances=(8, 64), trials=1, scale="test")
        assert result.series[0].values == {"8": 6000611.0, "64": 6000611.0}
        assert result.notes == {"baseline": 5370188.0}

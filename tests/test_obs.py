"""Observability subsystem: registry, spans, merging, and pipeline wiring.

Covers the contracts the rest of the repo relies on: label canonical
keys, merge semantics (counters add / gauges max / histograms bucket-wise
/ span parents rebased), pickling across process boundaries, the
zero-overhead no-op path, serial-vs-parallel metric determinism, and the
end-to-end ``halo plot --metrics-out`` acceptance flow.
"""

import pickle
import time
from collections import Counter

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.harness.prepare import PhaseTimes
from repro.harness.reproduce import evaluate_all
from repro.harness.runner import measure_baseline, measure_halo
from repro.machine.machine import Machine
from repro.obs.metrics import (
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
    SpanData,
    metric_key,
    split_metric_key,
)
from repro.obs.spans import phase_span, span
from repro.workloads.base import get_workload

BENCH = "deepsjeng"


@pytest.fixture(autouse=True)
def _no_leaked_registry():
    """Every test starts and ends with observability disabled."""
    obs.uninstall()
    yield
    obs.uninstall()


class TestMetricKeys:
    def test_no_labels_is_bare_name(self):
        assert metric_key("a.b", {}) == "a.b"

    def test_labels_sorted(self):
        assert metric_key("m", {"b": 2, "a": "x"}) == 'm{a="x",b="2"}'

    def test_round_trip(self):
        key = metric_key("m.n", {"workload": "health", "config": "halo"})
        assert split_metric_key(key) == ("m.n", {"config": "halo", "workload": "health"})

    def test_split_bare(self):
        assert split_metric_key("plain") == ("plain", {})


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("c", 1, k="a")
        reg.inc("c", 2, k="a")
        reg.inc("c", 5, k="b")
        snap = reg.snapshot()
        assert snap.counters == {'c{k="a"}': 3, 'c{k="b"}': 5}
        assert snap.sum_counter("c") == 8

    def test_gauge_max_keeps_high_water_mark(self):
        reg = MetricsRegistry()
        reg.gauge_max("g", 5)
        reg.gauge_max("g", 3)
        reg.gauge_set("h", 3)
        reg.gauge_set("h", 1)
        snap = reg.snapshot()
        assert snap.gauges["g"] == 5
        assert snap.gauges["h"] == 1  # last write wins for plain sets

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.3)
        reg.observe("lat", 0.3)
        reg.observe("lat", 1000.0)  # beyond the last bound -> overflow slot
        hist = reg.snapshot().histograms["lat"]
        assert hist.count == 3
        assert hist.total == pytest.approx(1000.6)
        assert hist.counts[-1] == 1
        assert sum(hist.counts) == 3

    def test_snapshot_is_deep_copy(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("h", 0.1)
        reg.end_span(reg.begin_span("s", 0.0, {"a": 1}), 1.0)
        snap = reg.snapshot()
        reg.inc("c")
        reg.observe("h", 0.2)
        assert snap.counters["c"] == 1
        assert snap.histograms["h"].count == 1
        snap.spans[0].attrs["a"] = 2
        assert reg.snapshot().spans[0].attrs["a"] == 1

    def test_module_helpers_are_noops_without_registry(self):
        assert obs.active_registry() is None
        obs.inc("never")
        obs.gauge_set("never", 1)
        obs.gauge_max("never", 1)
        obs.observe("never", 1.0)
        reg = obs.install(MetricsRegistry())
        assert reg.snapshot().is_empty()

    def test_collecting_restores_previous(self):
        outer = obs.install(MetricsRegistry())
        with obs.collecting() as inner:
            obs.inc("in")
            assert obs.active_registry() is inner
        assert obs.active_registry() is outer
        assert outer.snapshot().is_empty()
        assert inner.snapshot().counters == {"in": 1}


class TestSnapshotMerge:
    def test_counters_add_gauges_max(self):
        a = MetricsSnapshot(counters={"c": 1}, gauges={"g": 2})
        b = MetricsSnapshot(counters={"c": 3, "d": 1}, gauges={"g": 1, "h": 7})
        a.merge(b)
        assert a.counters == {"c": 4, "d": 1}
        assert a.gauges == {"g": 2, "h": 7}

    def test_histograms_never_alias(self):
        h = HistogramData()
        h.observe(0.1)
        a = MetricsSnapshot()
        a.merge(MetricsSnapshot(histograms={"h": h}))
        h.observe(0.1)
        assert a.histograms["h"].count == 1

    def test_span_parents_rebased(self):
        a = MetricsSnapshot(spans=[SpanData("x", 0.0, 1.0)])
        b = MetricsSnapshot(
            spans=[
                SpanData("root", 0.0, 2.0),
                SpanData("child", 0.5, 1.0, depth=1, parent=0),
            ]
        )
        a.merge(b)
        assert [s.parent for s in a.spans] == [-1, -1, 1]
        assert a.spans[2].name == "child"

    def test_merge_source_untouched(self):
        src = MetricsSnapshot(counters={"c": 1}, spans=[SpanData("s", 0.0, 1.0)])
        MetricsSnapshot(spans=[SpanData("x", 0.0, 1.0)]).merge(src)
        assert src.counters == {"c": 1}
        assert src.spans[0].parent == -1

    def test_pickle_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("c", 2, k="v")
        reg.observe("h", 0.2)
        reg.end_span(reg.begin_span("s", 1.0, {"w": "health"}), 0.5)
        snap = reg.snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap


class TestSpans:
    def test_nesting_depth_and_parent(self):
        reg = obs.install(MetricsRegistry())
        with span("outer"):
            with span("inner", k="v"):
                pass
        outer, inner = reg.snapshot().spans
        assert (outer.depth, outer.parent) == (0, -1)
        assert (inner.depth, inner.parent) == (1, 0)
        assert inner.attrs == {"k": "v"}
        assert outer.duration >= inner.duration >= 0.0

    def test_span_times_without_registry(self):
        with span("lonely") as sp:
            time.sleep(0.001)
        assert sp.elapsed > 0.0

    def test_phase_span_feeds_times_and_counter(self):
        reg = obs.install(MetricsRegistry())
        times = PhaseTimes()
        with phase_span(times, "profile", workload="w"):
            time.sleep(0.001)
        snap = reg.snapshot()
        assert times.profile > 0.0
        key = 'phase.seconds{phase="profile"}'
        assert snap.counters[key] == pytest.approx(times.profile)
        assert snap.spans[0].name == "phase.profile"

    def test_phase_span_accepts_none_times(self):
        with phase_span(None, "record") as sp:
            pass
        assert sp.elapsed >= 0.0


class TestMeasurementHarvest:
    def test_counters_match_measurement(self):
        workload = get_workload(BENCH)
        with obs.collecting() as reg:
            measurement = measure_baseline(workload, scale="test", seed=1)
        snap = reg.snapshot()
        labels = {"workload": BENCH, "config": "baseline"}
        key = lambda name: metric_key(name, labels)  # noqa: E731
        assert snap.counters[key("measure.runs")] == 1
        assert snap.counters[key("measure.cache.l1_misses")] == measurement.cache.l1_misses
        assert snap.counters[key("measure.machine.loads")] + snap.counters[
            key("measure.machine.stores")
        ] == measurement.accesses
        assert snap.counters[key("measure.peak_live_bytes")] == measurement.peak_live_bytes

    def test_grouped_alloc_counters_for_halo_config(self, prepared_halo):
        workload, artifacts = prepared_halo
        with obs.collecting() as reg:
            measurement = measure_halo(workload, artifacts, scale="test", seed=1)
        snap = reg.snapshot()
        labels = {"workload": BENCH, "config": "halo"}
        grouped = snap.counters[metric_key("measure.alloc.grouped_allocs", labels)]
        forwarded = snap.counters[metric_key("measure.alloc.forwarded_allocs", labels)]
        assert grouped == measurement.grouped_allocs
        # deepsjeng's test input forwards everything; the counter still
        # has to agree with the measurement and prove the family exists.
        assert forwarded == measurement.forwarded_allocs > 0

    def test_disabled_run_records_nothing(self):
        workload = get_workload(BENCH)
        reg = MetricsRegistry()  # never installed
        measure_baseline(workload, scale="test", seed=1)
        assert reg.snapshot().is_empty()
        assert obs.active_registry() is None

    @pytest.fixture(scope="class")
    def prepared_halo(self):
        """One prepared HALO pipeline for the cheap benchmark."""
        from repro.harness.prepare import prepare_workload

        workload = get_workload(BENCH)
        prepared = prepare_workload(BENCH, include_hds=False, workload=workload)
        return workload, prepared.halo


def _measure_counters(jobs: int) -> dict[str, float]:
    """The merged ``measure.*`` counters of one small evaluation."""
    reg = obs.install(MetricsRegistry())
    times = PhaseTimes()
    try:
        evaluate_all(
            (BENCH,), trials=1, scale="test", include_random=False,
            jobs=jobs, phase_times=times,
        )
        snap = reg.snapshot()
        if times.metrics is not None:
            snap.merge(times.metrics)
    finally:
        obs.uninstall()
    return snap.counters_with_prefix("measure.")


class TestDeterminism:
    def test_serial_and_parallel_measure_counters_identical(self):
        serial = _measure_counters(jobs=1)
        parallel = _measure_counters(jobs=2)
        assert serial  # the family is populated at all
        assert serial == parallel  # bit-identical, not approximately equal


class TestNoOpOverhead:
    """Observability costs nothing when off and a fixed number of registry
    writes per measurement when on: counted, not timed, so a loaded
    machine cannot fail it."""

    WRITES = ("inc", "gauge_set", "gauge_max", "observe", "begin_span", "end_span")
    WORKLOAD = "deepsjeng"

    @classmethod
    def counting_writes(cls, monkeypatch) -> Counter:
        """Count every write into any :class:`MetricsRegistry`, by method."""
        writes: Counter = Counter()
        for name in cls.WRITES:
            original = getattr(MetricsRegistry, name)

            def counted(self, *args, _original=original, _name=name, **kwargs):
                writes[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(MetricsRegistry, name, counted)
        return writes

    @classmethod
    def harvest(cls, writes: Counter, scale: str) -> tuple[int, int]:
        """Registry writes and simulated accesses of one observed baseline
        measurement at *scale*."""
        writes.clear()
        with obs.collecting(MetricsRegistry()):
            measurement = measure_baseline(get_workload(cls.WORKLOAD), scale=scale, seed=1)
        return sum(writes.values()), measurement.accesses

    @classmethod
    def assert_harvests_do_not_grow(cls, writes: Counter) -> None:
        small, small_accesses = cls.harvest(writes, "test")
        large, large_accesses = cls.harvest(writes, "train")
        assert large_accesses > 1.5 * small_accesses  # the scales differ
        assert 0 < small == large

    def test_off_makes_no_registry_writes(self, monkeypatch):
        writes = self.counting_writes(monkeypatch)
        assert obs.active_registry() is None
        measure_baseline(get_workload(self.WORKLOAD), scale="test", seed=1)
        assert not writes

    def test_harvests_do_not_grow_with_the_trace(self, monkeypatch):
        self.assert_harvests_do_not_grow(self.counting_writes(monkeypatch))

    def test_a_per_access_harvest_is_caught(self, monkeypatch):
        """A mutant that harvests on every load fails the check above."""
        writes = self.counting_writes(monkeypatch)
        load = Machine.load

        def harvesting_load(self, obj, offset=0, size=8):
            obs.inc("measure.loads")
            return load(self, obj, offset, size)

        monkeypatch.setattr(Machine, "load", harvesting_load)
        with pytest.raises(AssertionError):
            self.assert_harvests_do_not_grow(writes)


class TestEndToEnd:
    def test_plot_metrics_out_acceptance(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        ret = cli_main(
            [
                "plot", "--figure", "13", "--benchmarks", "health",
                "--trials", "1", "--scale", "test", "--no-cache",
                "--metrics-out", str(out),
            ]
        )
        assert ret == 0
        assert "phase wall-time" in capsys.readouterr().out
        snap = obs.snapshot_from_json(out.read_text())
        names = {s.name for s in snap.spans}
        assert {"phase.profile", "phase.analyse", "phase.measure"} <= names
        assert "halo.plot.figure13" in names
        assert snap.sum_counter("measure.alloc.grouped_allocs") > 0
        assert snap.sum_counter("phase.seconds") > 0
        # The CLI uninstalled its registry on the way out.
        assert obs.active_registry() is None

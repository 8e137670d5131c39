"""Differential tests for the columnar simulation core.

The per-event :class:`~repro.machine.machine.Machine` replay is the
oracle: every test here asserts the batched engine reproduces its
measurements bit-for-bit — across all benchmark workloads, all allocator
configurations, both kernel backends, serial and parallel evaluation —
plus property-style checks of the LRU kernel on random streams.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.cache import CacheConfigError
from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.columnar import kernel_backend
from repro.columnar.kernel import (
    _lru_filter_py,
    expand_ranges,
    lru_filter,
    validate_geometry,
)
from repro.core.pipeline import HaloParams, optimise_profile, profile_workload
from repro.harness.prepare import get_or_record_trace
from repro.harness.runner import (
    ENGINES,
    measure_baseline,
    measure_halo,
    measure_hds,
    measure_random_pools,
    resolve_engine,
)
from repro.hds.pipeline import HdsParams, analyse_profile
from repro.trace.access import AccessTrace
from repro.workloads.base import get_workload

#: The benchmark sweep the acceptance criteria name.
BENCHMARKS = ("deepsjeng", "roms", "povray", "ammp")

CONFIGS = ("baseline", "halo", "hds", "random-pools")


def _measurement_fields(m):
    """Everything a Measurement reports, as a comparable tuple."""
    return (
        m.workload, m.config, m.scale, m.seed,
        m.cycles, m.cache, m.accesses, m.allocs, m.frees,
        m.instrumentation_toggles, m.peak_live_bytes, m.frag_at_peak,
        m.grouped_allocs, m.forwarded_allocs, m.degraded_allocs,
    )


@pytest.fixture(scope="module")
def prepared():
    """Per-benchmark (workload, trace, halo, hds) inputs, built once."""
    out = {}
    for name in BENCHMARKS:
        workload = get_workload(name)
        trace = get_or_record_trace(name, workload=workload)
        profile = profile_workload(workload, HaloParams(), scale="test", record_trace=True)
        halo = optimise_profile(profile, HaloParams())
        hds = analyse_profile(profile, HdsParams())
        out[name] = (workload, trace, halo, hds)
    return out


def _measure(prepared, name, config, engine, seed=1):
    workload, trace, halo, hds = prepared[name]
    kwargs = dict(scale="test", seed=seed, trace=trace, engine=engine)
    if config == "baseline":
        return measure_baseline(workload, **kwargs)
    if config == "halo":
        return measure_halo(workload, halo, **kwargs)
    if config == "hds":
        return measure_hds(workload, hds, **kwargs)
    return measure_random_pools(workload, **kwargs)


class TestEngineAgreement:
    """The differential oracle: columnar == per-event, field for field."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("config", CONFIGS)
    def test_bit_identical_measurements(self, prepared, name, config):
        event = _measure(prepared, name, config, "event")
        columnar = _measure(prepared, name, config, "columnar")
        assert _measurement_fields(columnar) == _measurement_fields(event)

    def test_columnar_matches_direct_execution(self, prepared):
        """Trace-driven columnar equals executing the workload outright."""
        workload, trace, _, _ = prepared["deepsjeng"]
        direct = measure_baseline(workload, scale="test", seed=1)
        columnar = measure_baseline(
            workload, scale="test", seed=1, trace=trace, engine="columnar"
        )
        assert _measurement_fields(columnar) == _measurement_fields(direct)

    def test_engines_track_across_seeds(self, prepared):
        """Whatever placement each ASLR seed yields, the engines agree."""
        for seed in (1, 2, 3):
            event = _measure(prepared, "roms", "baseline", "event", seed=seed)
            columnar = _measure(prepared, "roms", "baseline", "columnar", seed=seed)
            assert _measurement_fields(columnar) == _measurement_fields(event)

    def test_python_kernel_backend_agrees(self, prepared, monkeypatch):
        """The pure-Python LRU fallback is as exact as the C kernel."""
        from repro.columnar import kernel

        columnar_c = _measure(prepared, "deepsjeng", "halo", "columnar")
        monkeypatch.setattr(kernel, "_kernel", False)
        assert kernel_backend() == "python"
        columnar_py = _measure(prepared, "deepsjeng", "halo", "columnar")
        assert _measurement_fields(columnar_py) == _measurement_fields(columnar_c)

    def test_engine_metrics_labelled_and_totals_comparable(self, prepared):
        """engine.measure.* carries the engine label; measure.* totals match."""
        from repro import obs

        with obs.collecting() as registry:
            _measure(prepared, "deepsjeng", "baseline", "event")
        event_snap = registry.snapshot()
        with obs.collecting() as registry:
            _measure(prepared, "deepsjeng", "baseline", "columnar")
        columnar_snap = registry.snapshot()

        assert event_snap.sum_counter_where(
            "engine.measure.runs", engine="event") == 1
        assert columnar_snap.sum_counter_where(
            "engine.measure.runs", engine="columnar") == 1
        assert columnar_snap.sum_counter_where(
            "engine.measure.events", engine="columnar"
        ) == event_snap.sum_counter_where("engine.measure.events", engine="event")
        # The deterministic measure.* family stays engine-agnostic.
        for family in ("measure.runs", "measure.cache.l1_misses",
                       "measure.machine.allocs", "measure.peak_live_bytes"):
            assert columnar_snap.sum_counter(family) == event_snap.sum_counter(family)


class TestParallelAgreement:
    """Serial event vs ``--jobs N`` columnar: identical evaluations."""

    def test_evaluate_all_jobs_columnar_matches_serial_event(self, tmp_path):
        from repro.core.artifact_cache import ArtifactCache
        from repro.harness.reproduce import evaluate_all

        benchmarks = ["deepsjeng", "roms"]
        cache = ArtifactCache(tmp_path / "cache")
        serial = evaluate_all(
            benchmarks, trials=2, scale="test", include_random=True,
            cache=cache, engine="event",
        )
        parallel = evaluate_all(
            benchmarks, trials=2, scale="test", include_random=True,
            jobs=2, cache=cache, engine="columnar",
        )
        for name in benchmarks:
            for config in ("baseline", "halo", "hds", "random_pools"):
                s = getattr(serial[name], config)
                p = getattr(parallel[name], config)
                assert (s.cycles, s.l1_misses) == (p.cycles, p.l1_misses), (
                    name, config)


class TestEngineResolution:
    def test_no_trace_is_direct(self):
        assert resolve_engine("auto", None) == "direct"

    def test_auto_picks_columnar(self, prepared):
        _, trace, _, _ = prepared["deepsjeng"]
        assert resolve_engine("auto", trace) == "columnar"
        assert resolve_engine("event", trace) == "event"
        assert resolve_engine("columnar", trace) == "columnar"

    def test_unknown_engine_rejected(self, prepared):
        _, trace, _, _ = prepared["deepsjeng"]
        with pytest.raises(ValueError, match="unknown measurement engine"):
            resolve_engine("vectorised", trace)
        assert "vectorised" not in ENGINES

    def test_trace_and_driver_are_exclusive(self, prepared):
        workload, trace, _, _ = prepared["deepsjeng"]
        with pytest.raises(ValueError, match="not both"):
            measure_baseline(
                workload, scale="test", trace=trace, driver=lambda m: None
            )

    def test_sanitizer_forces_event(self, prepared):
        from repro.sanitize import SanitizerConfig, sanitizer_active

        _, trace, _, _ = prepared["deepsjeng"]
        with sanitizer_active(SanitizerConfig()):
            assert resolve_engine("auto", trace) == "event"
            assert resolve_engine("columnar", trace) == "event"
        assert resolve_engine("auto", trace) == "columnar"


class TestLruKernelProperties:
    """Property-style checks of the chunked LRU kernel on random streams."""

    @pytest.mark.parametrize("seed", range(4))
    def test_backends_agree_on_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            n = int(rng.integers(1, 3000))
            key_space = int(rng.integers(4, 4000))
            keys = rng.integers(0, key_space, size=n).astype(np.int64)
            num_sets = int(rng.choice([1, 2, 3, 8, 64, 512, 36864]))
            assoc = int(rng.integers(1, 65))
            c_misses, c_missed = lru_filter(keys, num_sets, assoc)
            p_misses, p_missed = _lru_filter_py(keys, num_sets, assoc)
            assert c_misses == p_misses
            assert np.array_equal(c_missed, p_missed)

    @pytest.mark.parametrize("seed", range(4))
    def test_filter_matches_per_event_cache(self, seed):
        """One lru_filter pass == SetAssociativeCache.access_line per key."""
        from repro.cache.cache import SetAssociativeCache

        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(200, 2000))
        keys = rng.integers(0, 700, size=n).astype(np.int64)
        line = 64
        assoc = int(rng.choice([1, 2, 4, 8, 11]))
        num_sets = int(rng.choice([16, 64, 36]))  # pow2 and non-pow2
        cache = SetAssociativeCache(num_sets * assoc * line, assoc, line, "T")
        event_missed = [int(k) for k in keys.tolist() if not cache.access_line(k)]
        misses, missed = lru_filter(keys, num_sets, assoc)
        assert misses == cache.stats.misses == len(event_missed)
        assert missed.tolist() == event_missed

    def test_fully_associative_matches_tlb(self):
        from repro.cache.tlb import TLB

        rng = np.random.default_rng(7)
        pages = rng.integers(0, 120, size=4000).astype(np.int64)
        tlb = TLB(64, 4096)
        for page in pages.tolist():
            tlb.access_page(page)
        misses, _ = lru_filter(pages, 1, 64)
        assert misses == tlb.stats.misses

    def test_rejects_impossible_geometry(self):
        keys = np.arange(4, dtype=np.int64)
        with pytest.raises(CacheConfigError):
            lru_filter(keys, 0, 4)
        with pytest.raises(CacheConfigError):
            lru_filter(keys, 16, 0)

    def test_validate_geometry_mirrors_hierarchy_errors(self):
        validate_geometry(HierarchyConfig())
        for bad, exc in (
            (HierarchyConfig(line_size=48), CacheConfigError),
            (HierarchyConfig(l1_size=1000), CacheConfigError),
            (HierarchyConfig(tlb_entries=0), ValueError),
            (HierarchyConfig(page_size=1000), ValueError),
        ):
            with pytest.raises(exc):
                CacheHierarchy(bad)
            with pytest.raises(exc):
                validate_geometry(bad)

    def test_expand_ranges(self):
        first = np.array([3, 10, 20], dtype=np.int64)
        last = np.array([5, 10, 22], dtype=np.int64)
        assert expand_ranges(first, last).tolist() == [3, 4, 5, 10, 20, 21, 22]
        same = np.array([1, 2], dtype=np.int64)
        assert expand_ranges(same, same) is same  # no straddles: zero-copy
        empty = np.empty(0, dtype=np.int64)
        assert expand_ranges(empty, empty).shape == (0,)


class TestHierarchySimulation:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_access_stream_matches_event_hierarchy(self, seed):
        """simulate_hierarchy == CacheHierarchy.access over random streams."""
        from repro.columnar.engine import simulate_hierarchy

        rng = np.random.default_rng(200 + seed)
        n = 3000
        addr = (rng.integers(0, 1 << 24, size=n) + (1 << 36)).astype(np.int64)
        size = rng.choice([1, 2, 4, 8, 64, 100, 300], size=n).astype(np.int64)
        config = HierarchyConfig(
            l1_size=16 * 1024, l2_size=256 * 1024, l3_size=2 * 1024 * 1024,
            l3_assoc=8, tlb_entries=16,
        )
        hierarchy = CacheHierarchy(config)
        for a, s in zip(addr.tolist(), size.tolist()):
            hierarchy.access(a, s)
        stats, pages, page_starts = simulate_hierarchy(addr, size, config)
        assert stats == hierarchy.snapshot()
        assert int(page_starts[-1]) == int(pages.shape[0])

    @pytest.mark.parametrize("seed", range(3))
    def test_access_trace_replay_engines_agree(self, seed):
        """AccessTrace.replay (the columnar filter chain) == per-access hierarchy."""
        rng = np.random.default_rng(300 + seed)
        n = 2500
        addrs = (rng.integers(0, 1 << 26, size=n) + (1 << 36)).astype(np.int64)
        sizes = rng.choice([1, 8, 64, 200], size=n).astype(np.int32)
        trace = AccessTrace(addrs, sizes)
        for config in (HierarchyConfig(), HierarchyConfig(l1_size=8 * 1024, tlb_entries=8)):
            hierarchy = CacheHierarchy(config)
            for a, s in zip(addrs.tolist(), sizes.tolist()):
                hierarchy.access(a, s)
            assert trace.replay(config) == hierarchy.snapshot()


#: Cache geometries for the what-if sweep: the default, an embedded-class
#: part with 8K/128K/2M caches and a 16-entry TLB, and the evaluation
#: machine's named config.
GEOMETRIES = (
    HierarchyConfig(),
    HierarchyConfig(
        l1_size=8 * 1024, l1_assoc=4,
        l2_size=128 * 1024, l2_assoc=8,
        l3_size=2048 * 1024, l3_assoc=8,
        tlb_entries=16,
    ),
    HierarchyConfig.xeon_w2195(),
)


class TestCacheGeometrySweep:
    """One placement, many filter runs == one full measurement per geometry."""

    @pytest.mark.parametrize("name", ["health", "povray", "mix-5x3-rr"])
    def test_matches_measure_columnar(self, name):
        from repro.allocators import ALLOCATOR_FAMILIES
        from repro.columnar.engine import measure_columnar
        from repro.trace import record_workload, sweep_cache_geometries

        workload = get_workload(name)
        trace = record_workload(name, scale="test")
        swept = sweep_cache_geometries(trace, workload.program, GEOMETRIES, seed=3)
        measured = [
            measure_columnar(
                workload, ALLOCATOR_FAMILIES["baseline"], "baseline", trace,
                scale="test", seed=3, hierarchy_config=geometry,
            ).cache
            for geometry in GEOMETRIES
        ]
        assert swept == measured
        # The embedded part must actually miss more, or the sweep is vacuous.
        assert swept[1].l1_misses > swept[0].l1_misses


class TestTraceColumns:
    def test_read_all_matches_events(self, prepared, tmp_path):
        from repro.trace.format import EventTrace, TraceReader

        _, trace, _, _ = prepared["deepsjeng"]
        assert trace.read_all() == trace.events()
        path = trace.save(tmp_path / "dj.trace")
        assert TraceReader(path).read_all() == trace.events()
        assert EventTrace.load(path).read_all() == trace.events()

    def test_column_counts_match_header(self, prepared):
        from repro.trace.format import OP_ALLOC, OP_FREE, OP_LOAD, OP_STORE

        _, trace, _, _ = prepared["roms"]
        cols = trace.columns()
        events = trace.events()
        assert cols.loads == sum(1 for e in events if e[0] == OP_LOAD)
        assert cols.stores == sum(1 for e in events if e[0] == OP_STORE)
        assert cols.allocs == sum(1 for e in events if e[0] == OP_ALLOC)
        assert cols.frees == sum(1 for e in events if e[0] == OP_FREE)
        assert cols.accesses == cols.loads + cols.stores
        assert cols.acc_oid.shape[0] == cols.accesses
        assert trace.columns() is cols  # cached


def _churn_program():
    from repro.machine import ProgramBuilder

    builder = ProgramBuilder("churn")
    sites = [builder.call_site("main", f"make{i}").addr for i in range(4)]
    return builder.build(), sites


class TestFragmentationAtPeak:
    """The single placement pass's residency-from-columns snapshot equals
    the per-event replay's ``frag_at_peak`` exactly, whatever the chunk
    policy, and so does every other field."""

    PROGRAM, SITES = _churn_program()
    #: Three grouped sites; the fourth allocates ungrouped.
    PLAN = {site: bit for bit, site in enumerate(SITES[:3])}

    @classmethod
    def _churn(cls, seed: int, realloc: bool = False, threads: bool = False) -> list:
        """Rounds of grouped and ungrouped allocations, each touched, then
        mostly freed right after a last touch, so that chunks drain and are
        purged just after an access; later rounds are larger, so the
        live-byte peak comes after the purges."""
        import random

        rng = random.Random(seed)
        ops: list = []
        live = 0
        for round_ in range(5):
            for _ in range(30 + 15 * round_):
                if threads and rng.random() < 0.1:
                    ops.append(("thread", rng.randrange(3)))
                site = rng.choice(cls.SITES)
                ops += [("call", site), ("alloc", rng.choice((24, 64, 200, 700, 2000))),
                        ("return",), ("store", -1)]
                live += 1
                if realloc and rng.random() < 0.2:
                    ops += [("call", site), ("realloc", rng.randrange(live), 3000), ("return",)]
            if round_ < 4:
                for _ in range(live * 4 // 5):
                    k = rng.randrange(live)
                    ops += [("store", k), ("free", k)]
                    live -= 1
        return ops

    def _both(self, ops, cls=None, seed=2, **options):
        """(event, columnar) measurements of *ops* under one grouped policy,
        and the columnar placement's view of the peak."""
        from types import SimpleNamespace

        from repro.allocators import SizeClassAllocator
        from repro.allocators.group import GroupAllocator
        from repro.columnar.engine import place_trace
        from repro.core.selectors import CompiledMatcher, GroupSelector
        from repro.harness.runner import run_measurement
        from repro.machine.machine import GroupStateVector

        from conftest import record_ops

        cls = cls or GroupAllocator
        trace = record_ops(self.PROGRAM, ops)
        workload = SimpleNamespace(name="churn", program=self.PROGRAM)

        def grouped():
            vector = GroupStateVector()
            matcher = CompiledMatcher(
                [GroupSelector(gid, (frozenset({site}),)) for site, gid in self.PLAN.items()],
                self.PLAN,
            )
            return (lambda space: cls(space, SizeClassAllocator(space), matcher, vector, **options),
                    vector)

        runs = []
        for engine in ("event", "columnar"):
            factory, vector = grouped()
            runs.append(run_measurement(
                workload, factory, "grouped", scale="test", seed=seed,
                instrumentation=self.PLAN, state_vector=vector, trace=trace, engine=engine,
            ))
        factory, vector = grouped()
        _, _, placement, _ = place_trace(
            self.PROGRAM, factory, trace, seed, self.PLAN, vector
        )
        return runs[0], runs[1], placement

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("chunk_size", [1 << 14, 1 << 12, 1 << 11])
    def test_purges_before_the_peak(self, seed, chunk_size):
        event, columnar, placement = self._both(
            self._churn(seed), chunk_size=chunk_size, max_spare_chunks=0
        )
        assert columnar == event
        assert placement.peak.purges  # the peak follows real purges
        assert event.frag_at_peak.resident_bytes > 0

    def test_always_reused_chunks(self):
        event, columnar, placement = self._both(
            self._churn(4), chunk_size=1 << 12, always_reuse_chunks=True
        )
        assert columnar == event
        assert not placement.peak.purges

    def test_sharded_allocator(self):
        from repro.allocators.sharded import ShardedGroupAllocator

        event, columnar, placement = self._both(
            self._churn(5), cls=ShardedGroupAllocator, chunk_size=1 << 13, max_spare_chunks=0
        )
        assert columnar == event
        assert placement.peak.purges

    def test_growing_grouped_realloc(self):
        event, columnar, placement = self._both(
            self._churn(6, realloc=True), chunk_size=1 << 13, max_spare_chunks=0
        )
        assert columnar == event
        assert placement.moves  # grouped reallocs grew and moved

    def test_degraded_allocations(self):
        event, columnar, _ = self._both(
            self._churn(7), chunk_size=1 << 12, max_spare_chunks=0, max_total_chunks=3
        )
        assert columnar == event
        assert event.degraded_allocs > 0

    def test_threaded_mix(self):
        ops = self._churn(8, threads=True)
        assert any(op[0] == "thread" for op in ops)
        event, columnar, _ = self._both(ops, chunk_size=1 << 12, max_spare_chunks=0)
        assert columnar == event

    def test_peak_at_the_first_allocation(self):
        site = self.SITES[0]
        ops = [("call", site), ("alloc", 3000), ("return",), ("store", 0)]
        ops += [("free", 0)]
        for _ in range(20):
            ops += [("call", site), ("alloc", 64), ("return",), ("store", -1), ("free", -1)]
        event, columnar, placement = self._both(ops, chunk_size=1 << 12, max_spare_chunks=0)
        assert columnar == event
        assert placement.peak.ptr == 0 and placement.peak.frag.live_bytes == 3000
        assert event.frag_at_peak.live_bytes == 3000

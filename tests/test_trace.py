"""Tests for the event-trace record/replay subsystem (repro.trace).

The load-bearing property is *equivalence*: replaying a recorded trace
must be bit-identical to direct execution — same affinity graphs, same
machine metrics, same cache counters — on real workloads, because the
whole harness now substitutes replays for executions wherever a trace is
available.
"""

from __future__ import annotations

import dataclasses
import zlib

import pytest

from repro.allocators import AddressSpace, SizeClassAllocator
from repro.cache.hierarchy import CacheHierarchy
from repro.core.artifact_cache import ArtifactCache
from repro.core.pipeline import HaloParams, optimise_profile, profile_workload
from repro.machine import Machine
from repro.machine.events import Listener
from repro.trace import (
    AccessTraceRecorder,
    EventTrace,
    TraceFormatError,
    TraceReader,
    TraceRecorder,
    TraceReplayer,
    derive_access_trace,
    record_workload,
    replay_profile,
    sweep_affinity_distances,
    sweep_merge_tolerances,
)
from repro.trace.format import (
    OP_ALLOC,
    OP_CALL,
    OP_END,
    OP_FREE,
    OP_LOAD,
    OP_REALLOC,
    OP_RETURN,
    OP_STORE,
    OP_WORK,
    TraceWriter,
    encode_uvarint,
    unzigzag,
    zigzag,
)
from repro.workloads import get_workload

from conftest import alloc_via

#: The equivalence workloads the acceptance criteria name.
WORKLOADS = ("health", "art", "omnetpp")


@pytest.fixture(scope="module")
def traces() -> dict[str, EventTrace]:
    """One recorded test-scale trace per equivalence workload."""
    return {name: record_workload(name, scale="test") for name in WORKLOADS}


class TestEncoding:
    def test_uvarint_round_trip_boundaries(self):
        writer = TraceWriter()
        values = [0, 1, 127, 128, 255, 300, 1 << 14, (1 << 35) + 7]
        for value in values:
            writer._emit_uvarint(value)
        data = bytes(writer._buffer)
        # Decode by hand with the reference encoder as the oracle.
        assert data == b"".join(encode_uvarint(v) for v in values)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_zigzag_round_trip(self):
        for value in (0, 1, -1, 63, -64, 1 << 20, -(1 << 20)):
            assert unzigzag(zigzag(value)) == value


class TestFormat:
    def _synthetic_trace(self) -> tuple[EventTrace, list[tuple]]:
        writer = TraceWriter(workload="synthetic", scale="test", program="demo")
        writer.call(0x401010)
        writer.alloc(64)  # oid 0
        writer.access(0, 8, 4, is_store=True)
        writer.access(0, 8, 4, is_store=False)
        writer.realloc(0, 128)
        writer.work(100.0)
        writer.work(0.625)  # non-integral: float64 path
        writer.alloc(32)  # oid 1
        writer.access(1, 0, 8, is_store=False)
        writer.free(0)
        writer.ret()
        writer.end()
        expected = [
            (OP_CALL, 0x401010),
            (OP_ALLOC, 64),
            (OP_STORE, 0, 8, 4),
            (OP_LOAD, 0, 8, 4),
            (OP_REALLOC, 0, 128),
            (OP_WORK, 100.0),
            (OP_WORK, 0.625),
            (OP_ALLOC, 32),
            (OP_LOAD, 1, 0, 8),
            (OP_FREE, 0),
            (OP_RETURN,),
            (OP_END,),
        ]
        return writer.close(), expected

    def test_writer_decodes_to_emitted_events(self):
        trace, expected = self._synthetic_trace()
        assert trace.events() == expected
        assert trace.header.events == len(expected)
        assert trace.header.allocs == 2
        assert trace.header.alloc_bytes == 96
        assert trace.header.reallocs == 1
        assert trace.header.works == 2

    def test_container_round_trip(self):
        trace, expected = self._synthetic_trace()
        back = EventTrace.from_bytes(trace.to_bytes())
        assert back.events() == expected
        assert back.header.to_json() == trace.header.to_json()

    def test_save_load_and_streaming_reader(self, tmp_path):
        trace, expected = self._synthetic_trace()
        path = trace.save(tmp_path / "t.trace")
        assert EventTrace.load(path).events() == expected
        reader = TraceReader(path, chunk_size=3)  # force partial-event rewinds
        assert reader.header.workload == "synthetic"
        assert list(reader) == expected

    def test_iter_events_matches_in_small_chunks(self):
        trace, expected = self._synthetic_trace()
        fresh = EventTrace.from_bytes(trace.to_bytes())
        assert list(fresh.iter_events(chunk_size=2)) == expected

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError):
            EventTrace.from_bytes(b"NOTATRACE")

    def test_event_count_mismatch_rejected(self):
        trace, _ = self._synthetic_trace()
        corrupt = EventTrace(trace.header, trace.body[:-4], flags=trace.flags)
        with pytest.raises(Exception):  # zlib or format error, never silence
            corrupt.events()

    def test_close_is_idempotent(self):
        trace, _ = self._synthetic_trace()
        writer = TraceWriter()
        writer.end()
        first = writer.close()
        assert writer.close() is first


class TestRecorder:
    def test_records_machine_events(self, demo):
        recorder = TraceRecorder(workload="demo", program=demo.program.name)
        machine = Machine(
            demo.program, SizeClassAllocator(AddressSpace(0)), listeners=[recorder]
        )
        obj = alloc_via(machine, [demo.main_a, demo.a_malloc], size=48)
        machine.store(obj, 0, 8)
        machine.work(7.0)
        machine.realloc(obj, 96)
        machine.free(obj)
        machine.finish()
        events = recorder.trace.events()
        assert events == [
            (OP_CALL, demo.main_a.addr),
            (OP_CALL, demo.a_malloc.addr),
            (OP_ALLOC, 48),
            (OP_RETURN,),
            (OP_RETURN,),
            (OP_STORE, 0, 0, 8),
            (OP_WORK, 7.0),
            (OP_REALLOC, 0, 96),
            (OP_FREE, 0),
            (OP_END,),
        ]

    def test_double_finish_records_one_end(self, demo):
        recorder = TraceRecorder()
        machine = Machine(
            demo.program, SizeClassAllocator(AddressSpace(0)), listeners=[recorder]
        )
        machine.finish()
        machine.finish()  # profile_workload's extra finish must be a no-op
        events = recorder.trace.events()
        assert events == [(OP_END,)]

    def test_finish_returns_same_trace_object(self, demo):
        """Regression: a second finish (or close) must not re-finalise.

        The serving daemon and the profiling driver both fire ``finish``
        on shared machines; re-finalising would tear the completed trace.
        """
        recorder = TraceRecorder()
        machine = Machine(
            demo.program, SizeClassAllocator(AddressSpace(0)), listeners=[recorder]
        )
        alloc_via(machine, [demo.main_a, demo.a_malloc], size=32)
        machine.finish()
        first = recorder.trace
        assert first is not None
        machine.finish()
        assert recorder.trace is first
        assert recorder.close() is first
        assert first.verify()

    def test_finish_after_midstream_fault(self, demo):
        """A fault mid-run, then the driver's cleanup ``finish``: the
        trace must finalise exactly once, decode, and carry one END."""
        recorder = TraceRecorder()
        machine = Machine(
            demo.program, SizeClassAllocator(AddressSpace(0)), listeners=[recorder]
        )
        try:
            obj = alloc_via(machine, [demo.main_a, demo.a_malloc], size=32)
            machine.store(obj, 0, 8)
            raise RuntimeError("injected mid-stream fault")
        except RuntimeError:
            machine.finish()  # cleanup path (e.g. a finally block)
        machine.finish()  # outer driver's normal finish
        events = recorder.trace.events()
        assert events.count((OP_END,)) == 1
        assert events[-1] == (OP_END,)
        assert (OP_ALLOC, 32) in events
        assert recorder.trace.verify()

    def test_close_without_finish_yields_partial_trace(self, demo):
        """A recorder abandoned before any ``finish`` (hard mid-stream
        death) still closes to a decodable, END-less trace."""
        recorder = TraceRecorder()
        machine = Machine(
            demo.program, SizeClassAllocator(AddressSpace(0)), listeners=[recorder]
        )
        alloc_via(machine, [demo.main_a, demo.a_malloc], size=48)
        partial = recorder.close()
        assert recorder.close() is partial
        events = partial.events()
        assert (OP_END,) not in events
        assert (OP_ALLOC, 48) in events
        assert partial.verify()


class TestProfileReplayEquivalence:
    """Acceptance: replayed profiles are bit-identical on ≥3 workloads."""

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_profile_bit_identical(self, traces, name):
        workload = get_workload(name)
        params = HaloParams()
        direct = profile_workload(workload, params, scale="test", record_trace=True)
        replayed = replay_profile(
            traces[name], workload.program, params, record_trace=True
        )
        assert direct.graph == replayed.graph
        assert direct.full_graph == replayed.full_graph
        assert direct.object_context == replayed.object_context
        assert direct.object_site == replayed.object_site
        assert direct.object_sizes == replayed.object_sizes
        assert direct.context_stats == replayed.context_stats
        assert direct.trace == replayed.trace  # the HDS reference trace
        assert direct.machine_accesses == replayed.machine_accesses
        assert direct.total_accesses == replayed.total_accesses

    def test_downstream_grouping_identical(self, traces):
        workload = get_workload("health")
        params = HaloParams()
        direct = optimise_profile(
            profile_workload(workload, params, scale="test"), params
        )
        replayed = optimise_profile(
            replay_profile(traces["health"], workload.program, params), params
        )
        assert [sorted(g.members) for g in direct.groups] == [
            sorted(g.members) for g in replayed.groups
        ]
        assert direct.plan.bit_for_site == replayed.plan.bit_for_site


class TestMeasurementReplayEquivalence:
    """Acceptance: replayed measurements match direct cache counters."""

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_machine_metrics_and_cache_identical(self, traces, name):
        workload = get_workload(name)
        # Seed 1 differs from the recording's seed 0: the event stream is
        # placement-independent, so replay must still match a direct run
        # under the new placement exactly.
        direct = Machine(
            workload.program, SizeClassAllocator(AddressSpace(1)), memory=CacheHierarchy()
        )
        workload.run(direct, "test")
        replay = Machine(
            workload.program, SizeClassAllocator(AddressSpace(1)), memory=CacheHierarchy()
        )
        TraceReplayer(traces[name], workload.program).drive(replay)
        assert direct.metrics == replay.metrics
        assert direct.memory.snapshot() == replay.memory.snapshot()

    def test_run_measurement_driver(self, traces):
        from repro.harness.runner import measure_baseline

        workload = get_workload("health")
        direct = measure_baseline(workload, scale="test", seed=1)
        replayer = TraceReplayer(traces["health"], workload.program)
        replayed = measure_baseline(
            workload, scale="test", seed=1, driver=replayer.drive
        )
        assert direct.cycles == replayed.cycles
        assert direct.cache == replayed.cache
        assert direct.accesses == replayed.accesses
        assert direct.allocs == replayed.allocs
        assert direct.peak_live_bytes == replayed.peak_live_bytes

    def test_program_mismatch_rejected(self, traces):
        other = get_workload("art")
        machine = Machine(other.program, SizeClassAllocator(AddressSpace(0)))
        with pytest.raises(TraceFormatError):
            TraceReplayer(traces["health"], get_workload("health").program).drive(machine)


class TestSweeps:
    def test_merge_tolerance_sweep_matches_direct(self, traces):
        workload = get_workload("health")
        tolerances = (0.01, 0.2)
        swept = sweep_merge_tolerances(
            traces["health"], workload.program, tolerances
        )
        for tolerance in tolerances:
            base = HaloParams()
            params = dataclasses.replace(
                base,
                grouping=dataclasses.replace(base.grouping, merge_tolerance=tolerance),
            )
            direct = optimise_profile(
                profile_workload(workload, params, scale="test"), params
            )
            assert [sorted(g.members) for g in swept[tolerance].groups] == [
                sorted(g.members) for g in direct.groups
            ]

    def test_affinity_sweep_produces_distinct_profiles(self, traces):
        workload = get_workload("health")
        swept = sweep_affinity_distances(
            traces["health"], workload.program, (64, 4096)
        )
        assert swept[64].profile.params.distance == 64
        assert swept[4096].profile.params.distance == 4096
        # A 64× wider window must not yield the identical edge multiset.
        assert swept[64].profile.full_graph != swept[4096].profile.full_graph


class TestListenerRegistration:
    """Regression: the no-listener dispatch fast path must not let a
    listener registered mid-run miss events."""

    class _Counter(Listener):
        def __init__(self):
            self.events = []

        def on_call(self, machine, site):
            self.events.append(("call", site.addr))

        def on_alloc(self, machine, obj):
            self.events.append(("alloc", obj.oid))

        def on_access(self, machine, obj, offset, size, is_store):
            self.events.append(("access", obj.oid))

        def on_work(self, machine, cycles):
            self.events.append(("work", cycles))

        def on_finish(self, machine):
            self.events.append(("finish",))

    def test_listener_appended_mid_run_sees_later_events(self, demo):
        machine = Machine(demo.program, SizeClassAllocator(AddressSpace(0)))
        # Warm the no-listener fast path with real traffic first.
        first = alloc_via(machine, [demo.main_a, demo.a_malloc])
        machine.load(first, 0, 8)
        listener = self._Counter()
        machine.listeners.append(listener)
        second = alloc_via(machine, [demo.main_b, demo.b_malloc])
        machine.store(second, 0, 8)
        machine.work(3.0)
        machine.finish()
        assert listener.events == [
            ("call", demo.main_b.addr),
            ("call", demo.b_malloc.addr),
            ("alloc", second.oid),
            ("access", second.oid),
            ("work", 3.0),
            ("finish",),
        ]

    def test_add_and_remove_listener(self, demo):
        machine = Machine(demo.program, SizeClassAllocator(AddressSpace(0)))
        listener = machine.add_listener(self._Counter())
        obj = alloc_via(machine, [demo.main_a, demo.a_malloc])
        machine.remove_listener(listener)
        machine.load(obj, 0, 8)  # after removal: not observed
        assert ("alloc", obj.oid) in listener.events
        assert ("access", obj.oid) not in listener.events

    @pytest.mark.parametrize("mutate", ["extend", "iadd", "insert", "setter"])
    def test_every_mutation_path_refreshes_dispatch(self, demo, mutate):
        machine = Machine(demo.program, SizeClassAllocator(AddressSpace(0)))
        listener = self._Counter()
        if mutate == "extend":
            machine.listeners.extend([listener])
        elif mutate == "iadd":
            machine.listeners += [listener]
        elif mutate == "insert":
            machine.listeners.insert(0, listener)
        else:
            machine.listeners = [listener]
        obj = alloc_via(machine, [demo.main_a, demo.a_malloc])
        assert ("alloc", obj.oid) in listener.events

    def test_clear_and_pop_stop_dispatch(self, demo):
        machine = Machine(demo.program, SizeClassAllocator(AddressSpace(0)))
        listener = machine.add_listener(self._Counter())
        machine.listeners.clear()
        alloc_via(machine, [demo.main_a, demo.a_malloc])
        assert listener.events == []


class TestHarnessIntegration:
    def test_prepare_caches_trace_across_param_configs(self, tmp_path):
        from repro.harness.prepare import prepare_workload

        cache = ArtifactCache(tmp_path / "cache")
        cold = prepare_workload("health", include_hds=False, cache=cache)
        assert cold.times.trace_records == 1
        assert cold.times.trace_replays == 1
        # A different parameter set hits the shared trace: no re-recording.
        params = HaloParams().with_affinity_distance(256)
        warm = prepare_workload(
            "health", halo_params=params, include_hds=False, cache=cache
        )
        assert warm.times.trace_records == 0
        assert warm.times.trace_replays == 1
        assert warm.times.record == 0.0

    def test_trace_path_matches_direct_preparation(self, tmp_path):
        from repro.harness.prepare import (
            PROFILE_SCALE,
            PreparedArtifacts,
            halo_params_for,
            prepare_workload,
        )

        cache = ArtifactCache(tmp_path / "cache")
        via_trace = prepare_workload("health", include_hds=False, cache=cache)
        workload = get_workload("health")
        params = halo_params_for(workload)
        profile = profile_workload(workload, params, scale=PROFILE_SCALE, record_trace=True)
        direct = PreparedArtifacts("health", profile, optimise_profile(profile, params), None, "")
        assert via_trace.profile.graph == direct.profile.graph
        assert via_trace.profile.trace == direct.profile.trace
        assert [sorted(g.members) for g in via_trace.halo.groups] == [
            sorted(g.members) for g in direct.halo.groups
        ]

    def test_access_trace_derivation_matches_live_capture(self, traces):
        import numpy as np

        workload = get_workload("health")
        recorder = AccessTraceRecorder()
        machine = Machine(
            workload.program, SizeClassAllocator(AddressSpace(3)), listeners=[recorder]
        )
        workload.run(machine, "test")
        live = recorder.trace()
        derived = derive_access_trace(traces["health"], workload.program, seed=3)
        assert np.array_equal(live.addresses, derived.addresses)
        assert np.array_equal(live.sizes, derived.sizes)


#: Golden ``trace info`` lines for health at test scale.  Any change here
#: means the recorded event stream (or its summary) changed — deliberate
#: format/workload changes must update this in the same commit.
class TestChecksum:
    """Format v2: the header carries a CRC32 of the compressed body."""

    def _trace(self) -> EventTrace:
        writer = TraceWriter(workload="synthetic", scale="test", program="demo")
        for _ in range(32):
            writer.alloc(64)
        writer.end()
        return writer.close()

    def test_writer_stamps_crc(self):
        trace = self._trace()
        assert trace.header.format == 3
        # A fresh recording is stamped when its body is first made.
        assert trace.header.crc32 is None
        body = trace.body
        assert trace.header.crc32 == zlib.crc32(body, zlib.crc32(trace.switch_table))
        assert trace.verify()

    def test_crc_survives_container_round_trip(self):
        trace = self._trace()
        back = EventTrace.from_bytes(trace.to_bytes())
        assert back.header.crc32 == trace.header.crc32
        assert back.verify()

    def test_tampered_body_detected(self):
        trace = self._trace()
        tampered = bytearray(trace.body)
        tampered[len(tampered) // 2] ^= 0x01
        corrupt = EventTrace(trace.header, bytes(tampered), flags=trace.flags)
        assert not corrupt.verify()
        with pytest.raises(TraceFormatError):
            corrupt.events()
        with pytest.raises(TraceFormatError):
            list(corrupt.iter_events())

    def test_v1_header_without_crc_still_reads(self):
        # Backwards compatibility: v1 traces carry no checksum; absence of
        # evidence is not corruption.
        trace = self._trace()
        v1_header = dataclasses.replace(trace.header, format=1, crc32=None)
        v1 = EventTrace(v1_header, trace.body, flags=trace.flags)
        assert v1.verify()
        assert v1.events() == trace.events()
        back = EventTrace.from_bytes(v1.to_bytes())
        assert back.header.format == 1
        assert back.events() == trace.events()

    def test_unsupported_format_rejected(self):
        trace = self._trace()
        future = EventTrace(
            dataclasses.replace(trace.header, format=99), trace.body, flags=trace.flags
        )
        with pytest.raises(TraceFormatError):
            EventTrace.from_bytes(future.to_bytes())

    def test_streaming_reader_detects_on_disk_corruption(self, tmp_path):
        trace = self._trace()
        path = trace.save(tmp_path / "t.trace")
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 0xFF  # inside the compressed body
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError):
            list(TraceReader(path))

    def test_fault_plan_forces_decode_failure(self):
        from repro.faults import FaultPlan, fault_plan_active

        trace = self._trace()
        plan = FaultPlan(trace_decode_error_rate=1.0)
        with fault_plan_active(plan):
            with pytest.raises(TraceFormatError):
                trace.events()
        trace.events()  # plan uninstalled: decodes normally again


HEALTH_INFO_GOLDEN = [
    "workload:        health (test)",
    "program:         health",
    "format:          v3",
    "events:          282,451",
    "  calls:         38,797",
    "  returns:       38,797",
    "  allocs:        19,586 (950,448 bytes requested)",
    "  frees:         19,586",
    "  reallocs:      0",
    "  loads:         122,724",
    "  stores:        19,585",
    "  work:          23,375",
    "thread switches: 0",
    "accessed bytes:  1,138,472",
]


class TestCli:
    def test_trace_info_golden(self, traces):
        from repro.cli import trace_info_lines

        assert trace_info_lines(traces["health"]) == HEALTH_INFO_GOLDEN

    def test_record_info_replay_sweep_commands(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["trace", "record", "-b", "health"]) == 0
        trace_file = tmp_path / "health-test.trace"
        assert trace_file.exists()

        assert main(["trace", "info", str(trace_file)]) == 0
        out = capsys.readouterr().out
        for line in HEALTH_INFO_GOLDEN:
            assert line in out

        assert main(["trace", "replay", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "[columnar engine" in out

        assert main(["trace", "replay", str(trace_file), "--engine", "event"]) == 0
        assert "[event engine" in capsys.readouterr().out

        assert (
            main(
                [
                    "trace", "sweep", str(trace_file),
                    "--merge-tolerance", "0.01,0.2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2-point merge-tolerance sweep" in out
        assert "no workload re-execution" in out

    def test_sweep_replays_the_given_trace_in_process(self, tmp_path, capsys):
        """``trace sweep`` sweeps the file it is given: it never records,
        replays once per distinct affinity setting, and prints exactly
        what :func:`sweep_pipeline` computes from that file."""
        import json
        from dataclasses import replace

        from repro.cli import main
        from repro.core.selectors import monitored_sites
        from repro.harness.prepare import halo_params_for
        from repro.trace import sweep_pipeline

        trace_file = tmp_path / "health-seed5.trace"
        record = ["trace", "record", "-b", "health", "--seed", "5", "-o", str(trace_file)]
        assert main(record) == 0
        trace = EventTrace.load(trace_file)
        workload = get_workload("health")
        base = halo_params_for(workload)
        tolerances, distances = (0.05, 0.4, 0.8), (8, 128, 512)
        knobs = [
            ("--merge-tolerance", tolerances, 1, [
                replace(base, grouping=replace(base.grouping, merge_tolerance=t))
                for t in tolerances
            ]),
            ("--affinity-distance", distances, 3, [
                base.with_affinity_distance(d) for d in distances
            ]),
        ]
        for flag, values, replays, configs in knobs:
            metrics = tmp_path / f"{flag[2:]}.json"
            capsys.readouterr()
            sweep = ["trace", "sweep", str(trace_file), flag, ",".join(map(str, values))]
            assert main(sweep + ["--metrics-out", str(metrics)]) == 0
            out = capsys.readouterr().out
            counters = json.loads(metrics.read_text())["counters"]
            assert not [key for key in counters if key.startswith("trace.records")]
            assert sum(
                value for key, value in counters.items() if key.startswith("trace.replays")
            ) == replays
            lines = out.splitlines()
            start = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
            rows = [line.split() for line in lines[start:start + len(values)]]
            expected = [
                [
                    str(value),
                    str(len(a.groups)),
                    str(sum(len(g.members) for g in a.groups)),
                    str(len(a.profile.graph)),
                    str(len(monitored_sites(a.identification.selectors))),
                ]
                for value, a in zip(values, sweep_pipeline(trace, workload.program, configs))
            ]
            assert rows == expected

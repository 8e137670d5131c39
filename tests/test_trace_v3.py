"""Trace format v3: simulated-thread switches in a checksummed side table.

Switches are not events: a single-threaded recording keeps exactly the
event stream (and compressed body) it had before v3, v1/v2 containers
still decode, and damage to the switch table fails verification like
damage to the body.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import zlib

import pytest

from repro.cli import trace_info_lines
from repro.harness.runner import measure
from repro.machine import Machine
from repro.allocators import AddressSpace, ArenaAllocator
from repro.trace import record_workload
from repro.trace.format import (
    EventTrace,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    decode_switches,
    encode_switches,
)
from repro.trace.record import TraceRecorder
from repro.trace.replay import TraceReplayer
from repro.workloads.base import get_workload

MIX = "mix-5x3-rr"

#: Event-list digests, body CRCs and sizes of test-scale recordings made
#: before the switch table existed (format v2).  v3 must not move them.
PRE_V3 = {
    "health": (282_451, "a2e08554cb2333a9", 0xD3078E99),
    "scn-3": (46_773, "56febc5e881aa295", 0x841135AA),
    MIX: (59_363, "8ab5c9e7c811aeb6", 0xBD981B57),
}


def _digest(events) -> str:
    return hashlib.sha256(repr(events).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def mix_trace() -> EventTrace:
    return record_workload(MIX, scale="test")


def _as_old_format(trace: EventTrace, version: int) -> EventTrace:
    """*trace* re-containered as a v1/v2 writer would have produced it."""
    header = json.loads(trace.header.to_json())
    del header["switches"], header["switch_bytes"]
    header["format"] = version
    header["crc32"] = zlib.crc32(trace.body) if version == 2 else None
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    raw = b"HALOTRC1" + len(text).to_bytes(4, "little") + text + bytes([trace.flags]) + trace.body
    return EventTrace.from_bytes(raw)


class TestSingleThreadedUnchanged:
    @pytest.mark.parametrize("name", ["health", "scn-3"])
    def test_events_and_body_match_pre_v3_recordings(self, name):
        trace = record_workload(name, scale="test")
        events, digest, crc = PRE_V3[name]
        assert trace.header.format == 3
        assert trace.header.events == events
        assert trace.header.switches == 0 and trace.switch_table == b""
        assert _digest(trace.events()) == digest
        assert zlib.crc32(trace.body) == crc == trace.header.crc32

    def test_mix_switches_leave_the_event_stream_alone(self, mix_trace):
        events, digest, crc = PRE_V3[MIX]
        assert mix_trace.header.events == events
        assert _digest(mix_trace.events()) == digest
        assert zlib.crc32(mix_trace.body) == crc
        assert mix_trace.header.switches == len(mix_trace.switches()) > 0


class TestOldContainers:
    @pytest.mark.parametrize("version", [1, 2])
    def test_old_containers_decode_unchanged(self, mix_trace, version):
        old = _as_old_format(mix_trace, version)
        assert old.header.format == version
        assert old.verify()
        assert old.switches() == ()
        assert old.events() == mix_trace.events()
        assert old.columns().switches == []

    def test_v2_file_streams_through_the_reader(self, mix_trace, tmp_path):
        path = _as_old_format(mix_trace, 2).save(tmp_path / "old.trace")
        assert list(TraceReader(path)) == mix_trace.events()


class TestSwitchTable:
    def test_round_trip_through_container_and_reader(self, mix_trace, tmp_path):
        back = EventTrace.from_bytes(mix_trace.to_bytes())
        assert back.switches() == mix_trace.switches()
        assert back.verify()
        path = mix_trace.save(tmp_path / "mix.trace")
        reader = TraceReader(path)
        assert reader.switch_table == mix_trace.switch_table
        assert list(reader) == mix_trace.events()

    def test_tampered_switch_table_fails_verify(self, mix_trace):
        table = bytearray(mix_trace.switch_table)
        table[len(table) // 2] ^= 0x01
        tampered = EventTrace(
            mix_trace.header, mix_trace.body, flags=mix_trace.flags,
            switch_table=bytes(table),
        )
        assert not tampered.verify()
        with pytest.raises(TraceFormatError):
            tampered.switches()
        with pytest.raises(TraceFormatError):
            tampered.columns()

    def test_header_count_must_match_table(self, mix_trace):
        header = dataclasses.replace(mix_trace.header, switches=1, crc32=None)
        wrong = EventTrace(header, mix_trace.body, switch_table=mix_trace.switch_table)
        with pytest.raises(TraceFormatError):
            wrong.switches()

    def test_encoding_round_trips(self):
        table = ((0, 1), (5, 2), (5_000_000, 0), (5_000_001, 300))
        assert decode_switches(encode_switches(table)) == table
        with pytest.raises(TraceFormatError):
            decode_switches(encode_switches(table)[:-1])

    def test_writer_stores_only_changes(self):
        writer = TraceWriter()
        writer.thread(0)  # already on thread 0
        writer.alloc(8)
        writer.thread(1)
        writer.thread(2)  # no event in between: collapses into one switch
        writer.alloc(8)
        writer.thread(2)  # no change
        writer.alloc(8)
        writer.thread(1)
        writer.thread(2)  # back where it was: no switch at all
        writer.alloc(8)
        writer.end()
        trace = writer.close()
        assert trace.switches() == ((1, 2),)
        assert trace.header.events == 5

    def test_pickle_drops_decoded_views(self, mix_trace):
        mix_trace.columns()
        clone = pickle.loads(pickle.dumps(mix_trace))
        assert clone._columns is None and clone._switches is None
        assert clone.switches() == mix_trace.switches()


class TestThreadsOnReplay:
    def test_event_replay_reproduces_the_recorded_switches(self, mix_trace):
        workload = get_workload(MIX)
        recorder = TraceRecorder(workload=MIX, program=workload.program.name)
        machine = Machine(
            workload.program, ArenaAllocator(AddressSpace(1), arenas=4),
            listeners=[recorder],
        )
        TraceReplayer(mix_trace, workload.program).drive(machine)
        again = recorder.close()
        assert again.switches() == mix_trace.switches()
        assert again.events() == mix_trace.events()

    def test_thread_oblivious_configs_ignore_the_switches(self, mix_trace):
        workload = get_workload(MIX)
        stripped = _as_old_format(mix_trace, 2)
        for engine in ("event", "columnar"):
            with_threads = measure(
                workload, "baseline", scale="test", seed=1, trace=mix_trace, engine=engine
            )
            without = measure(
                workload, "baseline", scale="test", seed=1, trace=stripped, engine=engine
            )
            assert with_threads == without, engine

    def test_arena_needs_the_switches(self, mix_trace):
        workload = get_workload(MIX)
        direct = measure(workload, "arena", scale="test", seed=1)
        stripped = _as_old_format(mix_trace, 2)
        blind = measure(
            workload, "arena", scale="test", seed=1, trace=stripped, engine="columnar"
        )
        assert blind.cycles != direct.cycles


def test_trace_info_reports_switch_count(mix_trace):
    lines = trace_info_lines(mix_trace)
    assert "format:          v3" in lines
    assert f"thread switches: {mix_trace.header.switches:,}" in lines
    assert mix_trace.header.switches == 434

"""Differential tests: the compiled trace codec == the Python codec.

A recording keeps its columns; :meth:`TraceWriter.close` encodes them in
``halo_trace_encode`` and traces built from bytes decode in
``halo_trace_decode``.  The Python encoder (:meth:`TraceWriter._encode_py`)
and decoder (``_decode_into``) stay as the fallback and the oracle: the C
encoder must write their bytes, the C decoder must give their columns,
malformed bodies must raise :class:`TraceFormatError` on both backends, and
a recording's own columns must equal what decoding its bytes gives.
"""

from __future__ import annotations

import pickle
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.columnar import kernel
from repro.faults import FaultPlan, fault_plan_active
from repro.harness.prepare import prepare_workload
from repro.harness.reproduce import PAPER_BENCHMARKS
from repro.trace.format import (
    OP_ALLOC, OP_LOAD, OP_RETURN, OP_WORK_F64, EventTrace, TraceColumns,
    TraceFormatError, TraceHeader, TraceWriter,
)
from repro.trace.record import record_workload

pytestmark = pytest.mark.skipif(
    kernel.kernel_backend() != "c", reason="compiled kernel library unavailable"
)

BACKENDS = ("c", "python")

#: Unsigned field values at every LEB128 length boundary.
BOUNDARIES = (0, 1, 127, 128, (1 << 14) - 1, 1 << 14, (1 << 21) + 5, (1 << 63) - 1)


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    """Run the test on the compiled library, then on the Python fallback."""
    if request.param == "python":
        monkeypatch.setattr(kernel, "_kernel", False)
    return request.param


def assert_columns_equal(got: TraceColumns, want: TraceColumns) -> None:
    """Every field of two column views, with dtypes and float bits."""
    assert got.kinds == want.kinds
    for name in ("acc_oid", "acc_offset", "acc_size", "acc_store", "call_addrs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.works.dtype == want.works.dtype
    assert got.works.tobytes() == want.works.tobytes()
    for group in ("ctrl", "heap"):
        for a, b in zip(getattr(got, group), getattr(want, group)):
            assert a.dtype == b.dtype and np.array_equal(a, b), group
    assert got.switches == want.switches
    for name in ("loads", "stores", "allocs", "frees", "reallocs", "calls"):
        assert getattr(got, name) == getattr(want, name), name


# -- random streams -----------------------------------------------------------

_size = st.one_of(st.sampled_from(BOUNDARIES), st.integers(0, 1 << 20))
_addr = st.one_of(st.sampled_from(BOUNDARIES[:-1]), st.integers(0, 1 << 62))
_cycles = st.one_of(
    st.sampled_from((0.0, -0.0, 0.625, 1.0, 127.0, 128.0, -3.0, 2.0 ** 53, 1e300,
                     float("inf"), float("nan"))),
    st.integers(0, 1 << 20).map(float),
    st.floats(allow_nan=False, width=64),
)
_event = st.one_of(
    st.tuples(st.just("call"), _addr),
    st.tuples(st.just("ret")),
    st.tuples(st.just("alloc"), _size),
    st.tuples(st.just("free"), st.integers(0, 1 << 10)),
    st.tuples(st.just("realloc"), st.integers(0, 1 << 10), _size),
    st.tuples(st.just("access"), st.integers(0, 1 << 10), _size, _size, st.booleans()),
    st.tuples(st.just("work"), _cycles),
    st.tuples(st.just("thread"), st.integers(0, 300)),
    st.tuples(st.just("end")),
)


def write_stream(events) -> TraceWriter:
    """A writer fed *events*; object ids index the allocations made so far."""
    writer = TraceWriter(workload="random")
    writer.alloc(8)
    for kind, *args in events:
        if kind in ("free", "realloc", "access"):
            args[0] %= writer._next_oid  # negative and positive oid deltas
        getattr(writer, kind)(*args)
    return writer


@settings(max_examples=150, deadline=None)
@given(st.lists(_event, max_size=120))
def test_random_streams_encode_and_decode_identically(events):
    writer = write_stream(events)
    raw = writer._take_columns()
    body = kernel.trace_encode(*raw)
    assert body == writer._encode_py(*raw)

    decoded = kernel.trace_decode(body)
    expected = list(raw)
    expected[-1] = expected[-1] + 0.0  # -0.0 travels as the varint 0
    for got, want in zip(decoded, expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    header = TraceHeader(events=len(raw[0]))
    events_py = list(EventTrace(header, body, flags=0)._decode_events(body))
    switches = tuple(writer._switches)
    assert_columns_equal(
        TraceColumns(*decoded, switches=switches),
        TraceColumns.from_events(events_py, switches),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(_event, max_size=80))
def test_closed_trace_round_trips_through_bytes(events):
    trace = write_stream(events).close()
    back = EventTrace.from_bytes(trace.to_bytes())
    assert_columns_equal(back.columns(), trace.columns())


def test_writer_matches_the_recording_encoder_on_hand_picked_events():
    writer = TraceWriter()
    writer.call(0x401010)
    writer.call(0x400000)  # negative call delta
    oid = writer.alloc(1 << 14)
    writer.alloc(127)
    writer.access(oid, (1 << 63) - 1, 128, is_store=True)  # negative oid delta
    writer.realloc(oid, (1 << 21) + 5)
    writer.work(0.625)
    writer.work(-0.0)
    writer.free(1)
    writer.ret()
    writer.end()
    raw = writer._take_columns()
    assert kernel.trace_encode(*raw) == writer._encode_py(*raw)


def test_encoders_reject_negative_sizes():
    writer = TraceWriter()
    writer.alloc(-1)
    raw = writer._take_columns()
    with pytest.raises(ValueError):
        kernel.trace_encode(*raw)
    with pytest.raises(ValueError):
        writer._encode_py(*raw)


def test_encoder_rejects_columns_that_do_not_fit_the_kinds():
    writer = TraceWriter()
    writer.access(0, 0, 8, is_store=False)
    kinds, op_a, resize, acc_oid, acc_offset, acc_size, works = writer._take_columns()
    with pytest.raises(ValueError):
        kernel.trace_encode(kinds, op_a, resize, acc_oid[:0], acc_offset[:0], acc_size[:0], works)


# -- malformed bodies ---------------------------------------------------------


def _body_trace(raw: bytes, events: int) -> EventTrace:
    """A trace of the raw body *raw* claiming *events* events, no checksum."""
    return EventTrace(TraceHeader(workload="bad", events=events), zlib.compress(raw, 6))


def _valid_raw() -> tuple[bytes, int]:
    writer = TraceWriter()
    writer.call(0x401000)
    writer.access(writer.alloc(300), 8, 4, is_store=False)
    writer.work(0.625)
    writer.ret()
    writer.end()
    trace = writer.close()
    return zlib.decompress(trace.body), trace.header.events


@pytest.mark.parametrize("damage", ["truncated", "unknown-opcode", "over-long", "trailing"])
def test_malformed_bodies_raise_on_both_backends(backend, damage):
    raw, events = _valid_raw()
    if damage == "truncated":
        bad, count = raw + bytes([OP_LOAD, 0x80]), events + 1
    elif damage == "unknown-opcode":
        bad, count = raw + bytes([42]), events + 1
    elif damage == "over-long":
        bad, count = raw + bytes([OP_ALLOC]) + b"\xff" * 10 + b"\x01", events + 1
    else:  # a well-formed event the header does not count
        bad, count = raw + bytes([OP_RETURN]), events
    with pytest.raises(TraceFormatError):
        _body_trace(bad, count).columns()


def test_c_decoder_names_the_offending_offset():
    raw, _ = _valid_raw()
    with pytest.raises(ValueError, match=f"unknown opcode.*offset {len(raw)}"):
        kernel.trace_decode(raw + bytes([42]))
    with pytest.raises(ValueError, match="truncated"):
        kernel.trace_decode(raw[:-2] + bytes([OP_WORK_F64]))  # float64 cut short


def test_bit_flipped_body_fails_its_checksum_on_both_backends(backend):
    trace = record_workload("deepsjeng", scale="test")
    body = bytearray(trace.body)
    body[len(body) // 2] ^= 0x10
    flipped = EventTrace(trace.header, bytes(body), switch_table=trace.switch_table)
    with pytest.raises(TraceFormatError):
        flipped.columns()


# -- recordings ---------------------------------------------------------------


@pytest.mark.parametrize("name", [*PAPER_BENCHMARKS, "mix-5x3-rr"])
def test_recorded_columns_equal_decoded_bytes(name):
    trace = record_workload(name, scale="test")
    back = EventTrace.from_bytes(trace.to_bytes())
    assert back._recorded is None
    assert_columns_equal(trace.columns(), back.columns())


def test_pickle_ships_only_the_bytes():
    trace = record_workload("deepsjeng", scale="test")
    clone = pickle.loads(pickle.dumps(trace))
    assert clone._recorded is None and clone._columns is None
    assert_columns_equal(clone.columns(), trace.columns())


def test_python_backend_records_the_same_bytes(monkeypatch):
    compiled = record_workload("mix-5x3-rr", scale="test")
    monkeypatch.setattr(kernel, "_kernel", False)
    fallback = record_workload("mix-5x3-rr", scale="test")
    assert fallback.to_bytes() == compiled.to_bytes()
    assert_columns_equal(fallback.columns(), compiled.columns())
    assert_columns_equal(EventTrace.from_bytes(compiled.to_bytes()).columns(), compiled.columns())


def test_decode_fault_re_records_a_from_bytes_trace():
    """A decode fault hits only decoded bytes; the damaged trace is re-recorded.

    A fresh recording serves its own columns, so the fault cannot fire on
    it; a trace built from bytes is decoded, fails, and is replaced by a
    recording whose replay gives the listener's profile and groups.
    """
    from repro.core.pipeline import optimise_profile, profile_workload
    from repro.harness.prepare import halo_params_for
    from repro.workloads import get_workload

    from_bytes = EventTrace.from_bytes(record_workload("deepsjeng", scale="test").to_bytes())
    with fault_plan_active(FaultPlan(trace_decode_error_rate=1.0)):
        fresh = prepare_workload("deepsjeng")
        degraded = prepare_workload("deepsjeng", trace=from_bytes)
    assert fresh.times.trace_rerecords == 0
    assert (fresh.times.trace_records, fresh.times.trace_replays) == (1, 1)
    assert degraded.times.trace_rerecords == 1
    assert (degraded.times.trace_records, degraded.times.trace_replays) == (1, 1)

    workload = get_workload("deepsjeng")
    params = halo_params_for(workload)
    direct = profile_workload(workload, params, scale="test", record_trace=True)
    assert degraded.profile.graph == direct.graph
    assert [sorted(g.members) for g in degraded.halo.groups] == [
        sorted(g.members) for g in optimise_profile(direct, params).groups
    ]


# -- observability ------------------------------------------------------------


def test_decode_is_counted_outside_the_profile_phase():
    trace = EventTrace.from_bytes(record_workload("deepsjeng", scale="test").to_bytes())
    with obs.collecting(obs.MetricsRegistry()) as registry:
        prepare_workload("deepsjeng", trace=trace)
    snapshot = registry.snapshot()
    spans = snapshot.spans
    decode = [i for i, span in enumerate(spans) if span.name == "trace.decode"]
    assert len(decode) == 1
    profile = next(i for i, span in enumerate(spans) if span.name == "phase.profile")
    parent = spans[decode[0]].parent
    while parent >= 0:  # the decode span does not nest inside the profile phase
        assert parent != profile
        parent = spans[parent].parent
    assert spans[decode[0]].start + spans[decode[0]].duration <= spans[profile].start
    decoded = snapshot.counters_with_prefix("trace.decode.events")
    assert sum(decoded.values()) == trace.header.events


def test_a_fresh_recording_is_not_decoded():
    with obs.collecting(obs.MetricsRegistry()) as registry:
        prepare_workload("deepsjeng")
    snapshot = registry.snapshot()
    assert not [span for span in snapshot.spans if span.name == "trace.decode"]
    assert not snapshot.counters_with_prefix("trace.decode")


def test_kernel_calls_are_counted_by_backend(monkeypatch):
    def calls(backend_name: str) -> dict:
        with obs.collecting(obs.MetricsRegistry()) as registry:
            EventTrace.from_bytes(record_workload("deepsjeng", scale="test").to_bytes()).columns()
        counters = registry.snapshot().counters_with_prefix("kernel.calls")
        return {key: value for key, value in counters.items() if backend_name in key}

    compiled = calls('backend="c"')
    assert any('kernel="trace_encode"' in key for key in compiled)
    assert any('kernel="trace_decode"' in key for key in compiled)
    monkeypatch.setattr(kernel, "_kernel", False)
    fallback = calls('backend="python"')
    assert sum(fallback.values()) == 2

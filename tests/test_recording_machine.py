"""The recording machine against its oracle, a ``TraceRecorder`` listener.

:class:`~repro.trace.record.RecordingMachine` writes the trace columns from
its own event methods.  Every recording it makes must equal, byte for
byte, the one a :class:`~repro.trace.record.TraceRecorder` makes on a plain
:class:`~repro.machine.machine.Machine` (the listener path): columns,
header, compressed body, CRC and switch table.  Placed on an allocator (a
``halo serve`` request) it must also leave the heap exactly as the plain
machine does, and it must fail every misuse the plain machine rejects with
the same exception and message, unwinding the same state.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.allocators import AddressSpace, SizeClassAllocator
from repro.allocators.group import GroupAllocator
from repro.core.selectors import CompiledMatcher, GroupSelector
from repro.machine import GroupStateVector, Machine, ProgramBuilder
from repro.machine.heap import HeapError
from repro.machine.program import ProgramError
from repro.serve import ServeConfig, ServeService
from repro.serve import service as service_module
from repro.trace.format import OP_LOAD, TraceColumns
from repro.trace.record import (
    RecordingMachine,
    TraceRecorder,
    _RecordingScope,
    record_workload,
)
from repro.workloads import get_workload, workload_names

from conftest import run_ops

#: Every registered workload, a thread-switching three-tenant mix and a
#: five-tenant one.
WORKLOADS = [*workload_names(), "mix-3x3-rr", "mix-5x3-rr"]


def listened(workload, scale="test", seed=0):
    """*workload* recorded on the listener path (the oracle)."""
    recorder = TraceRecorder(
        workload=workload.name, scale=scale, seed=seed, program=workload.program.name
    )
    machine = Machine(
        workload.program, SizeClassAllocator(AddressSpace(seed=seed)), listeners=[recorder]
    )
    workload.run(machine, scale)
    return recorder.close()


def assert_same_recording(got, want) -> None:
    """Equal columns, header fields, compressed body, CRC and switch table."""
    assert got.body == want.body  # also stamps both headers' CRCs
    assert got.header.crc32 is not None
    assert dataclasses.asdict(got.header) == dataclasses.asdict(want.header)
    assert got.switch_table == want.switch_table
    assert got.switches() == want.switches()
    ours, theirs = got.columns(), want.columns()
    for name in TraceColumns.__slots__:
        if not name.startswith("_"):
            assert_same_column(getattr(ours, name), getattr(theirs, name), name)


def assert_same_column(ours, theirs, name) -> None:
    if isinstance(ours, tuple):
        assert len(ours) == len(theirs), name
        for left, right in zip(ours, theirs):
            assert_same_column(left, right, name)
    elif isinstance(ours, np.ndarray):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
    else:
        assert ours == theirs, name


@pytest.mark.parametrize("name", WORKLOADS)
def test_record_workload_matches_the_listener(name):
    workload = get_workload(name)
    recorded = record_workload(workload, scale="test", seed=3)
    assert_same_recording(recorded, listened(workload, seed=3))


def test_mixes_switch_threads():
    for name in ("mix-3x3-rr", "mix-5x3-rr"):
        assert record_workload(name, scale="test").header.switches > 0


def test_record_workload_places_nothing(monkeypatch):
    """No allocator or address space is built and no page is touched."""

    def refuse(*args, **kwargs):
        raise AssertionError("recording placed or touched memory")

    monkeypatch.setattr(AddressSpace, "__init__", refuse)
    monkeypatch.setattr(AddressSpace, "touch_range", refuse)
    monkeypatch.setattr(SizeClassAllocator, "__init__", refuse)
    trace = record_workload("deepsjeng", scale="test")
    assert trace.header.loads > 0


# -- synthetic op streams, placed and unplaced ------------------------------------


def _program():
    builder = ProgramBuilder("recording")
    builder.function("malloc", in_main_binary=False)
    sites = [builder.call_site("main", f"make{i}") for i in range(3)]
    sites.append(builder.call_site("make0", "malloc"))
    return builder.build(), sites


PROGRAM, SITES = _program()
#: Bits for the first three sites; the fourth is not instrumented.
PLAN = {site.addr: bit for bit, site in enumerate(SITES[:3])}
FOREIGN = ProgramBuilder("elsewhere").call_site("main", "other")


def grouped_allocator():
    """A group allocator reading the selectors of :data:`PLAN`'s sites."""
    space = AddressSpace(seed=2)
    vector = GroupStateVector()
    matcher = CompiledMatcher(
        [GroupSelector(gid, (frozenset({site.addr}),)) for gid, site in enumerate(SITES[:3])],
        PLAN,
    )
    return GroupAllocator(space, SizeClassAllocator(space), matcher, vector), vector


def machine_pair(placed: bool):
    """A listened ``Machine`` and a ``RecordingMachine`` in the same setting."""
    recorder = TraceRecorder(workload="ops", program=PROGRAM.name)
    if placed:
        allocator, vector = grouped_allocator()
        ours_allocator, ours_vector = grouped_allocator()
        kwargs = dict(instrumentation=PLAN)
    else:
        allocator, vector = SizeClassAllocator(AddressSpace(seed=2)), None
        ours_allocator = ours_vector = None
        kwargs = {}
    theirs = Machine(PROGRAM, allocator, listeners=[recorder], state_vector=vector, **kwargs)
    ours = RecordingMachine(
        PROGRAM, ours_allocator, workload="ops", state_vector=ours_vector, **kwargs
    )
    return (theirs, recorder), ours


def heap_state(machine, placed: bool):
    """What a run leaves behind; addresses and residency only if *placed*."""
    live = sorted((obj.oid, obj.size) for obj in machine.objects.live_objects())
    state = {"live": live, "stack": list(machine.stack), "bits": machine.state_vector.value}
    if placed:
        state["placed"] = sorted((o.oid, o.addr) for o in machine.objects.live_objects())
        state["pages"] = set(machine.allocator.space._touched_pages)
        state["stats"] = dataclasses.asdict(machine.allocator.stats)
    return state


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 9000)),
        st.tuples(st.just("free"), st.integers(0, 1 << 16)),
        st.tuples(st.just("realloc"), st.integers(0, 1 << 16), st.integers(1, 9000)),
        st.tuples(st.just("store"), st.integers(0, 1 << 16)),
        st.tuples(st.just("call"), st.sampled_from(SITES)),
        st.tuples(st.just("return")),
        st.tuples(st.just("thread"), st.integers(0, 3)),
    ),
    max_size=120,
)


@settings(max_examples=120, deadline=None)
@given(ops=_ops, placed=st.booleans())
def test_op_streams_match_the_listener(ops, placed):
    (theirs, recorder), ours = machine_pair(placed)
    run_ops(theirs, ops)
    run_ops(ours, ops)
    assert heap_state(ours, placed) == heap_state(theirs, placed)
    assert ours.metrics == theirs.metrics
    theirs.finish()
    ours.finish()
    assert_same_recording(ours.trace, recorder.trace)
    assert ours.metrics == theirs.metrics


def test_serve_request_matches_the_listener(monkeypatch):
    """A serve session recorded both ways: same recordings, same shared heap.

    Requests before the first swap run uninstrumented, later ones
    instrumented on the session's group allocator: both kinds occur.
    """
    config = ServeConfig(seed=5, requests=16, epoch_requests=4, request_factor=0.02)
    real_replay = service_module.replay_profile

    class ListenedMachine(Machine):
        @property
        def trace(self):
            return self.listeners[0].close()

    def listened_request(program, allocator, *, workload, scale, seed, **kwargs):
        recorder = TraceRecorder(workload=workload, scale=scale, seed=seed, program=program.name)
        return ListenedMachine(program, allocator, listeners=[recorder], **kwargs)

    def session(factory):
        traces, instrumented = [], []

        def machine(program, allocator, **kwargs):
            instrumented.append(bool(kwargs["instrumentation"]))
            return factory(program, allocator, **kwargs)

        def replay(trace, *args, **kwargs):
            traces.append(trace)
            return real_replay(trace, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(service_module, "RecordingMachine", machine)
            patch.setattr(service_module, "replay_profile", replay)
            service = ServeService(config)
            report = service.run()
        return service, report, traces, instrumented

    ours, our_report, our_traces, instrumented = session(RecordingMachine)
    theirs, their_report, their_traces, _ = session(listened_request)
    assert 0 < sum(instrumented) < len(instrumented)
    assert len(our_traces) == len(their_traces) == config.requests
    for got, want in zip(our_traces, their_traces):
        assert_same_recording(got, want)
    assert dataclasses.asdict(our_report.stats) == dataclasses.asdict(their_report.stats)
    assert ours.space._touched_pages == theirs.space._touched_pages
    assert dataclasses.asdict(ours.allocator.stats) == dataclasses.asdict(theirs.allocator.stats)


# -- error parity -----------------------------------------------------------------


def _freed(machine):
    obj = machine.malloc(16)
    machine.free(obj)
    return obj


def _live(machine):
    return machine.malloc(16)


def _foreign_mid_chain(machine):
    with machine.call(SITES[0], SITES[1], FOREIGN, SITES[2]):
        machine.malloc(8)


def _raise_in_chain(machine):
    with machine.call(SITES[0], SITES[1], SITES[2]):
        machine.load(machine.malloc(8))
        raise RuntimeError("chain body failed")


MISUSES = {
    "use-after-free-load": lambda m: m.load(_freed(m)),
    "use-after-free-store": lambda m: m.store(_freed(m), 8, 8),
    "use-after-free-realloc": lambda m: m.realloc(_freed(m), 32),
    "load-at-minus-one": lambda m: m.load(_live(m), -1, 8),
    "load-at-size": lambda m: m.load(_live(m), 16, 1),
    "load-zero-size": lambda m: m.load(_live(m), 0, 0),
    "store-at-minus-one": lambda m: m.store(_live(m), -1, 8),
    "store-at-size": lambda m: m.store(_live(m), 16, 1),
    "store-zero-size": lambda m: m.store(_live(m), 0, 0),
    "load-straddling-the-end": lambda m: m.load(_live(m), 12, 8),
    "double-free": lambda m: m.free(_freed(m)),
    "malloc-zero": lambda m: m.malloc(0),
    "realloc-to-zero": lambda m: m.realloc(_live(m), 0),
    "foreign-site-mid-chain": _foreign_mid_chain,
    "exception-in-chain-body": _raise_in_chain,
}


def outcome(machine, misuse):
    with pytest.raises(Exception) as caught:
        misuse(machine)
    return type(caught.value), str(caught.value)


def assert_same_failure(misuse, placed: bool) -> None:
    """Same exception and message, same state unwound, same recording."""
    (theirs, recorder), ours = machine_pair(placed)
    want = outcome(theirs, misuse)
    assert outcome(ours, misuse) == want
    assert heap_state(ours, placed) == heap_state(theirs, placed)
    theirs.finish()
    ours.finish()
    assert_same_recording(ours.trace, recorder.trace)


@pytest.mark.parametrize("placed", [False, True], ids=["unplaced", "placed"])
@pytest.mark.parametrize("misuse", MISUSES.values(), ids=MISUSES.keys())
def test_misuse_fails_as_on_a_machine(misuse, placed):
    assert_same_failure(misuse, placed)


def test_misuse_errors_are_the_machine_errors():
    """The expected types, and a chain is unwound past its failed site."""
    _, ours = machine_pair(placed=True)
    assert outcome(ours, MISUSES["malloc-zero"])[0] is HeapError
    assert outcome(ours, MISUSES["double-free"])[0] is HeapError
    assert outcome(ours, _foreign_mid_chain)[0] is ProgramError
    assert outcome(ours, _raise_in_chain) == (RuntimeError, "chain body failed")
    assert ours.stack == [] and ours.state_vector.value == 0


# -- listeners are refused, never dropped ----------------------------------------


def test_listeners_are_refused():
    machine = RecordingMachine(PROGRAM)
    recorder = TraceRecorder()
    with pytest.raises(TypeError, match="dispatches no listener"):
        machine.add_listener(recorder)
    with pytest.raises(TypeError, match="dispatches no listener"):
        machine.listeners = [recorder]
    with pytest.raises(AttributeError):
        machine.listeners.append(recorder)
    with pytest.raises(ValueError):
        machine.remove_listener(recorder)
    assert machine.listeners == ()
    machine.listeners = []  # registering nothing is fine


# -- one harvest point ------------------------------------------------------------


def test_each_recording_is_harvested_once():
    with obs.collecting() as registry:
        trace = record_workload("deepsjeng", scale="test")
        config = ServeConfig(seed=5, requests=4, epoch_requests=4, request_factor=0.02)
        ServeService(config).run()
    counters = registry.snapshot().counters
    records = {k: v for k, v in counters.items() if k.startswith("trace.records")}
    assert records['trace.records{workload="deepsjeng"}'] == 1
    assert sum(records.values()) == 1 + config.requests
    assert counters['trace.record.events{workload="deepsjeng"}'] == trace.header.events
    assert counters['trace.record.seconds{workload="deepsjeng"}'] > 0


# -- mutants ----------------------------------------------------------------------


def test_a_load_without_the_bounds_check_is_caught(monkeypatch):
    def unchecked_load(self, obj, offset=0, size=8):
        if not obj.alive:
            raise HeapError(f"use of freed object #{obj.oid}")
        self._kinds.append(OP_LOAD)
        self._acc_oid.append(obj.oid)
        self._acc_offset.append(offset)
        self._acc_size.append(size)

    monkeypatch.setattr(RecordingMachine, "load", unchecked_load)
    with pytest.raises(pytest.fail.Exception):
        assert_same_failure(MISUSES["load-at-size"], placed=False)


def test_a_scope_that_skips_the_return_is_caught(monkeypatch):
    def exit_without_return(self, exc_type, exc, tb):
        for _ in self._sites:
            self._machine.stack.pop()
        return False

    monkeypatch.setattr(_RecordingScope, "__exit__", exit_without_return)
    workload = get_workload("deepsjeng")
    with pytest.raises(AssertionError):
        assert_same_recording(record_workload(workload, scale="test"), listened(workload))

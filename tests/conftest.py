"""Shared fixtures: a small multi-path test program and helpers."""

from __future__ import annotations

import pytest

from repro.allocators import AddressSpace, SizeClassAllocator
from repro.machine import Machine, ProgramBuilder


class DemoProgram:
    """A tiny three-creator program (the paper's Figure 2 shape).

    ``main`` calls ``create_a`` / ``create_b`` / ``create_c``, each of which
    calls ``malloc`` from its own site; there is also a wrapper path
    (``helper -> wrapped_malloc -> malloc``) for wrapper-related tests.
    """

    def __init__(self) -> None:
        b = ProgramBuilder("demo")
        b.function("malloc", in_main_binary=False)
        self.main_a = b.call_site("main", "create_a")
        self.main_b = b.call_site("main", "create_b")
        self.main_c = b.call_site("main", "create_c")
        self.a_malloc = b.call_site("create_a", "malloc")
        self.b_malloc = b.call_site("create_b", "malloc")
        self.c_malloc = b.call_site("create_c", "malloc")
        self.main_helper = b.call_site("main", "helper")
        self.helper_wrap = b.call_site("helper", "wrapped_malloc")
        self.wrap_malloc = b.call_site("wrapped_malloc", "malloc")
        self.program = b.build()


@pytest.fixture
def demo() -> DemoProgram:
    return DemoProgram()


@pytest.fixture
def machine(demo: DemoProgram) -> Machine:
    space = AddressSpace(seed=0)
    return Machine(demo.program, SizeClassAllocator(space))


def alloc_via(machine: Machine, sites, size: int = 32):
    """Allocate *size* bytes through the nested *sites* chain."""
    from contextlib import ExitStack

    with ExitStack() as stack:
        for site in sites:
            stack.enter_context(machine.call(site))
        return machine.malloc(size)


def run_ops(machine: Machine, ops) -> None:
    """Drive *machine* through abstract ops, then leave open scopes open.

    Ops: ``("call", site)``, ``("return",)``, ``("alloc", size)``,
    ``("free", k)``, ``("realloc", k, size)``, ``("store", k)`` (the whole
    object) and ``("thread", t)``; *k* picks a live object modulo the
    live count, and ops that find no open scope or live object are
    skipped.  Scopes still open at the end stay open, as in a truncated
    trace.
    """
    live: list = []
    scopes: list = []
    for op in ops:
        kind = op[0]
        if kind == "call":
            scope = machine.call(op[1])
            scope.__enter__()
            scopes.append(scope)
        elif kind == "return":
            if scopes:
                scopes.pop().__exit__(None, None, None)
        elif kind == "alloc":
            live.append(machine.malloc(op[1]))
        elif kind == "thread":
            machine.set_thread(op[1])
        elif live:
            obj = live[op[1] % len(live)]
            if kind == "free":
                live.remove(obj)
                machine.free(obj)
            elif kind == "realloc":
                machine.realloc(obj, op[2])
            else:  # store
                machine.store(obj, 0, obj.size)


def record_ops(program, ops):
    """The event trace of :func:`run_ops` on *program* (any allocator
    records the same stream)."""
    from repro.trace.record import TraceRecorder

    recorder = TraceRecorder(workload="synthetic", program=program.name)
    machine = Machine(program, SizeClassAllocator(AddressSpace(seed=0)), listeners=[recorder])
    run_ops(machine, ops)
    return recorder.close()


def run_request_on_a_machine(service, workload, index: int, listeners=()):
    """The oracle of ``ServeService._run_request``: request *index* executed
    on a plain ``Machine`` over the service's shared allocator, recorded by
    a ``TraceRecorder`` (plus any *listeners*).

    The machine places each op live, under the incumbent table's
    instrumentation and selectors, and the request's stragglers are freed
    from its object table.  Returns the recording.
    """
    import random

    from repro.machine import GroupStateVector
    from repro.trace.record import TraceRecorder

    name, seed = workload.name, service.config.seed
    recorder = TraceRecorder(workload=name, scale="test", seed=seed, program=workload.program.name)
    vector = service.allocator.state_vector = GroupStateVector()
    service.matcher.active = service.table.matcher_for(name)
    machine = Machine(
        workload.program, service.allocator, listeners=[recorder, *listeners],
        instrumentation=service.table.instrumentation_for(name), state_vector=vector,
    )
    try:
        rng = random.Random(f"serve:{seed}:{index}:{name}")
        workload._execute(machine, rng, service.config.request_factor)
        machine.finish()
    finally:
        service.matcher.active = None
    for obj in machine.objects.live_objects():
        service.allocator.free(obj.addr)
    return recorder.trace


def serve_heap(service) -> dict:
    """The shared heap a serve session leaves: counters, chunk layout,
    retained regions and the address space's cursor."""
    import dataclasses

    allocator = service.allocator
    return {
        "stats": dataclasses.asdict(allocator.stats),
        "counts": allocator.observable_stats(),
        "chunks": sorted((chunk.base, chunk.size) for chunk in allocator._chunks.values()),
        "retained": [(r.seq, r.gid, r.size, r.addr) for r in service.retained],
        "cursor": service.space._cursor,
    }

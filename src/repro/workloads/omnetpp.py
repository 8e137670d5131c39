"""omnetpp — SPEC CPU2017's discrete-event network simulator.

Every message, event and payload in the real program is allocated through
C++'s ``operator new``: the immediate call site of ``malloc`` is the one
inside the runtime's ``operator new`` for *all* allocations, which is why
the paper's hot-data-streams replication achieves nothing here, while
HALO's full-context identification still sees the distinct call paths and
earns a ~4 % speedup (~10 % of L1D misses).

Heap behaviour is churn: the simulator keeps a large future-event set of
(event, message, payload) triples with randomised lifetimes.  Module
activity allocates bookkeeping records *between* the members of each
triple, so a single shared pool — what HDS's one-site group amounts to —
interleaves them just like the baseline's scattered free-slot reuse does;
only a dedicated triple pool (HALO's group) keeps them contiguous.

This is also the workload of the paper's Figure 12 affinity-distance sweep:
the event-set heap array is probed between the event and message accesses,
so very small affinity distances cannot see the triple relationship, and
very large ones start absorbing the statistics records into the group.

Artefact appendix quirks: ``--chunk-size 131072 --max-spare-chunks 0`` with
chunks always reused.
"""

from __future__ import annotations

import heapq
import random

from ..machine.machine import Machine
from ..machine.program import Program, ProgramBuilder
from .base import Workload, register
from .patterns import free_all

EVENT_SIZE = 32
MESSAGE_SIZE = 64
PAYLOAD_SIZE = 48
STATS_SIZE = 48
FES_HEAP_SIZE = 256 * 1024  # the future-event-set binary heap array


@register
class OmnetppWorkload(Workload):
    """SPEC CPU2017 omnetpp: message churn through operator new."""

    name = "omnetpp"
    suite = "SPEC CPU2017"
    description = "discrete-event simulation, all allocation via operator new"
    work_per_access = 3.0
    halo_overrides = {
        "chunk_size": 131072,
        "max_spare_chunks": 0,
        "always_reuse_chunks": True,
    }
    hds_overrides = {
        "chunk_size": 131072,
        "max_spare_chunks": 0,
        "always_reuse_chunks": True,
    }

    BASE_STEPS = 24000
    WINDOW = 6000  # mean number of in-flight triples
    STATS_EVERY = 3
    PEEKS = 8  # in-flight messages inspected per step

    def _build_program(self) -> Program:
        b = ProgramBuilder("omnetpp")
        b.function("operator new", in_main_binary=False, traceable=True)
        b.function("malloc", in_main_binary=False)
        self.s_main_loop = b.call_site("main", "sim_loop")
        # Scheduling path: events enter the future event set.
        self.s_loop_sched = b.call_site("sim_loop", "schedule_event")
        self.s_sched_new = b.call_site("schedule_event", "operator new")
        # Messaging path: modules send messages with payloads.
        self.s_loop_app = b.call_site("sim_loop", "app_handle_message")
        self.s_app_send = b.call_site("app_handle_message", "send_message")
        self.s_send_new = b.call_site("send_message", "operator new")
        self.s_app_payload = b.call_site("app_handle_message", "encapsulate")
        self.s_payload_new = b.call_site("encapsulate", "operator new")
        # Statistics path: long-lived records, rarely revisited.
        self.s_loop_stats = b.call_site("sim_loop", "record_statistics")
        self.s_stats_new = b.call_site("record_statistics", "operator new")
        # The single malloc call inside the runtime's operator new: the only
        # site HDS identification can key on.
        self.s_new_malloc = b.call_site("operator new", "malloc", label="new body")
        self.s_main_fes = b.call_site("main", "malloc", label="FES heap array")
        return b.build()

    def _new(self, machine: Machine, path_sites, size: int):
        """Allocate through ``operator new`` (single internal malloc site)."""
        with machine.call(*path_sites, self.s_new_malloc):
            obj = machine.malloc(size)
        machine.store(obj, 0, 8)
        return obj

    def _execute(self, machine: Machine, rng: random.Random, factor: float) -> None:
        steps = self.scaled(self.BASE_STEPS, factor)
        window = self.scaled(self.WINDOW, factor)
        with machine.call(self.s_main_fes):
            fes = machine.malloc(FES_HEAP_SIZE)
        fes_lines = FES_HEAP_SIZE // 64

        stats_records: list = []
        in_flight: list = []  # min-heap of (expiry step, seq, event, message, payload)
        seq = 0

        with machine.call(self.s_main_loop):
            for step in range(steps):
                # Deliver every triple whose timer expired.
                while in_flight and in_flight[0][0] <= step:
                    _, _, event, message, payload = heapq.heappop(in_flight)
                    machine.load(event, 0, 8)
                    machine.load(event, 16, 8)
                    machine.load(fes, rng.randrange(fes_lines) * 64, 8)  # sift-down
                    machine.load(message, 0, 8)
                    machine.load(message, 32, 8)
                    machine.load(payload, 0, 8)
                    machine.work(self.work_per_access * 6)
                    machine.free(event)
                    machine.free(message)
                    machine.free(payload)

                # Schedule a new triple, with module bookkeeping allocated
                # in between its members (the interleaving that defeats a
                # single shared pool).
                event = self._new(machine, [self.s_loop_sched, self.s_sched_new], EVENT_SIZE)
                machine.load(fes, rng.randrange(fes_lines) * 64, 8)  # FES insert
                if step % self.STATS_EVERY == 0:
                    stats_records.append(
                        self._new(machine, [self.s_loop_stats, self.s_stats_new], STATS_SIZE)
                    )
                message = self._new(machine, [self.s_loop_app, self.s_app_send, self.s_send_new], MESSAGE_SIZE)
                if step % self.STATS_EVERY == 1:
                    stats_records.append(
                        self._new(machine, [self.s_loop_stats, self.s_stats_new], STATS_SIZE)
                    )
                payload = self._new(
                    machine, [self.s_loop_app, self.s_app_payload, self.s_payload_new], PAYLOAD_SIZE
                )
                machine.load(fes, rng.randrange(fes_lines) * 64, 8)  # sift-up
                expiry = step + window + rng.randrange(-window // 8, window // 8)
                heapq.heappush(in_flight, (expiry, seq, event, message, payload))
                seq += 1
                # Module activity: queued messages are inspected several
                # times during their life (timeout scans, priority checks,
                # module queue walks) — each inspection reads the control
                # event and its message together.
                for _ in range(self.PEEKS):
                    peek = in_flight[rng.randrange(len(in_flight))]
                    machine.load(peek[2], 0, 8)  # control event
                    machine.load(peek[3], 0, 8)  # the message itself
                machine.work(self.work_per_access * (2 + 2 * self.PEEKS))

        # Finalisation: drain the FES and scan the statistics once.
        for _, _, event, message, payload in in_flight:
            machine.free(event)
            machine.free(message)
            machine.free(payload)
        for record in stats_records:
            machine.load(record, 0, 8)
            machine.work(self.work_per_access)
        free_all(machine, stats_records)
        machine.free(fes)

"""Batched (columnar) trace-driven measurement engine.

``measure_columnar`` produces the same :class:`Measurement` a per-event
:class:`~repro.trace.replay.TraceReplayer` run would — bit-identical
cycles, per-level cache/TLB miss counts, allocator statistics, peak
live bytes and fragmentation-at-peak — without dispatching one Python
method call per event.  The decomposition exploits three structural
facts of the simulator:

* **Placement is residency-independent.**  Every allocator's placement
  decisions read only the operation sequence (plus, for grouped
  allocators, the state vector / call stack at each allocation), never
  page residency — so heap operations can be replayed in a lean loop
  that skips all page accounting, yielding every object's base address
  up front.
* **The hierarchy factorises per structure.**  L1/L2/L3/TLB are
  independent state machines; the interleaved per-access walk is
  equivalent to running the full line stream through L1, its miss
  stream through L2, and so on — which is what the chunked
  :func:`~repro.columnar.kernel.lru_filter` kernel does over
  precomputed set/tag columns.
* **Fragmentation is only read at one instant.**  The per-event path
  snapshots fragmentation at every new live-byte peak; only the last
  snapshot survives.  The lean pass locates that allocation ordinal,
  and a second pass with page-residency flushes reproduces the snapshot
  exactly once.

Runs with a grouped allocator therefore take two passes (lean, then
residency-tracking); the jemalloc-like baseline and random-pool
configurations need only the lean pass.  The per-event Machine path
remains the differential oracle — see ``tests/test_columnar.py``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..allocators.base import AddressSpace, Allocator
from ..allocators.group import FragmentationSnapshot, GroupAllocator
from ..cache.hierarchy import HierarchyConfig, HierarchyStats
from ..cache.sharing import FalseSharingTracker
from ..cache.timing import CostModel
from ..machine.machine import Machine, MachineMetrics
from ..machine.program import Program
from ..trace.format import OP_ALLOC, OP_CALL, OP_FREE, OP_RETURN, EventTrace, TraceColumns
from ..workloads.base import Workload
from .kernel import expand_ranges, lru_filter, validate_geometry
from .. import obs


def simulate_hierarchy(
    addr: np.ndarray, size: np.ndarray, config: HierarchyConfig, residency: bool = True
) -> tuple[HierarchyStats, Optional[np.ndarray], Optional[np.ndarray]]:
    """Run the cache/TLB hierarchy over an (address, size) access stream.

    Returns the hierarchy counters plus the flat page stream and its
    per-access prefix index (``page_starts[i]`` = pages preceding access
    *i*), which the residency pass reuses for page-touch flushing; both
    are None when *residency* is off.
    """
    validate_geometry(config)
    line_shift = config.line_size.bit_length() - 1
    page_shift = config.page_size.bit_length() - 1
    # One int64 temporary, reused in place: last byte, then last page,
    # then pages spanned by each access.
    last = addr + size
    last -= 1
    lines = expand_ranges(addr >> line_shift, last >> line_shift)
    line = config.line_size
    l1_misses, missed = lru_filter(
        lines, config.l1_size // (config.l1_assoc * line), config.l1_assoc
    )
    accesses = int(lines.shape[0])
    del lines
    l2_misses, missed = lru_filter(
        missed, config.l2_size // (config.l2_assoc * line), config.l2_assoc
    )
    l3_misses, missed = lru_filter(
        missed, config.l3_size // (config.l3_assoc * line), config.l3_assoc
    )
    del missed
    first_page = addr >> page_shift
    last >>= page_shift
    pages = expand_ranges(first_page, last)
    tlb_misses, _ = lru_filter(pages, 1, config.tlb_entries)
    stats = HierarchyStats(
        accesses=accesses,
        l1_misses=l1_misses,
        l2_misses=l2_misses,
        l3_misses=l3_misses,
        tlb_misses=tlb_misses,
    )
    if not residency:
        return stats, None, None
    last -= first_page
    last += 1
    page_starts = np.empty(addr.shape[0] + 1, dtype=np.int64)
    page_starts[0] = 0
    np.cumsum(last, out=page_starts[1:])
    return stats, pages, page_starts


def _compute_cycles(works: np.ndarray) -> float:
    """Total compute cycles, bit-identical to sequential ``+=`` accumulation.

    All-integral non-negative streams below 2**53 sum exactly in either
    order (every partial float sum is an exactly-representable integer);
    anything else falls back to the event-order sequential loop.
    """
    if works.size == 0:
        return 0.0
    if (
        np.all(works >= 0)
        and np.all(np.floor(works) == works)
        and float(works.max()) * works.size < float(1 << 62)
    ):
        total = int(works.astype(np.int64).sum(dtype=np.int64))
        if total < (1 << 53):
            return float(total)
    total = 0.0
    for cycles in works.tolist():
        total += cycles
    return total


def _build_machine(
    program: Program,
    make_allocator: Callable[[AddressSpace], Allocator],
    seed: int,
    instrumentation: Optional[dict[int, int]],
    state_vector,
    attach: Optional[Callable[[Machine], None]],
) -> Machine:
    """One fresh (space, allocator, machine) triple, attach hooks applied.

    Mirrors ``run_measurement``'s construction order exactly — factory,
    then machine, then attach — so holder-based runtime factories (halo,
    hds, calder) wire their matcher/state-vector into the right pass.
    """
    space = AddressSpace(seed)
    allocator = make_allocator(space)
    machine = Machine(
        program,
        allocator,
        memory=None,
        instrumentation=instrumentation,
        state_vector=state_vector,
    )
    if attach is not None:
        attach(machine)
    return machine


class _Placement:
    """What a placement pass learned: every object's base address, the
    realloc moves (``(acc_ptr, oid, new_base)``), every realloc's
    resulting address in op order, the live-byte peak and the allocation
    ordinal it was reached at, the instrumentation toggle count, and (on
    a residency pass) the fragmentation snapshot at the peak."""

    __slots__ = ("bases", "moves", "realloc_addrs", "peak_live", "peak_at", "toggles", "frag")

    def __init__(self) -> None:
        self.bases: list[int] = []
        self.moves: list[tuple[int, int, int]] = []
        self.realloc_addrs: list[int] = []
        self.peak_live = 0
        self.peak_at = -1
        self.toggles = 0
        self.frag: Optional[FragmentationSnapshot] = None


def _heap_pass(cols, machine: Machine) -> _Placement:
    """Lean replay of heap operations only (stack/state-independent policy).

    Valid when the allocator never consults the state vector or call
    stack (baseline, random pools, the standalone families).  Thread
    switches reach a thread-aware allocator between runs of ops.
    """
    allocator = machine.allocator
    stats = allocator.stats
    fallback = getattr(allocator, "fallback", None)
    fb_stats = fallback.stats if fallback is not None else None
    al_malloc = allocator.malloc
    al_free = allocator.free
    al_realloc = allocator.realloc
    set_thread = getattr(allocator, "set_thread", None)
    segments = cols.segments(threaded=set_thread is not None)
    out = _Placement()
    bases = out.bases
    moves = out.moves
    peak_live = 0
    if fb_stats is None and cols.reallocs == 0:
        # Fast path: no fallback means the allocator's own running peak
        # is sampled at exactly the same instants the per-event tracker
        # samples (after each malloc; frees never raise it, and there
        # are no reallocs in the stream), so per-op tracking drops out.
        append_base = bases.append
        for thread, ops in segments:
            if thread is not None:
                set_thread(thread)
            for ev in ops:
                if ev[0] == OP_ALLOC:
                    append_base(al_malloc(ev[1]))
                else:  # OP_FREE
                    al_free(bases[ev[1]])
        peak_live = stats.peak_live_bytes
    else:
        cur: list[int] = []
        realloc_addrs = out.realloc_addrs
        for thread, ops in segments:
            if thread is not None:
                set_thread(thread)
            for op, a, b, ptr in ops:
                if op == OP_ALLOC:
                    addr = al_malloc(a)
                    cur.append(addr)
                    bases.append(addr)
                    live = stats.live_bytes
                    if fb_stats is not None:
                        live += fb_stats.live_bytes
                    if live > peak_live:
                        peak_live = live
                elif op == OP_FREE:
                    al_free(cur[a])
                else:  # OP_REALLOC
                    old = cur[a]
                    new = al_realloc(old, b)
                    realloc_addrs.append(new)
                    if new != old:
                        cur[a] = new
                        moves.append((ptr, a, new))
    out.peak_live = peak_live
    instrumentation = machine.instrumentation
    if instrumentation:
        # Every instrumented call toggles its bit on entry and exit
        # (trailing scopes are auto-closed by the replayer), so the total
        # is exactly two per instrumented call.
        out.toggles = 2 * int(np.isin(cols.call_addrs, list(instrumentation)).sum())
    return out


#: Pages turned into Python ints at a time by the residency pass.
_PAGE_BLOCK = 1 << 13


def _grouped_pass(
    cols,
    machine: Machine,
    pages: Optional[np.ndarray] = None,
    page_starts: Optional[np.ndarray] = None,
    bases_check: Optional[list] = None,
    peak_ordinal: int = -1,
) -> _Placement:
    """Replay heap *and* control events for state/stack-reading allocators.

    Maintains exactly what a grouped allocator can observe at malloc
    time — the state-vector bits of instrumented sites and (for matchers
    that read it) the live call stack.  Without *pages*, this is the
    lean discovery pass; with *pages*/*page_starts* it additionally
    replays page residency (touching each access's pages before the next
    heap operation, which is when purges can observe them) and captures
    the fragmentation snapshot at allocation *peak_ordinal*.
    """
    allocator = machine.allocator
    stats = allocator.stats
    fb_stats = allocator.fallback.stats
    al_malloc = allocator.malloc
    al_free = allocator.free
    al_realloc = allocator.realloc
    set_thread = getattr(allocator, "set_thread", None)
    state_vector = machine.state_vector
    instrumentation = machine.instrumentation
    needs_bits = bool(instrumentation)
    matcher = getattr(allocator, "matcher", None)
    needs_stack = matcher is not None and hasattr(matcher, "machine")
    stack = machine.stack
    sites = machine.program.sites
    instr_get = instrumentation.get
    sv_set = state_vector.set
    sv_clear = state_vector.clear
    out = _Placement()
    bases = out.bases
    moves = out.moves
    realloc_addrs = out.realloc_addrs
    cur: list[int] = []
    bit_stack: list = []
    toggles = 0
    peak_live = 0
    peak_at = -1
    frag: Optional[FragmentationSnapshot] = None
    tracking = pages is not None
    touched = allocator.space._touched_pages if tracking else None
    # pages[flushed:] are not yet touched; block caches pages[block_lo:block_hi]
    # as Python ints, so no pass holds a whole trace's worth of page objects.
    flushed = block_lo = block_hi = 0
    block: list[int] = []
    for thread, ops in cols.segments(ctrl=True, threaded=set_thread is not None):
        if thread is not None:
            set_thread(thread)
        for op, a, b, ptr in ops:
            if op == OP_CALL:
                if needs_stack:
                    stack.append(sites[a])
                if needs_bits:
                    bit = instr_get(a)
                    bit_stack.append(bit)
                    if bit is not None:
                        sv_set(bit)
                        toggles += 1
                continue
            if op == OP_RETURN:
                if needs_bits:
                    bit = bit_stack.pop()
                    if bit is not None:
                        sv_clear(bit)
                        toggles += 1
                if needs_stack:
                    stack.pop()
                continue
            if tracking:
                upto = int(page_starts[ptr])
                if upto > flushed:
                    if upto > block_hi:
                        block_lo = (upto - 1) & -_PAGE_BLOCK
                        if block_lo > flushed:
                            touched.update(pages[flushed:block_lo].tolist())
                            flushed = block_lo
                        block = pages[block_lo:block_lo + _PAGE_BLOCK].tolist()
                        block_hi = block_lo + len(block)
                    touched.update(block[flushed - block_lo:upto - block_lo])
                    flushed = upto
            if op == OP_ALLOC:
                addr = al_malloc(a)
                cur.append(addr)
                bases.append(addr)
                if tracking:
                    if addr != bases_check[len(bases) - 1]:
                        raise RuntimeError(
                            "columnar engine: allocator placement diverged between "
                            "passes (non-deterministic allocator?)"
                        )
                    if len(bases) - 1 == peak_ordinal:
                        frag = allocator.fragmentation()
                else:
                    live = stats.live_bytes + fb_stats.live_bytes
                    if live > peak_live:
                        peak_live = live
                        peak_at = len(bases) - 1
            elif op == OP_FREE:
                al_free(cur[a])
            else:  # OP_REALLOC
                old = cur[a]
                new = al_realloc(old, b)
                realloc_addrs.append(new)
                if new != old:
                    cur[a] = new
                    moves.append((ptr, a, new))
    while bit_stack:  # truncated traces: auto-closed trailing scopes
        bit = bit_stack.pop()
        if bit is not None:
            sv_clear(bit)
            toggles += 1
    out.peak_live = peak_live
    out.peak_at = peak_at
    out.toggles = toggles
    out.frag = frag
    return out


def _false_sharing(cols, placement: _Placement, addr: np.ndarray) -> FalseSharingTracker:
    """The false-sharing counters a :class:`FalseSharingTracker` would report.

    Walks the heap ops and accesses in stream order on their recorded
    threads, feeding the tracker's own tenancy and touch rules with the
    placement pass's addresses.  A single-threaded trace cannot share a
    line between threads, so only ``threads_seen`` (thread 0, if it
    allocated at all) needs setting there.
    """
    tracker = FalseSharingTracker()
    if not cols.switches:
        if cols.allocs:
            tracker.threads.add(0)
        return tracker
    addrs = addr.tolist()
    sizes = cols.acc_size.tolist()
    bases = iter(placement.bases)
    realloc_addrs = iter(placement.realloc_addrs)
    cur: list[int] = []
    size_of: list[int] = []
    acc_ends = [mark[2] for mark in cols.switches] + [len(addrs)]
    pos = 0
    for (thread, ops), acc_hi in zip(cols.segments(), acc_ends):
        thread = thread or 0
        for op, a, b, ptr in ops:
            for i in range(pos, ptr):
                tracker.touch(addrs[i], sizes[i], thread)
            pos = ptr
            if op == OP_ALLOC:
                base = next(bases)
                cur.append(base)
                size_of.append(a)
                tracker.alloc(base, a, thread)
            elif op == OP_FREE:
                tracker.release(cur[a], size_of[a])
            else:  # OP_REALLOC
                tracker.release(cur[a], size_of[a])
                cur[a] = next(realloc_addrs)
                size_of[a] = b
                tracker.claim(cur[a], b, thread)
        for i in range(pos, acc_hi):
            tracker.touch(addrs[i], sizes[i], thread)
        pos = acc_hi
    return tracker


def _address_column(cols, placement: _Placement) -> np.ndarray:
    """Absolute address per access: base-table gather plus realloc patches."""
    if cols.accesses == 0:
        return np.empty(0, dtype=np.int64)
    addr = np.asarray(placement.bases, dtype=np.int64)[cols.acc_oid]
    addr += cols.acc_offset
    for ptr, oid, new_base in placement.moves:
        tail_oid = cols.acc_oid[ptr:]
        sel = tail_oid == oid
        addr[ptr:][sel] = new_base + cols.acc_offset[ptr:][sel]
    return addr


def _place(cols, machine: Machine) -> _Placement:
    """The placement pass the machine's allocator needs."""
    if isinstance(machine.allocator, GroupAllocator):
        return _grouped_pass(cols, machine)
    return _heap_pass(cols, machine)


def place_trace(
    program: Program,
    make_allocator: Callable[[AddressSpace], Allocator],
    trace: EventTrace,
    seed: int = 0,
    instrumentation: Optional[dict[int, int]] = None,
    state_vector=None,
    attach: Optional[Callable[[Machine], None]] = None,
) -> tuple[TraceColumns, Machine, _Placement, np.ndarray]:
    """Place *trace*'s heap ops on a fresh allocator, then gather addresses.

    The place-then-gather step every columnar consumer shares: returns
    the trace's columns, the machine (its allocator left in the
    placement's end state), the placement, and the absolute address of
    every access.
    """
    cols = trace.columns()
    machine = _build_machine(
        program, make_allocator, seed, instrumentation, state_vector, attach
    )
    placement = _place(cols, machine)
    return cols, machine, placement, _address_column(cols, placement)


def _metrics(cols, toggles: int) -> MachineMetrics:
    return MachineMetrics(
        loads=cols.loads,
        stores=cols.stores,
        allocs=cols.allocs,
        frees=cols.frees,
        reallocs=cols.reallocs,
        calls=cols.calls,
        compute_cycles=_compute_cycles(cols.works),
        instrumentation_toggles=toggles,
    )


def score_trace(
    workload: Workload,
    make_allocator: Callable[[AddressSpace], Allocator],
    trace: EventTrace,
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    instrumentation: Optional[dict[int, int]] = None,
    state_vector=None,
    attach: Optional[Callable[[Machine], None]] = None,
) -> float:
    """Cycles-only score of one allocator configuration over *trace*.

    The serving daemon's canary: identical placement and hierarchy
    simulation to :func:`measure_columnar`, but a single lean pass (no
    fragmentation snapshot, which needs the residency replay) and no
    observability publication — scoring candidates must not perturb the
    service's own metrics.  Scores are comparable across calls with the
    same trace, seed, cost model, and hierarchy geometry.
    """
    cost_model = cost_model or CostModel()
    hconfig = hierarchy_config or HierarchyConfig()
    cols, _, placement, addr = place_trace(
        workload.program, make_allocator, trace, seed, instrumentation, state_vector, attach
    )
    cache, _, _ = simulate_hierarchy(addr, cols.acc_size, hconfig, residency=False)
    return cost_model.cycles(_metrics(cols, placement.toggles), cache)


def measure_columnar(
    workload: Workload,
    make_allocator: Callable[[AddressSpace], Allocator],
    config: str,
    trace: EventTrace,
    scale: str = "ref",
    seed: int = 0,
    cost_model: Optional[CostModel] = None,
    hierarchy_config: Optional[HierarchyConfig] = None,
    instrumentation: Optional[dict[int, int]] = None,
    state_vector=None,
    attach: Optional[Callable[[Machine], None]] = None,
):
    """Measure one allocator configuration from *trace*, batched.

    Drop-in equivalent of ``run_measurement(..., driver=TraceReplayer(
    trace, workload.program).drive)`` — same Measurement fields, same
    ``measure.*`` observability counters (false sharing included) — at a
    fraction of the cost.
    """
    from ..harness.runner import Measurement, _publish_measurement_metrics

    cost_model = cost_model or CostModel()
    hconfig = hierarchy_config or HierarchyConfig()
    cols, machine, placement, addr = place_trace(
        workload.program, make_allocator, trace, seed, instrumentation, state_vector, attach
    )
    allocator = machine.allocator
    grouped = isinstance(allocator, GroupAllocator)
    cache, pages, page_starts = simulate_hierarchy(
        addr, cols.acc_size, hconfig, residency=grouped
    )

    frag: Optional[FragmentationSnapshot] = None
    if grouped:
        # Second pass on a fresh, identically-seeded allocator: replay
        # with page residency so the fragmentation snapshot at the peak
        # allocation is exact (purges and header touches included).
        machine = _build_machine(
            workload.program, make_allocator, seed, instrumentation, state_vector, attach
        )
        allocator = machine.allocator
        frag = _grouped_pass(
            cols,
            machine,
            pages=pages,
            page_starts=page_starts,
            bases_check=placement.bases,
            peak_ordinal=placement.peak_at,
        ).frag
        del pages, page_starts

    metrics = _metrics(cols, placement.toggles)
    if obs.active_registry() is not None:
        _publish_measurement_metrics(
            workload.name, config, metrics, cache, allocator, placement.peak_live,
            sharing=_false_sharing(cols, placement, addr),
        )
    return Measurement(
        workload=workload.name,
        config=config,
        scale=scale,
        seed=seed,
        cycles=cost_model.cycles(metrics, cache),
        cache=cache,
        accesses=metrics.accesses,
        allocs=metrics.allocs,
        frees=metrics.frees,
        instrumentation_toggles=metrics.instrumentation_toggles,
        peak_live_bytes=placement.peak_live,
        frag_at_peak=frag,
        grouped_allocs=getattr(allocator, "grouped_allocs", 0),
        forwarded_allocs=getattr(allocator, "forwarded_allocs", 0),
        degraded_allocs=getattr(allocator, "degraded_allocs", 0),
    )

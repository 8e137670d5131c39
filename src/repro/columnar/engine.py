"""Batched (columnar) trace-driven measurement engine.

``measure_columnar`` produces the same :class:`Measurement` a per-event
:class:`~repro.trace.replay.TraceReplayer` run would — bit-identical
cycles, per-level cache/TLB miss counts, allocator statistics, peak
live bytes and fragmentation-at-peak — in one pass over the heap
operations alone.  The decomposition exploits five structural facts of
the simulator:

* **Selectors are a function of the call/return stream.**  A grouped
  allocator's matcher reads only the group-state vector and the live
  call stack at each allocation.  Both follow from the control ops
  alone: bit *b* is set iff its last toggle before the op was a set,
  and the stack is a node of the trace's call-site trie.  Numpy gives
  every allocation its (state, node) key up front, and the matcher runs
  once per distinct key (spans ``columnar.selectors`` and
  ``columnar.place``), so the loop never walks a call or a return.
* **Live bytes are a prefix sum.**  Every allocator counts requested
  sizes, so the live-byte peak, and the allocation it is reached at,
  are known before placement starts.
* **The hierarchy factorises per structure.**  L1/L2/L3/TLB are
  independent state machines; the interleaved per-access walk is
  equivalent to running the full line stream through L1, its miss
  stream through L2, and so on — which is what the chunked
  :func:`~repro.columnar.kernel.lru_filter` kernel does over
  precomputed set/tag columns (``columnar.hierarchy``).
* **Placement is a policy, not a program.**  The size-class, group,
  random-pool, free-list and arena allocators decide every address
  from the heap ops, each allocation's group and each op's thread
  alone, so the pass runs on their exact C replicas in the kernel
  library (:func:`~repro.columnar.kernel.place`, span
  ``columnar.place``): HALO's post-link rewrite, simulated without
  executing the calls.  The sharded group allocator, a subclass, a
  used allocator and a run under a fault plan that flips the state
  vector or caps the chunks take the Python loop over the allocator's
  own methods, which stays the oracle.  The same loop places a
  ``halo serve`` request, recorded unplaced, on the service's shared
  heap (:func:`place_heap_ops`).
* **Fragmentation is only read at one instant.**  Placement never reads
  page residency, so the loop touches no page for an access.  At the
  peak allocation it snapshots the allocator's live and high-water
  bytes and the chunk pages the allocator touched itself, and it logs
  every chunk purge with its op position.  A chunk page is resident at
  the peak iff its last touch (the allocator's, or an access's from the
  hierarchy's page stream) came after its last purge
  (``columnar.residency``).

The per-event Machine path remains the differential oracle — see
``tests/test_columnar.py``, ``tests/test_selector_columns.py`` and
``tests/test_engine_oracle.py``.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

import numpy as np

from ..allocators.arena import ArenaAllocator
from ..allocators.base import PAGE_SHIFT, PAGE_SIZE, AddressSpace, Allocator, AllocatorStats
from ..allocators.bump import BumpAllocator
from ..allocators.freelist import FreeListAllocator
from ..allocators.group import FragmentationSnapshot, GroupAllocator
from ..allocators.random_group import RandomPoolAllocator
from ..allocators.size_class import SizeClassAllocator
from ..cache.hierarchy import HierarchyConfig, HierarchyStats
from ..cache.sharing import FalseSharingTracker
from ..cache.timing import CostModel
from ..machine.heap import HeapError
from ..machine.machine import Machine, MachineMetrics
from ..machine.program import Program
from ..trace.format import (
    OP_ALLOC, OP_CALL, OP_FREE, OP_REALLOC, CallTrie, EventTrace, TraceColumns,
)
from ..workloads.base import Workload
from ..faults.plan import active_fault_plan
from . import kernel
from .kernel import expand_ranges, lru_filter, validate_geometry
from .. import obs


def simulate_hierarchy(
    addr: np.ndarray, size: np.ndarray, config: HierarchyConfig, residency: bool = True
) -> tuple[HierarchyStats, Optional[np.ndarray], Optional[np.ndarray]]:
    """Run the cache/TLB hierarchy over an (address, size) access stream.

    Returns the hierarchy counters plus the flat page stream and its
    per-access prefix index (``page_starts[i]`` = pages preceding access
    *i*), from which the fragmentation snapshot's page residency is
    computed; both are None when *residency* is off.
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


class _Placement:
    """What the placement pass learned: every object's base address, the
    realloc moves (``(acc_ptr, oid, new_base)``), every realloc's
    resulting address in op order, the live-byte peak, the
    instrumentation toggle count, and for a grouped allocator the
    distinct selector keys it resolved and the heap at the peak."""

    __slots__ = ("bases", "moves", "realloc_addrs", "peak_live", "toggles", "keys", "peak")

    def __init__(self) -> None:
        self.bases: list[int] = []
        self.moves: list[tuple[int, int, int]] = []
        self.realloc_addrs: list[int] = []
        self.peak_live = self.toggles = self.keys = 0
        self.peak: Optional[_Peak] = None


def _live_peak(cols, allocator: Allocator) -> tuple[int, int]:
    """The live-byte peak and the allocation ordinal it is first reached at.

    Every allocator counts requested sizes, so live bytes are a prefix
    sum over the heap columns, sampled after allocations as the
    per-event tracker samples them.  An allocator on the base-class
    ``realloc`` keeps a block's recorded size through a shrink.
    """
    if not cols.allocs:
        return 0, -1
    ops, a, b, _ = cols.heap
    is_alloc = ops == OP_ALLOC
    held = a[is_alloc]  # bytes each object holds, by oid
    delta = a.copy()
    if cols.reallocs:
        keeps = type(allocator).realloc is Allocator.realloc
        for at in np.flatnonzero(ops == OP_REALLOC).tolist():
            oid, size = int(a[at]), int(b[at])
            size = max(size, int(held[oid])) if keeps else size
            delta[at] = size - held[oid]
            held[oid] = size
    frees = ops == OP_FREE
    delta[frees] = -held[a[frees]]
    live = np.cumsum(delta)[is_alloc]
    at = int(np.argmax(live))
    return int(live[at]), at


def _state_words(ops: np.ndarray, trie: CallTrie, instrumentation: dict, at: np.ndarray):
    """The group-state vector before each control op of *at*, as 64-bit
    words (bit *b* in word ``b // 64``).

    Bit *b* is set iff its last toggle before the op was a set: a call
    through a site instrumented with *b* sets it, and the return that
    closes that call clears it.  That is the non-reference-counted
    :meth:`~repro.machine.machine.GroupStateVector.clear`: returning from
    a recursive re-entry clears the bit under a still-open outer call.
    Each toggle that changes its bit adds or removes ``1 << b``, so a
    word is a prefix sum of changes (mod 2**64, exact: it is in range).
    """
    site_bit = np.array([instrumentation.get(site, -1) for site in trie.sites], dtype=np.int64)
    call_bit = site_bit[trie.call_site]
    toggle_bit = np.full(ops.shape[0], -1, dtype=np.int64)
    toggle_bit[trie.calls] = call_bit
    returns, closes = trie.closing()
    toggle_bit[returns] = call_bit[closes]
    position = np.flatnonzero(toggle_bit >= 0)
    bit = toggle_bit[position]
    on = (ops[position] == OP_CALL).view(np.int8)
    # Each bit's toggles in stream order give its value before each one.
    by_bit = np.argsort(bit, kind="stable")
    same = bit[by_bit[1:]] == bit[by_bit[:-1]]
    was = np.zeros_like(on)
    was[by_bit[1:][same]] = on[by_bit[:-1][same]]
    change = on - was
    before = np.searchsorted(position, at)  # toggles preceding each op
    words = []
    for word in range(int(bit.max(initial=-1)) // 64 + 1):
        mine = (change != 0) & (bit >> 6 == word)
        one = np.left_shift(np.uint64(1), (bit[mine] & 63).astype(np.uint64))
        step = np.zeros(position.shape[0] + 1, dtype=np.uint64)
        step[1:][mine] = np.where(change[mine] > 0, one, ~one + np.uint64(1))
        words.append(np.cumsum(step, dtype=np.uint64)[before])
    return words


class _Selectors:
    """The group allocator's matcher while the placement pass runs.

    Every heap op that may call ``malloc`` (allocs and reallocs) has a
    key: the group-state word (under instrumentation) and the
    call-site-trie node of the live stack (when the matcher reads the
    stack).  The real matcher runs once per distinct key, with
    ``machine.stack`` materialised from the node.  The pass sets ``key``,
    and the state vector to that key's word, before each such op;
    ``match`` then returns the key's group.  A state that is not the
    op's own (a fault-flipped vector) resolves its own key.
    """

    __slots__ = ("key", "keys", "column", "states", "nodes", "gids", "matcher", "_machine", "_trie")

    def __init__(self, cols, machine: Machine) -> None:
        self.matcher = matcher = machine.allocator.matcher
        instrumentation = machine.instrumentation
        reads_stack = hasattr(matcher, "machine")
        ops = cols.ctrl[0]
        at = np.flatnonzero((ops == OP_ALLOC) | (ops == OP_REALLOC))
        trie = cols.call_trie() if cols.calls and (reads_stack or instrumentation) else None
        words = _state_words(ops, trie, instrumentation, at) if trie and instrumentation else []
        node = trie.nodes(at) if trie and reads_stack else np.zeros(at.shape[0], dtype=np.int32)
        key = np.zeros(at.shape[0], dtype=np.int64)
        for column in (*words, node):
            _, code = np.unique(column, return_inverse=True)
            _, key = np.unique(key * (int(code.max(initial=0)) + 1) + code, return_inverse=True)
        first = np.unique(key, return_index=True)[1].tolist()
        self.key = 0
        self.column = key
        self.keys = key.tolist()
        self.states = [sum(int(word[i]) << (64 * w) for w, word in enumerate(words)) for i in first]
        self.nodes = node[first].tolist()
        self._machine, self._trie = machine, trie
        self.gids = list(map(self._resolve, self.states, self.nodes))

    def _resolve(self, state: int, node: int) -> Optional[int]:
        if self._trie is not None:
            sites = self._machine.program.sites
            self._machine.stack[:] = [sites[addr] for addr in self._trie.path(node)]
        return self.matcher.match(state)

    def match(self, state: int) -> Optional[int]:
        key = self.key
        if state == self.states[key]:
            return self.gids[key]
        return self._resolve(state, self.nodes[key])


class _Peak:
    """The grouped heap at the live-byte peak, as the placement pass saw it.

    The allocator's snapshot has exact live and high-water bytes, but
    its resident bytes count only the chunk pages the allocator touched
    itself (``held``): the pass touches no page for an access.
    ``purges`` are the chunk purges before the peak, as
    ``(acc_ptr, base, size)``.
    """

    __slots__ = ("frag", "ptr", "spans", "held", "purges")

    def __init__(
        self, frag: FragmentationSnapshot, ptr: int, spans: list, held: np.ndarray, purges: list
    ) -> None:
        self.frag, self.ptr, self.spans, self.held, self.purges = frag, ptr, spans, held, purges

    @classmethod
    def of(cls, allocator: GroupAllocator, ptr: int, purges: list) -> "_Peak":
        """The snapshot of a live Python allocator."""
        spans = sorted(  # each chunk's first and last page
            (chunk.base >> PAGE_SHIFT, (chunk.base + chunk.size - 1) >> PAGE_SHIFT)
            for chunk in allocator._chunks.values()
        )
        held = np.array(sorted(allocator.space._touched_pages), dtype=np.int64)
        return cls(allocator.fragmentation(), ptr, spans, held, list(purges))

    def fragmentation(self, pages: np.ndarray, page_starts: np.ndarray) -> FragmentationSnapshot:
        """The snapshot with page residency from the hierarchy's page stream.

        A chunk page is resident iff its last touch before the peak (the
        allocator's, or an access's) came after its last purge.  Access
        *i* precedes a heap op at ``acc_ptr`` *p* iff *i* < *p*, so a
        purge at *p* wipes the stream's pages before ``page_starts[p]``.
        """
        if not self.spans:
            return self.frag  # no chunk yet: nothing grouped is resident
        first, last = np.array(self.spans, dtype=np.int64).T
        chunk_pages = np.unique(np.concatenate([np.arange(lo, hi + 1) for lo, hi in self.spans]))
        # Stream position of each chunk page's last access before the peak.
        touched = pages[:int(page_starts[self.ptr])]
        slot = np.minimum(np.searchsorted(chunk_pages, touched), chunk_pages.shape[0] - 1)
        inside = np.flatnonzero(chunk_pages[slot] == touched)
        newest = np.full(chunk_pages.shape[0], -1, dtype=np.int64)
        np.maximum.at(newest, slot[inside], inside)
        wiped = np.zeros(chunk_pages.shape[0], dtype=np.int64)
        for ptr, base, size in self.purges:
            span = [base >> PAGE_SHIFT, (base + size - 1) >> PAGE_SHIFT]
            lo, hi = np.searchsorted(chunk_pages, span)
            wiped[lo:hi + 1] = page_starts[ptr]
        resident = np.union1d(chunk_pages[newest >= wiped], self.held)
        counted = np.searchsorted(resident, last, side="right") - np.searchsorted(resident, first)
        return FragmentationSnapshot(
            live_bytes=self.frag.live_bytes,
            resident_bytes=int(counted.sum()) * PAGE_SIZE,
            high_water_bytes=self.frag.high_water_bytes,
        )


def _place(cols, machine: Machine) -> _Placement:
    """The one placement pass: every heap op, in stream order, on the
    machine's allocator; calls and returns are never walked.

    A grouped allocator consults the selector keys (``columnar.selectors``),
    logs its chunk purges, and is snapshotted at the peak allocation.  An
    allocator the kernel replicates (:func:`_compiled`) is placed by its
    compiled replica (:func:`_place_compiled`); any other allocator, a
    run under a fault plan that applies, or any run without the compiled
    library takes the Python loop (:func:`_place_python`), which stays
    the oracle.
    """
    allocator = machine.allocator
    out = _Placement()
    out.peak_live, peak_at = _live_peak(cols, allocator)
    instrumentation = machine.instrumentation
    if instrumentation:
        # Every instrumented call toggles its bit on entry and exit
        # (trailing scopes are auto-closed by the replayer), so the total
        # is exactly two per instrumented call.
        out.toggles = 2 * int(np.isin(cols.call_addrs, list(instrumentation)).sum())
    grouped = isinstance(allocator, GroupAllocator)
    snap = peak_at + 1 if grouped else 0
    selectors = None
    if grouped:
        with obs.span("columnar.selectors"):
            selectors = _Selectors(cols, machine)
        out.keys = len(selectors.gids)
    try:
        with obs.span("columnar.place"):
            if not (
                _compiled(allocator) and _place_compiled(cols, allocator, selectors, snap, out)
            ):
                _place_python(cols, machine, selectors, snap, out)
    finally:
        if grouped:
            machine.stack.clear()
    return out


def _fresh_size_class(sized: Allocator, space: AddressSpace) -> bool:
    """Whether *sized* is an unused ``SizeClassAllocator`` (no subclass) on *space*."""
    return type(sized) is SizeClassAllocator and sized.space is space and not sized.stats.total_allocs


def _fresh_free_list(free_list: Allocator, space: AddressSpace) -> bool:
    """Whether *free_list* is an unused ``FreeListAllocator`` (no subclass) on *space*."""
    return (
        type(free_list) is FreeListAllocator and free_list.space is space
        and not free_list._pools and not free_list.stats.total_allocs
    )


def _compiled(allocator: Allocator) -> bool:
    """Whether the placement kernel replicates *allocator* exactly.

    That is a fresh instance (no subclass) of ``SizeClassAllocator``,
    ``FreeListAllocator`` or ``ArenaAllocator`` over fresh free lists of
    one policy and pool size, or a fresh ``GroupAllocator`` or
    ``RandomPoolAllocator`` (over fresh bump pools of one size) over a
    fresh ``SizeClassAllocator``; every part on one plain address space,
    and for a group allocator no fault plan that flips the state vector
    or caps the chunks.  ``ShardedGroupAllocator``, subclasses and used
    allocators take the Python loop.
    """
    space = allocator.space
    if type(space) is not AddressSpace or type(space._rng) is not random.Random:
        return False
    family = type(allocator)
    if family is GroupAllocator:
        plan = active_fault_plan()
        return (
            not allocator._chunks and not allocator.forwarded_allocs
            and not (plan is not None and (plan.state_flip_rate or plan.group_max_chunks is not None))
            and _fresh_size_class(allocator.fallback, space)
        )
    if family is RandomPoolAllocator:
        pools = allocator._pools
        return (
            bool(pools) and not allocator.stats.total_allocs
            and type(allocator._rng) is random.Random
            and all(
                type(pool) is BumpAllocator and pool.space is space and not pool.pools
                and pool.pool_size == pools[0].pool_size
                for pool in pools
            )
            and _fresh_size_class(allocator.fallback, space)
        )
    if family is ArenaAllocator:
        arenas = allocator._arenas
        return (
            not allocator.stats.total_allocs and not any(allocator._mailboxes)
            and len(arenas) == allocator.arena_count
            and all(
                _fresh_free_list(arena, space)
                and (arena.policy, arena.pool_size) == (arenas[0].policy, arenas[0].pool_size)
                for arena in arenas
            )
        )
    return _fresh_free_list(allocator, space) or _fresh_size_class(allocator, space)


#: The kernel's name (:data:`~repro.columnar.kernel.PLACE_FAMILIES`) for
#: each allocator class it replicates.
_FAMILIES = {
    SizeClassAllocator: "size-class",
    GroupAllocator: "group",
    RandomPoolAllocator: "random-pools",
    FreeListAllocator: "free-list",
    ArenaAllocator: "arena",
}


def _class_tables(sized: SizeClassAllocator) -> tuple[np.ndarray, ...]:
    """The kernel's size-class table: class per ``(size + 7) >> 3``, and
    each class's region size, run capacity and run bytes."""
    index = {size: i for i, size in enumerate(sized._classes)}
    bins = [sized._bins[size] for size in sized._classes]
    return (
        np.array([index[size] for size in sized._class_table], dtype=np.int32),
        np.array([b.region_size for b in bins], dtype=np.int64),
        np.array([b.run_capacity for b in bins], dtype=np.int64),
        np.array([b.run_bytes for b in bins], dtype=np.int64),
    )


def _arena_column(cols, allocator: ArenaAllocator) -> tuple[np.ndarray, int]:
    """Each heap op's arena as ``set_thread`` routes it while the Python
    loop runs ``cols.segments(threaded=True)``, and the arena it ends on."""
    count = allocator.arena_count
    arenas = [allocator._thread] + [thread % count for *_, thread in cols.switches]
    starts = [0] + [mark[0] for mark in cols.switches] + [int(cols.heap[0].shape[0])]
    column = np.repeat(np.array(arenas, dtype=np.int32), np.diff(starts))
    return column, arenas[-1]


def _place_compiled(
    cols, allocator: Allocator, selectors: Optional[_Selectors], snap: int, out: _Placement,
) -> bool:
    """Place on the compiled replica (:func:`~repro.columnar.kernel.place`);
    False when it did not run.

    The allocators keep their counters (their parts' too) and the address
    space its cursor, reservations, chunk-header residency and RNG state,
    as the Python loop leaves them; free lists keep their free ranges and
    pools, arenas their mailboxes, bump pools their current region and
    random pools their generator.  Their block maps stay empty, so no
    allocator can be walked or freed into afterwards.
    """
    space = allocator.space
    name = _FAMILIES[type(allocator)]
    params = dict.fromkeys(kernel.PLACE_PARAMS, 0)
    params.update(
        family=kernel.PLACE_FAMILIES.index(name), snap=snap, objects=cols.allocs,
        cursor=space._cursor, reserved_bytes=space.reserved_bytes,
        peak_reserved_bytes=space.peak_reserved_bytes,
    )
    inputs: dict = {}
    # The family's size-class allocator, and its free lists.
    sized = lists = None
    if name in ("group", "random-pools"):
        sized = allocator.fallback
    elif name == "size-class":
        sized = allocator
    else:
        lists = allocator._arenas if name == "arena" else [allocator]
    if sized is not None:
        params.update(max_small=sized._max_small)
        inputs["classes"] = _class_tables(sized)
    if lists:
        params.update(
            subs=len(lists), pool_size=lists[0].pool_size,
            best_fit=int(lists[0].policy == "best-fit"),
        )
    if name == "arena":
        inputs["threads"], last_arena = _arena_column(cols, allocator)
    elif name == "random-pools":
        pools = allocator._pools
        params.update(
            subs=len(pools), pool_size=pools[0].pool_size,
            max_pooled_size=allocator.max_pooled_size,
        )
        inputs["choice_mt"] = list(allocator._rng.getstate()[1])
    elif name == "group":
        groups = list(dict.fromkeys(g for g in selectors.gids if g is not None))
        dense = {g: i for i, g in enumerate(groups)}
        gid = np.array([dense.get(g, -1) for g in selectors.gids], dtype=np.int32)
        inputs["gid"] = gid[selectors.column]
        inputs["colours"] = np.array([allocator._colour_of(g) for g in groups], dtype=np.int64)
        limit = allocator.max_total_chunks
        params.update(
            chunk_size=allocator.chunk_size, slab_size=allocator.slab_size,
            max_spare_chunks=allocator.max_spare_chunks,
            max_grouped_size=allocator.max_grouped_size,
            always_reuse_chunks=int(allocator.always_reuse_chunks),
            max_total_chunks=-1 if limit is None else limit,
        )
    version, mt, gauss = space._rng.getstate()
    placed = kernel.place(cols.heap, params, list(mt), **inputs)
    if placed is None:
        return False
    counters = placed.counters
    touched = np.array(sorted(space._touched_pages), dtype=np.int64)
    space._cursor = counters["cursor"]
    space.reserved_bytes = counters["reserved_bytes"]
    space.peak_reserved_bytes = counters["peak_reserved_bytes"]
    space._rng.setstate((version, tuple(placed.mt), gauss))
    reservations = placed.reservations.tolist()
    for base, size, live, _, _ in reservations:
        if live:
            space._reservations[base] = size
    space._touched_pages.update((placed.chunk_bases[placed.held_end] >> PAGE_SHIFT).tolist())
    if sized is not None:
        sized.stats = AllocatorStats(*placed.fallback_stats)
    if name in ("group", "random-pools", "arena"):
        allocator.stats = AllocatorStats(*placed.stats)
    if name == "group":
        for field in (
            "grouped_live_bytes", "grouped_allocs", "forwarded_allocs", "degraded_allocs",
            "chunks_created", "chunks_reused", "chunks_purged",
        ):
            setattr(allocator, field, counters[field])
    elif name == "random-pools":
        _write_back_pools(allocator, placed, reservations)
    elif lists:
        _write_back_lists(lists, placed, reservations)
        if name == "arena":
            allocator._thread = last_arena
            allocator.cross_thread_frees = counters["cross_thread_frees"]
            allocator.mailbox_flushes = counters["mailbox_flushes"]
            for sub, addr in placed.parked.tolist():
                allocator._mailboxes[sub].append(addr)
    out.bases = placed.bases.tolist()
    out.realloc_addrs = placed.realloc_addrs.tolist()
    out.moves = [tuple(move) for move in placed.moves.tolist()]
    if snap:
        chunk = allocator.chunk_size
        bases = placed.chunk_bases[:counters["peak_chunks"]]
        first, last = bases >> PAGE_SHIFT, (bases + chunk - 1) >> PAGE_SHIFT
        held = np.union1d(touched, first[placed.held_peak])
        resident = np.searchsorted(held, last, side="right") - np.searchsorted(held, first)
        frag = FragmentationSnapshot(
            live_bytes=counters["peak_live_bytes"],
            resident_bytes=int(resident.sum()) * PAGE_SIZE,
            high_water_bytes=counters["peak_high_water_bytes"],
        )
        purges = placed.purges[:counters["peak_purges"]].tolist()
        out.peak = _Peak(
            frag, counters["peak_ptr"], sorted(zip(first.tolist(), last.tolist())), held,
            [(ptr, base, chunk) for ptr, base in purges],
        )
    return True


def _write_back_pools(allocator: RandomPoolAllocator, placed, reservations: list) -> None:
    """The random pools' generator, and each bump pool's stats, regions
    and current region, as the Python loop leaves them."""
    version, _, gauss = allocator._rng.getstate()
    allocator._rng.setstate((version, tuple(placed.choice_mt), gauss))
    for pool, row in zip(allocator._pools, placed.subs.tolist()):
        pool.stats = AllocatorStats(*row[:5])
        for field, value in zip(kernel.PLACE_BUMP_FIELDS, row[5:]):
            setattr(pool, field, value)
    for base, _, _, owner, _ in reservations:
        if owner >= 0:
            allocator._pools[owner].pools.append(base)


def _write_back_lists(lists: list, placed, reservations: list) -> None:
    """Each free list's stats, counters, pools and free ranges (indexed
    for its fit policy), as the Python loop leaves them."""
    for free_list, row in zip(lists, placed.subs.tolist()):
        free_list.stats = AllocatorStats(*row[:5])
        for field, value in zip(kernel.PLACE_LIST_FIELDS, row[5:]):
            setattr(free_list, field, value)
    for base, _, _, owner, request in reservations:
        lists[owner]._pools.append((base, request))
    for sub, start, end in placed.ranges.tolist():
        free_list = lists[sub]
        free_list._starts.append(start)
        free_list._ends.append(end)
        free_list._index(start, end)


def _place_python(
    cols, machine: Machine, selectors: Optional[_Selectors], snap: int, out: _Placement
) -> None:
    """Place every heap op through the allocator's own Python methods.

    The path of allocators the kernel does not replicate (:func:`_compiled`),
    of fault-plan runs and of runs without the compiled library; the
    oracle the replicas are held to.  A grouped allocator's matcher is
    the selector stand-in and its space's purges are logged for the peak
    snapshot while the loop runs.
    Thread switches reach a thread-aware allocator between runs of ops.
    Like ``Machine``'s object table, the loop refuses a live address:
    no placement may return one and no realloc may move onto one (the
    same :class:`HeapError` messages).
    """
    allocator = machine.allocator
    grouped = selectors is not None
    purges: list[tuple[int, int, int]] = []
    ptr = 0
    if grouped:
        next_key = iter(selectors.keys).__next__
        states = selectors.states
        vector = machine.state_vector
        space = allocator.space
        purge = space.purge

        def log_purge(base: int, size: int) -> None:
            purges.append((ptr, base, size))  # ptr: the heap op being placed
            purge(base, size)

        allocator.matcher = selectors
        space.purge = log_purge
    al_malloc, al_free, al_realloc = allocator.malloc, allocator.free, allocator.realloc
    set_thread = getattr(allocator, "set_thread", None)
    bases, moves, realloc_addrs = out.bases, out.moves, out.realloc_addrs
    cur: list[int] = []
    live: set[int] = set()
    try:
        for thread, ops in cols.segments(threaded=set_thread is not None):
            if thread is not None:
                set_thread(thread)
            for op, a, b, ptr in ops:
                if op == OP_FREE:
                    live.remove(cur[a])
                    al_free(cur[a])
                    continue
                if grouped:
                    selectors.key = key = next_key()
                    vector.value = states[key]
                if op == OP_ALLOC:
                    addr = al_malloc(a)
                    if addr in live:
                        raise HeapError(f"allocator returned in-use address {addr:#x}")
                    live.add(addr)
                    cur.append(addr)
                    bases.append(addr)
                    if len(bases) == snap:
                        out.peak = _Peak.of(allocator, ptr, purges)
                else:  # OP_REALLOC
                    old = cur[a]
                    new = al_realloc(old, b)
                    realloc_addrs.append(new)
                    if new != old:
                        if new in live:
                            raise HeapError(f"realloc target {new:#x} is in use")
                        live.remove(old)
                        live.add(new)
                        cur[a] = new
                        moves.append((ptr, a, new))
    finally:
        if grouped:
            allocator.matcher = selectors.matcher
            del space.purge


def place_heap_ops(
    trace: EventTrace, program: Program, allocator: Allocator,
    instrumentation: Optional[dict[int, int]] = None,
) -> list[int]:
    """Place *trace*'s heap ops on the caller's *allocator*, in use or not.

    The Python loop of the placement pass (:func:`_place_python`), with
    no peak snapshot: how a ``halo serve`` request, recorded unplaced,
    lands on the service's shared heap.  A grouped allocator matches
    through the selector keys of *instrumentation* and its own state
    vector, which the loop leaves at the last op's state.  Returns each
    object's final address, by oid.
    """
    cols = trace.columns()
    machine = Machine(
        program, allocator, instrumentation=instrumentation,
        state_vector=getattr(allocator, "state_vector", None),
    )
    selectors = _Selectors(cols, machine) if isinstance(allocator, GroupAllocator) else None
    out = _Placement()
    _place_python(cols, machine, selectors, 0, out)
    final = out.bases
    for _, oid, addr in out.moves:
        final[oid] = addr
    return final


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
    the trace's columns, the machine, the placement (with the peak
    snapshot of a grouped allocator), and the absolute address of every
    access.  The machine's allocator reports the placement's end-state
    counters (``stats``, ``observable_stats()``) and its address space
    the end-state cursor and reservations; it is not a walkable heap, so
    nothing may free into it or walk its blocks afterwards.
    """
    cols = trace.columns()
    # run_measurement's construction order (factory, machine, attach), so
    # holder-based runtime factories (halo, hds, calder) wire up alike.
    machine = Machine(
        program, make_allocator(AddressSpace(seed)),
        instrumentation=instrumentation, state_vector=state_vector,
    )
    if attach is not None:
        attach(machine)
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
    simulation to :func:`measure_columnar`, but no page residency (the
    fragmentation snapshot is not reported) and no ``measure.*``
    publication — scoring candidates must not perturb the service's own
    metrics.  Scores are comparable across calls with the
    same trace, seed, cost model, and hierarchy geometry.
    """
    cost_model = cost_model or CostModel()
    hconfig = hierarchy_config or HierarchyConfig()
    cols, _, placement, addr = place_trace(
        workload.program, make_allocator, trace, seed, instrumentation, state_vector, attach
    )
    with obs.span("columnar.hierarchy"):
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
    peak = placement.peak
    with obs.span("columnar.hierarchy"):
        cache, pages, page_starts = simulate_hierarchy(
            addr, cols.acc_size, hconfig, residency=peak is not None
        )
    frag: Optional[FragmentationSnapshot] = None
    if peak is not None:
        with obs.span("columnar.residency"):
            frag = peak.fragmentation(pages, page_starts)
        del pages, page_starts

    metrics = _metrics(cols, placement.toggles)
    if obs.active_registry() is not None:
        _publish_measurement_metrics(
            workload.name, config, metrics, cache, allocator, placement.peak_live,
            sharing=_false_sharing(cols, placement, addr),
        )
        if placement.keys:
            obs.inc("columnar.selector.keys", placement.keys, workload=workload.name, config=config)
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

"""HALO's specialised group allocator (paper Section 4.4, Figure 11).

Memory is reserved from the OS in large demand-paged *slabs*, managed in
smaller group-specific *chunks* from which regions are bump-allocated:

* on a grouped allocation, a region is reserved from the group's 'current'
  chunk by bump allocation — no per-object headers, ≥8-byte alignment —
  guaranteeing contiguity between consecutive grouped allocations;
* when the current chunk is exhausted (or the group has none), a new chunk
  is carved from the current slab; when the slab is exhausted, a new slab is
  reserved;
* chunks are aligned to their size, so ``free`` locates a chunk header from
  a region pointer with bitwise operations alone; the header's
  ``live_regions`` count is decremented and the chunk is reclaimed when it
  reaches zero, either kept as a spare for reuse or purged;
* requests that match no group selector, or exceed the maximum grouped
  object size (page size), are forwarded to the next available allocator —
  the paper uses ``dlsym`` chaining; here the fallback is an explicit
  allocator object.

The artefact appendix's per-benchmark quirks are supported directly:
``chunk_size`` and ``max_spare_chunks`` are constructor parameters, and
``always_reuse_chunks`` reproduces the omnetpp/xalanc limitation where
"group chunks are always reused".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from ..faults.plan import active_fault_plan
from .base import (
    AllocationError,
    Allocator,
    AddressSpace,
    MIN_ALIGNMENT,
    PAGE_SIZE,
    align_up,
)


class GroupMatcher(Protocol):
    """Decides group membership from the group-state vector (Section 4.3).

    ``match`` must depend only on *state* and, for a matcher with a
    ``machine`` attribute, on that machine's live call stack: the
    columnar engine calls it once per distinct (state, stack) and reuses
    the answer for every allocation with the same pair.
    """

    def match(self, state: int) -> Optional[int]:
        """Return the matching group id for state-vector value *state*."""
        ...


class _Chunk:
    """A size-aligned chunk serving one group by bump allocation."""

    #: Bytes reserved at the chunk base for the header (live_regions etc.).
    HEADER_SIZE = 64

    __slots__ = ("base", "size", "group", "cursor", "live_regions", "high_water", "colour")

    def __init__(self, base: int, size: int, group: int, colour: int = 0) -> None:
        self.base = base
        self.size = size
        self.group = group
        self.colour = colour
        self.cursor = base + self.HEADER_SIZE + colour
        self.live_regions = 0
        self.high_water = self.cursor

    def try_reserve(self, size: int, alignment: int) -> Optional[int]:
        """Bump-allocate *size* bytes, or None if the chunk is too full."""
        addr = align_up(self.cursor, alignment)
        if addr + size > self.base + self.size:
            return None
        self.cursor = addr + size
        if self.cursor > self.high_water:
            self.high_water = self.cursor
        self.live_regions += 1
        return addr

    def reset(self, group: int, colour: int = 0) -> None:
        """Recycle this chunk for *group* (spare-chunk reuse)."""
        self.group = group
        self.colour = colour
        self.cursor = self.base + self.HEADER_SIZE + colour
        self.live_regions = 0
        # The high-water mark belongs to the previous tenant; carrying it
        # across a reuse misattributes its bump footprint to the new group
        # (and breaks the cursor/high-water coherence the sanitizer checks).
        self.high_water = self.cursor


@dataclass
class MigrationReport:
    """Outcome of one :meth:`GroupAllocator.migrate_groups` call.

    Attributes:
        moved_regions: Live regions relocated into their new group's pool.
        moved_bytes: Sum of the moved regions' sizes.
        aborted: True when the abort hook fired mid-migration; the heap is
            left exactly as it was before the call (copies were discarded).
        forwarding: old address -> new address for every moved region.
            Callers holding raw addresses (the serving daemon's retained-
            object table) must rewrite them through this map.
    """

    moved_regions: int = 0
    moved_bytes: int = 0
    aborted: bool = False
    forwarding: dict[int, int] = field(default_factory=dict)


@dataclass
class FragmentationSnapshot:
    """Live-vs-resident accounting of grouped data (paper Table 1)."""

    live_bytes: int
    resident_bytes: int
    #: Sum of per-chunk bump high-water footprints (bytes past each chunk
    #: header the cursor ever reached).  Bounded by ``resident_bytes`` modulo
    #: page rounding; a reused spare carrying a stale high-water mark from
    #: its previous tenant shows up here as over-reporting.
    high_water_bytes: int = 0

    @property
    def wasted_bytes(self) -> int:
        return max(0, self.resident_bytes - self.live_bytes)

    @property
    def fraction(self) -> float:
        """Fraction of resident grouped memory that is not live."""
        if self.resident_bytes <= 0:
            return 0.0
        return self.wasted_bytes / self.resident_bytes


class GroupAllocator(Allocator):
    """The specialised runtime allocator HALO synthesises.

    Args:
        space: Shared simulated address space.
        fallback: The "next available allocator" — ungrouped requests are
            forwarded here (jemalloc in the paper's evaluation).
        matcher: Selector evaluator; consulted with the current state-vector
            value on every small allocation.
        state_vector: The shared :class:`~repro.machine.machine.GroupStateVector`
            the rewritten binary toggles.
        chunk_size: Chunk size in bytes (power of two; paper default 1 MiB).
        slab_size: Slab reservation size (amortises mmap costs).
        max_spare_chunks: Empty chunks retained for reuse before purging
            dirty pages (paper default 1).
        max_grouped_size: Requests at or above this size bypass grouping
            (paper: the page size).
        always_reuse_chunks: Never purge empty chunks; always keep them for
            reuse (the omnetpp/xalanc configuration).
        colour_stride: When positive, each group's chunks start their bump
            cursor at a group-specific offset (``group * stride mod page``).
            Chunks are size-aligned, so without colouring every group's hot
            prefix lands on the same cache sets; staggering the starts is
            the §4.4 extension "to reduce allocator-induced conflict
            misses" (Afek, Dice & Morrison's cache-index-aware allocation).
        max_total_chunks: Cap on chunks the allocator may ever carve.  Once
            reached (and no spare is reusable), grouped requests degrade to
            the fallback allocator instead of failing — the paper's "next
            available allocator" semantics under pool exhaustion.  None
            means unbounded (the production default).
    """

    def __init__(
        self,
        space: AddressSpace,
        fallback: Allocator,
        matcher: GroupMatcher,
        state_vector,
        chunk_size: int = 1 << 20,
        slab_size: int = 16 << 20,
        max_spare_chunks: int = 1,
        max_grouped_size: int = PAGE_SIZE,
        always_reuse_chunks: bool = False,
        colour_stride: int = 0,
        max_total_chunks: Optional[int] = None,
    ) -> None:
        super().__init__(space)
        if chunk_size <= 0 or chunk_size & (chunk_size - 1):
            raise AllocationError(f"chunk size must be a power of two, got {chunk_size}")
        if slab_size < chunk_size:
            raise AllocationError(
                f"slab size {slab_size} smaller than chunk size {chunk_size}"
            )
        self.fallback = fallback
        self.matcher = matcher
        self.state_vector = state_vector
        self.chunk_size = chunk_size
        self.slab_size = align_up(slab_size, chunk_size)
        self.max_spare_chunks = max_spare_chunks
        self.max_grouped_size = max_grouped_size
        self.always_reuse_chunks = always_reuse_chunks
        self.max_total_chunks = max_total_chunks
        if colour_stride < 0 or colour_stride % MIN_ALIGNMENT:
            raise AllocationError(
                f"colour stride must be a non-negative multiple of "
                f"{MIN_ALIGNMENT}, got {colour_stride}"
            )
        self.colour_stride = colour_stride

        self._chunks: dict[int, _Chunk] = {}  # chunk base -> chunk
        self._current: dict[int, _Chunk] = {}  # group id -> current chunk
        self._spares: list[_Chunk] = []
        self._slab_cursor = 0
        self._slab_end = 0
        self._region_sizes: dict[int, int] = {}  # grouped region addr -> size
        self._chunk_mask = ~(chunk_size - 1)

        # Statistics for Table 1 and the evaluation harness.
        self.grouped_live_bytes = 0
        self.grouped_allocs = 0
        self.forwarded_allocs = 0
        #: Grouped requests served by the fallback because the group's
        #: pool was exhausted (nonzero only under capacity pressure).
        self.degraded_allocs = 0
        #: Allocations whose selector consult saw a fault-flipped state
        #: vector (misprediction modelling; nonzero only under injection).
        self.faulted_matches = 0
        self.chunks_created = 0
        self.chunks_reused = 0
        self.chunks_purged = 0
        #: Live-layout migration totals (the serving daemon's hot swaps).
        self.migrated_regions = 0
        self.migrated_bytes = 0

    # -- allocation -----------------------------------------------------------

    def malloc(self, size: int, alignment: int = MIN_ALIGNMENT) -> int:
        if size <= 0:
            raise AllocationError(f"invalid malloc size {size}")
        group = None
        if size < self.max_grouped_size:
            state = self.state_vector.value
            plan = active_fault_plan()
            if plan is not None and plan.state_flip_rate:
                flipped = plan.flip_state(
                    state, self.grouped_allocs + self.forwarded_allocs
                )
                if flipped != state:
                    self.faulted_matches += 1
                    state = flipped
            group = self.matcher.match(state)
        if group is None:
            self.forwarded_allocs += 1
            return self.fallback.malloc(size, alignment)
        return self._group_malloc(group, size, max(alignment, MIN_ALIGNMENT))

    def _group_malloc(self, group: int, size: int, alignment: int) -> int:
        chunk = self._current.get(group)
        addr = chunk.try_reserve(size, alignment) if chunk is not None else None
        if addr is None:
            if chunk is not None and chunk.live_regions == 0:
                # free() skips retirement while a chunk is current; if the
                # displaced chunk already drained we must retire it here,
                # otherwise it is orphaned — never reused, never purged.
                del self._current[group]
                self._retire(chunk)
            chunk = self._fresh_chunk(group)
            if chunk is None:
                # Pool exhausted: degrade to the "next available allocator"
                # (paper allocation semantics) instead of failing the request.
                return self._degrade(size, alignment)
            self._current[group] = chunk
            addr = chunk.try_reserve(size, alignment)
            if addr is None:
                # A request too large even for an empty chunk (colouring or
                # header overhead can push a near-page object past the end).
                return self._degrade(size, alignment)
        self._region_sizes[addr] = size
        self.grouped_live_bytes += size
        self.grouped_allocs += 1
        self.stats.on_alloc(size)
        # Bump allocation hands out the region; the program will touch it.
        # The chunk header itself is written at carve time (residency).
        return addr

    def _degrade(self, size: int, alignment: int) -> int:
        """Serve a grouped request through the fallback (pool exhausted)."""
        self.degraded_allocs += 1
        self.forwarded_allocs += 1
        return self.fallback.malloc(size, alignment)

    def _chunk_budget(self) -> Optional[int]:
        """The effective chunk cap: configured limit and/or injected fault."""
        limit = self.max_total_chunks
        plan = active_fault_plan()
        if plan is not None and plan.group_max_chunks is not None:
            limit = (
                plan.group_max_chunks
                if limit is None
                else min(limit, plan.group_max_chunks)
            )
        return limit

    def _colour_of(self, group: int) -> int:
        """Per-group bump-start stagger (0 when colouring is disabled)."""
        if not self.colour_stride:
            return 0
        return (group * self.colour_stride) % PAGE_SIZE

    #: Concrete chunk type this allocator carves and recycles.  Subclasses
    #: with richer chunks (the sharded variant's free-list shards) override
    #: this so every path — fresh carve, spare reuse, migration refill —
    #: produces chunks of the right type.
    _chunk_class: type[_Chunk] = _Chunk

    def _fresh_chunk(self, group: int) -> Optional[_Chunk]:
        """Carve (or recycle) a chunk for *group*; None when exhausted."""
        if self._spares:
            chunk = self._spares.pop()
            if type(chunk) is not self._chunk_class:
                # A spare carved by a different layer (base-class migration /
                # place_region over a subclass, or vice versa) is rebuilt as
                # this allocator's chunk type before reuse: the spare is
                # empty, so only its identity (base, size) carries over.
                rebuilt = self._chunk_class(chunk.base, chunk.size, group)
                self._chunks[chunk.base] = rebuilt
                chunk = rebuilt
            chunk.reset(group, self._colour_of(group))
            self.chunks_reused += 1
            self.space.touch_range(chunk.base, _Chunk.HEADER_SIZE)
            return chunk
        limit = self._chunk_budget()
        if limit is not None and self.chunks_created >= limit:
            return None
        if self._slab_cursor + self.chunk_size > self._slab_end:
            base = self.space.reserve(self.slab_size, alignment=self.chunk_size)
            self._slab_cursor = base
            self._slab_end = base + self.slab_size
        base = self._slab_cursor
        self._slab_cursor += self.chunk_size
        chunk = self._chunk_class(base, self.chunk_size, group, self._colour_of(group))
        self._chunks[base] = chunk
        self.chunks_created += 1
        self.space.touch_range(base, _Chunk.HEADER_SIZE)
        return chunk

    # -- deallocation ------------------------------------------------------------

    def free(self, addr: int) -> int:
        chunk = self._chunk_of(addr)
        if chunk is None:
            return self.fallback.free(addr)
        size = self._region_sizes.pop(addr, None)
        if size is None:
            raise AllocationError(f"group free of unknown region {addr:#x}")
        chunk.live_regions -= 1
        self.grouped_live_bytes -= size
        self.stats.on_free(size)
        if chunk.live_regions == 0 and self._current.get(chunk.group) is not chunk:
            self._retire(chunk)
        return size

    def _chunk_of(self, addr: int) -> Optional[_Chunk]:
        """Locate a region's chunk via address masking (the header trick)."""
        return self._chunks.get(addr & self._chunk_mask)

    def _retire(self, chunk: _Chunk) -> None:
        """An emptied chunk becomes a spare or has its dirty pages purged."""
        if self.always_reuse_chunks or len(self._spares) < self.max_spare_chunks:
            self._spares.append(chunk)
            return
        # Purge dirty pages: the reservation stays (it belongs to a slab)
        # but resident pages are returned to the OS.
        self.space.purge(chunk.base, chunk.size)
        self.chunks_purged += 1
        self._spares.append(chunk)  # purged chunks remain reusable

    def size_of(self, addr: int) -> int:
        size = self._region_sizes.get(addr)
        if size is None:
            return self.fallback.size_of(addr)
        return size

    # -- live-layout migration ----------------------------------------------

    def group_of(self, addr: int) -> Optional[int]:
        """Group id of the chunk holding *addr* (None for fallback regions)."""
        chunk = self._chunk_of(addr)
        return None if chunk is None else chunk.group

    def place_region(
        self, group: Optional[int], size: int, alignment: int = MIN_ALIGNMENT
    ) -> int:
        """Place a region directly into *group*'s pool, bypassing the matcher.

        The state-restore and migration paths use this to rebuild or move a
        known layout: ``group=None`` (and any over-large request) routes to
        the fallback, exactly like an unmatched ``malloc``.  Pool exhaustion
        degrades to the fallback per the usual semantics — the returned
        address is always valid.
        """
        if size <= 0:
            raise AllocationError(f"invalid region size {size}")
        if group is None or size >= self.max_grouped_size:
            self.forwarded_allocs += 1
            return self.fallback.malloc(size, alignment)
        return self._group_malloc(group, size, max(alignment, MIN_ALIGNMENT))

    def migrate_groups(
        self,
        regroup: Callable[[int], Optional[int]],
        should_abort: Optional[Callable[[int], bool]] = None,
    ) -> MigrationReport:
        """Relocate live grouped regions under a new group assignment.

        *regroup* maps a region's current group id to its new group id (or
        None / the same id to leave the region in place).  Relocation is
        two-phase so a mid-migration failure can never tear the heap:

        1. **copy** — each moving region is bump-allocated into its new
           group's pool (the data copy is modelled as a page touch).  Before
           every copy the optional *should_abort* hook is consulted with the
           step index; if it fires, every copy made so far is freed and the
           report comes back ``aborted`` with the original layout intact.
        2. **commit** — only after every copy landed are the old regions
           freed and the forwarding map published.

        Emptied source chunks retire through the normal spare/purge path, so
        the sanitizer invariants hold at every step.
        """
        plan_moves: list[tuple[int, int, int]] = []
        for addr in sorted(self._region_sizes):
            chunk = self._chunk_of(addr)
            if chunk is None:
                continue
            target = regroup(chunk.group)
            if target is None or target == chunk.group:
                continue
            plan_moves.append((addr, self._region_sizes[addr], target))

        copies: list[int] = []
        for step, (addr, size, target) in enumerate(plan_moves):
            if should_abort is not None and should_abort(step):
                # Roll back: discard the copies; source regions were never
                # touched, so the incumbent layout is exactly as before.
                for new_addr in copies:
                    self.free(new_addr)
                return MigrationReport(aborted=True)
            new_addr = self.place_region(target, size)
            self.space.touch_range(new_addr, size)  # the migration memcpy
            copies.append(new_addr)

        report = MigrationReport()
        for (addr, size, _), new_addr in zip(plan_moves, copies):
            self.free(addr)
            report.forwarding[addr] = new_addr
            report.moved_regions += 1
            report.moved_bytes += size
        self.migrated_regions += report.moved_regions
        self.migrated_bytes += report.moved_bytes
        return report

    def realloc(self, addr: int, new_size: int) -> int:
        chunk = self._chunk_of(addr)
        if chunk is None and addr not in self._region_sizes:
            return self.fallback.realloc(addr, new_size)
        old_size = self.size_of(addr)
        if new_size <= old_size:
            # Shrink in place — but the recorded size must follow, or a later
            # free() credits back the stale larger size and live-byte
            # accounting drifts negative.
            self._region_sizes[addr] = new_size
            self.grouped_live_bytes -= old_size - new_size
            self.stats.on_resize(old_size, new_size)
            return addr
        new_addr = self.malloc(new_size)
        self.free(addr)
        return new_addr

    # -- accounting ---------------------------------------------------------------

    def observable_stats(self) -> dict[str, int]:
        """Base counters plus grouping/degradation/chunk-churn detail."""
        stats = super().observable_stats()
        stats.update(
            grouped_allocs=self.grouped_allocs,
            forwarded_allocs=self.forwarded_allocs,
            degraded_allocs=self.degraded_allocs,
            faulted_matches=self.faulted_matches,
            chunks_created=self.chunks_created,
            chunks_reused=self.chunks_reused,
            chunks_purged=self.chunks_purged,
            migrated_regions=self.migrated_regions,
            migrated_bytes=self.migrated_bytes,
        )
        return stats

    def fragmentation(self) -> FragmentationSnapshot:
        """Current live-vs-resident relationship of grouped data (Table 1)."""
        resident = 0
        high_water = 0
        for chunk in self._chunks.values():
            resident += self.space.resident_bytes_in(chunk.base, chunk.size)
            high_water += chunk.high_water - (chunk.base + _Chunk.HEADER_SIZE)
        return FragmentationSnapshot(
            live_bytes=self.grouped_live_bytes,
            resident_bytes=resident,
            high_water_bytes=high_water,
        )

    @property
    def total_live_bytes(self) -> int:
        """Live bytes across grouped data and the fallback allocator."""
        return self.grouped_live_bytes + self.fallback.stats.live_bytes

    def iter_live_regions(self):
        yield from self._region_sizes.items()
        yield from self.fallback.iter_live_regions()

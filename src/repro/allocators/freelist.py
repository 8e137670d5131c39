"""Coalescing free-list allocator: the classic first-fit/best-fit baseline.

The paper's evaluation compares HALO against a single size-segregated
baseline (jemalloc's placement policy).  Real allocator design space is
wider: the oldest family — dlmalloc's ancestors — keeps freed memory on an
*address-ordered free list*, coalesces adjacent free ranges on free, and
carves requests out of the first (or best) fitting range.  This module
implements that family as a third placement policy for the evaluation
matrix:

* free memory is a sorted list of disjoint, fully-coalesced address
  ranges; a free that touches a neighbouring range merges with it
  immediately (boundary coalescing), so fragmentation here is *external*
  (scattered ranges) rather than the group allocator's internal kind;
* **first-fit** carves the lowest-addressed range that can serve the
  request — the policy dlmalloc calls "address-ordered best bet",
  favouring low addresses and long-lived range reuse; a max-length tree
  over the address-ordered ranges (:class:`_FirstFitIndex`) descends to
  the leftmost range long enough, and on to the next one when an
  alignment gap makes it too short;
* **best-fit** picks the fitting range with the least leftover slack
  (ties to the lowest address), for tighter packing; a length-ordered
  index of the free ranges finds it by bisection, walking up past ranges
  that an alignment gap makes too short;
* carving is alignment-aware: the returned address is aligned up inside
  the chosen range and any leading gap stays on the free list;
* ``realloc`` is real: shrinks release the tail in place, grows extend
  into an adjacent free range when one follows, and only move as a last
  resort.

Backing memory comes from the shared :class:`AddressSpace` in fixed-size
pools; requests too large for a standard pool get a dedicated reservation
sized to fit.  The allocator records *requested* sizes for ``size_of`` /
``free`` (shadow-heap compatible) and tracks the carved extent separately.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator, Optional

from .base import (
    AllocationError,
    Allocator,
    AddressSpace,
    MIN_ALIGNMENT,
    PAGE_SIZE,
    align_up,
)

#: Placement policies this family implements.
POLICIES = ("first-fit", "best-fit")


class _FirstFitIndex:
    """The free ranges in address order, with a max-length tree on top.

    Ranges live in blocks of at most ``2 * BLOCK`` entries (parallel
    ``starts``/``lengths`` lists, ascending by start); a segment tree over
    the blocks holds each block's longest range, so "the lowest start of
    a range at least *n* long" is one descent plus a scan of one block.
    Adding or removing a range touches one block and one tree path; only
    a block split or an emptied block rebuilds the tree.
    """

    BLOCK = 32

    def __init__(self) -> None:
        self._starts: list[list[int]] = []
        self._lengths: list[list[int]] = []
        #: First start of each block, for bisecting to a block.
        self._heads: list[int] = []
        self._tree: list[int] = [0, 0]
        self._leaves = 1

    def _rebuild(self) -> None:
        leaves = 1
        while leaves < len(self._lengths):
            leaves *= 2
        tree = [0] * leaves + [max(block) for block in self._lengths]
        tree += [0] * (2 * leaves - len(tree))
        for node in range(leaves - 1, 0, -1):
            tree[node] = max(tree[2 * node], tree[2 * node + 1])
        self._tree, self._leaves = tree, leaves

    def _set_max(self, block: int, longest: int) -> None:
        tree = self._tree
        node = block + self._leaves
        tree[node] = longest
        node >>= 1
        while node:
            longest = max(tree[2 * node], tree[2 * node + 1])
            if tree[node] == longest:
                return
            tree[node] = longest
            node >>= 1

    def add(self, start: int, length: int) -> None:
        """Index the free range ``[start, start + length)``."""
        if not self._heads:
            self._starts.append([start])
            self._lengths.append([length])
            self._heads.append(start)
            self._rebuild()
            return
        block = max(bisect_right(self._heads, start) - 1, 0)
        starts, lengths = self._starts[block], self._lengths[block]
        at = bisect_left(starts, start)
        starts.insert(at, start)
        lengths.insert(at, length)
        if at == 0:
            self._heads[block] = start
        if len(starts) > 2 * self.BLOCK:
            half = self.BLOCK
            self._starts[block + 1:block + 1] = [starts[half:]]
            self._lengths[block + 1:block + 1] = [lengths[half:]]
            self._heads.insert(block + 1, starts[half])
            del starts[half:], lengths[half:]
            self._rebuild()
        elif length > self._tree[block + self._leaves]:
            self._set_max(block, length)

    def remove(self, start: int, length: int) -> None:
        """Drop the free range ``[start, start + length)``."""
        block = bisect_right(self._heads, start) - 1
        starts, lengths = self._starts[block], self._lengths[block]
        at = bisect_left(starts, start)
        del starts[at], lengths[at]
        if not starts:
            del self._starts[block], self._lengths[block], self._heads[block]
            self._rebuild()
            return
        if at == 0:
            self._heads[block] = starts[0]
        if length == self._tree[block + self._leaves]:
            self._set_max(block, max(lengths))

    def first_fit(self, extent: int, alignment: int) -> tuple[int, int]:
        """``(start, aligned addr)`` of the lowest range that fits, or (-1, 0)."""
        tree, leaves = self._tree, self._leaves
        node = leaves  # the leftmost block
        while True:
            # Climb to the next subtree holding a range at least `extent`
            # long, then descend to its leftmost such block.
            while tree[node] < extent:
                while node & 1:
                    node >>= 1
                if not node:
                    return -1, 0
                node += 1
            while node < leaves:
                node = 2 * node if tree[2 * node] >= extent else 2 * node + 1
            block = node - leaves
            for start, length in zip(self._starts[block], self._lengths[block]):
                if length >= extent:
                    addr = align_up(start, alignment)
                    if addr + extent <= start + length:
                        return start, addr
            # An alignment gap failed every long-enough range here.
            while node & 1:
                node >>= 1
            if not node:
                return -1, 0
            node += 1


class FreeListAllocator(Allocator):
    """Address-ordered coalescing free-list allocator.

    Args:
        space: Shared simulated address space.
        policy: ``"first-fit"`` or ``"best-fit"`` range selection.
        pool_size: Bytes reserved from the address space per pool; a
            request whose extent exceeds the pool payload gets a dedicated
            pool sized to fit.
    """

    def __init__(
        self,
        space: AddressSpace,
        policy: str = "first-fit",
        pool_size: int = 1 << 20,
    ) -> None:
        super().__init__(space)
        if policy not in POLICIES:
            raise AllocationError(
                f"unknown free-list policy {policy!r}; expected one of {POLICIES}"
            )
        if pool_size < PAGE_SIZE:
            raise AllocationError(f"pool size must be at least a page, got {pool_size}")
        self.policy = policy
        self.pool_size = pool_size
        # Disjoint, fully-coalesced free ranges in ascending address order.
        # Parallel lists keep bisect simple and the common paths allocation-free.
        self._starts: list[int] = []
        self._ends: list[int] = []
        # Best fit's index: every free range as (length, start), ascending;
        # first fit's: the ranges by start under a max-length tree.
        self._by_length: Optional[list[tuple[int, int]]] = None
        self._fit_index: Optional[_FirstFitIndex] = None
        if policy == "best-fit":
            self._by_length = []
        else:
            self._fit_index = _FirstFitIndex()
        # Live bookkeeping: requested size (what size_of/free report) and
        # carved extent (what actually returns to the free list).
        self._sizes: dict[int, int] = {}
        self._extents: dict[int, int] = {}
        # Pool reservations as (base, size), in reservation order.
        self._pools: list[tuple[int, int]] = []
        #: Free operations that merged with at least one neighbouring range.
        self.coalesced_frees = 0
        #: In-place realloc outcomes (shrink-in-place or grow-into-neighbour).
        self.inplace_reallocs = 0
        #: Reallocs that had to move the block.
        self.moved_reallocs = 0

    # -- free-range bookkeeping -----------------------------------------

    def _index(self, start: int, end: int) -> None:
        """Add the free range [start, end) to the policy's index."""
        if self._by_length is not None:
            insort(self._by_length, (end - start, start))
        else:
            self._fit_index.add(start, end - start)

    def _unindex(self, start: int, end: int) -> None:
        """Drop the free range [start, end) from the policy's index."""
        by_length = self._by_length
        if by_length is not None:
            del by_length[bisect_left(by_length, (end - start, start))]
        else:
            self._fit_index.remove(start, end - start)

    def _insert_range(self, start: int, end: int) -> None:
        """Insert [start, end) into the free list, coalescing neighbours."""
        index = bisect_right(self._starts, start)
        merged = False
        # Merge with the preceding range when it ends exactly at `start`.
        if index > 0 and self._ends[index - 1] == start:
            index -= 1
            self._unindex(self._starts[index], start)
            self._ends[index] = end
            merged = True
        else:
            self._starts.insert(index, start)
            self._ends.insert(index, end)
        # Merge with the following range when it starts exactly at `end`.
        if index + 1 < len(self._starts) and self._starts[index + 1] == end:
            self._unindex(end, self._ends[index + 1])
            self._ends[index] = self._ends[index + 1]
            del self._starts[index + 1]
            del self._ends[index + 1]
            merged = True
        self._index(self._starts[index], self._ends[index])
        if merged:
            self.coalesced_frees += 1

    def _carve(self, index: int, addr: int, extent: int) -> None:
        """Remove [addr, addr+extent) from the range at *index*."""
        start, end = self._starts[index], self._ends[index]
        lead = addr - start
        tail = end - (addr + extent)
        self._unindex(start, end)
        if lead:
            self._index(start, addr)
        if tail:
            self._index(addr + extent, end)
        if lead and tail:
            # Split: keep the lead in place, insert the tail after it.
            self._ends[index] = start + lead
            self._starts.insert(index + 1, addr + extent)
            self._ends.insert(index + 1, end)
        elif lead:
            self._ends[index] = start + lead
        elif tail:
            self._starts[index] = addr + extent
        else:
            del self._starts[index]
            del self._ends[index]

    def _grow_pool(self, extent: int, alignment: int) -> None:
        """Reserve a new pool able to serve an *extent*-byte aligned request."""
        # Worst case the aligned address slides by (alignment - 1) into the
        # pool, so over-reserve accordingly for large aligned requests.
        need = extent + (alignment - PAGE_SIZE if alignment > PAGE_SIZE else 0)
        size = max(self.pool_size, align_up(need, PAGE_SIZE))
        base = self.space.reserve(size)
        self._pools.append((base, size))
        self._insert_range(base, base + size)

    def _find_fit(self, extent: int, alignment: int) -> tuple[int, int]:
        """Locate ``(index, aligned addr)`` of the range to carve, or (-1, 0)."""
        starts = self._starts
        if self._by_length is not None:
            # Best fit: the least slack is the shortest range that fits once
            # aligned, and the lowest start breaks ties.  The index is
            # ordered by exactly that, so the first fitting entry from the
            # shortest long-enough range is the answer.
            by_length = self._by_length
            for at in range(bisect_left(by_length, (extent, -1)), len(by_length)):
                length, start = by_length[at]
                addr = align_up(start, alignment)
                if addr + extent <= start + length:
                    return bisect_left(starts, start), addr
            return -1, 0
        start, addr = self._fit_index.first_fit(extent, alignment)
        if start < 0:
            return -1, 0
        return bisect_left(starts, start), addr

    # -- the allocator interface ----------------------------------------

    def malloc(self, size: int, alignment: int = MIN_ALIGNMENT) -> int:
        if size <= 0:
            raise AllocationError(f"invalid malloc size {size}")
        alignment = max(alignment, MIN_ALIGNMENT)
        extent = align_up(size, MIN_ALIGNMENT)
        index, addr = self._find_fit(extent, alignment)
        if index < 0:
            self._grow_pool(extent, alignment)
            index, addr = self._find_fit(extent, alignment)
            if index < 0:  # pragma: no cover - pool sized to fit above
                raise AllocationError(f"request of {size} bytes cannot fit a pool")
        self._carve(index, addr, extent)
        self._sizes[addr] = size
        self._extents[addr] = extent
        self.stats.on_alloc(size)
        return addr

    def free(self, addr: int) -> int:
        size = self._sizes.pop(addr, None)
        if size is None:
            raise AllocationError(f"free of unknown address {addr:#x}")
        extent = self._extents.pop(addr)
        self._insert_range(addr, addr + extent)
        self.stats.on_free(size)
        return size

    def size_of(self, addr: int) -> int:
        size = self._sizes.get(addr)
        if size is None:
            raise AllocationError(f"size_of unknown address {addr:#x}")
        return size

    def realloc(self, addr: int, new_size: int) -> int:
        old_size = self._sizes.get(addr)
        if old_size is None:
            raise AllocationError(f"realloc of unknown address {addr:#x}")
        if new_size <= 0:
            raise AllocationError(f"invalid realloc size {new_size}")
        extent = self._extents[addr]
        new_extent = align_up(new_size, MIN_ALIGNMENT)
        if new_extent <= extent:
            # Shrink in place; the freed tail coalesces back immediately.
            if new_extent < extent:
                self._insert_range(addr + new_extent, addr + extent)
                self._extents[addr] = new_extent
            self._sizes[addr] = new_size
            self.stats.on_resize(old_size, new_size)
            self.inplace_reallocs += 1
            return addr
        # Grow: extend into the free range starting exactly at our end.
        tail = addr + extent
        index = bisect_right(self._starts, tail) - 1
        if (
            0 <= index < len(self._starts)
            and self._starts[index] == tail
            and self._ends[index] - tail >= new_extent - extent
        ):
            self._carve(index, tail, new_extent - extent)
            self._extents[addr] = new_extent
            self._sizes[addr] = new_size
            self.stats.on_resize(old_size, new_size)
            self.inplace_reallocs += 1
            return addr
        new_addr = self.malloc(new_size)
        self.free(addr)
        self.moved_reallocs += 1
        return new_addr

    # -- introspection ---------------------------------------------------

    def iter_live_regions(self) -> Iterator[tuple[int, int]]:
        yield from self._sizes.items()

    def iter_free_ranges(self) -> Iterator[tuple[int, int]]:
        """Yield ``(start, end)`` for every free range (sanitizer hook)."""
        yield from zip(self._starts, self._ends)

    def observable_stats(self) -> dict[str, int]:
        stats = super().observable_stats()
        stats.update(
            coalesced_frees=self.coalesced_frees,
            inplace_reallocs=self.inplace_reallocs,
            moved_reallocs=self.moved_reallocs,
            free_ranges=len(self._starts),
            pools=len(self._pools),
        )
        return stats


__all__ = ["FreeListAllocator", "POLICIES"]

"""The free-list allocator's fit indexes against the range scans they replaced.

``FreeListAllocator`` keeps its free ranges in address order and, beside
them, one index per policy: best fit a ``(length, start)`` list, first
fit a max-length tree over the ranges by start.  The scans below are the
allocator's former ``_find_fit``, kept here as the oracle: on any
malloc/free/realloc stream, both must hand out the same addresses and
leave the same free ranges, and the index must always hold exactly the
free ranges.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.allocators import AddressSpace, FreeListAllocator
from repro.allocators.base import MIN_ALIGNMENT, PAGE_SIZE, align_up
from repro.allocators.freelist import _FirstFitIndex


class ScanFreeList(FreeListAllocator):
    """Fit by scanning every range: first fit takes the lowest range that
    fits once aligned, best fit the lowest with the least slack."""

    def _find_fit(self, extent: int, alignment: int) -> tuple[int, int]:
        starts, ends = self._starts, self._ends
        if self.policy == "first-fit":
            for index in range(len(starts)):
                addr = align_up(starts[index], alignment)
                if addr + extent <= ends[index]:
                    return index, addr
            return -1, 0
        best_index, best_addr, best_slack = -1, 0, 0
        for index in range(len(starts)):
            addr = align_up(starts[index], alignment)
            if addr + extent > ends[index]:
                continue
            slack = (ends[index] - starts[index]) - extent
            if best_index < 0 or slack < best_slack:
                best_index, best_addr, best_slack = index, addr, slack
        return best_index, best_addr


class TinyBlocks(_FirstFitIndex):
    """Blocks of at most two ranges, so short streams split and empty them."""

    BLOCK = 1


def _ranges(allocator: FreeListAllocator) -> list[tuple[int, int]]:
    return list(allocator.iter_free_ranges())


def _check_index(allocator: FreeListAllocator) -> None:
    if allocator.policy == "best-fit":
        expected = sorted((end - start, start) for start, end in allocator.iter_free_ranges())
        assert allocator._by_length == expected
        return
    index = allocator._fit_index
    flat = [
        (start, start + length)
        for starts, lengths in zip(index._starts, index._lengths)
        for start, length in zip(starts, lengths)
    ]
    assert flat == _ranges(allocator)
    assert index._heads == [starts[0] for starts in index._starts]
    assert all(0 < len(starts) <= 2 * index.BLOCK for starts in index._starts)
    tree, leaves = index._tree, index._leaves
    assert tree[leaves:leaves + len(index._lengths)] == [max(b) for b in index._lengths]
    assert not any(tree[leaves + len(index._lengths):])
    for node in range(1, leaves):
        assert tree[node] == max(tree[2 * node], tree[2 * node + 1])


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("malloc"),
            st.integers(1, 3 * PAGE_SIZE),
            st.sampled_from([MIN_ALIGNMENT, MIN_ALIGNMENT, 16, 64, PAGE_SIZE]),
        ),
        st.tuples(st.just("free"), st.integers(0, 1 << 16)),
        st.tuples(st.just("realloc"), st.integers(0, 1 << 16), st.integers(1, 3 * PAGE_SIZE)),
    ),
    max_size=120,
)


def _run_against_scan(ops, policy: str, pool: int, seed: int, tiny_blocks: bool = False) -> None:
    index = FreeListAllocator(AddressSpace(seed), policy=policy, pool_size=pool)
    if tiny_blocks:
        index._fit_index = TinyBlocks()
    scan = ScanFreeList(AddressSpace(seed), policy=policy, pool_size=pool)
    live: list[int] = []
    for op in ops:
        if op[0] == "malloc":
            addr = index.malloc(op[1], op[2])
            assert scan.malloc(op[1], op[2]) == addr
            live.append(addr)
        elif live:
            at = op[1] % len(live)
            if op[0] == "free":
                addr = live.pop(at)
                assert index.free(addr) == scan.free(addr)
            else:
                old = live[at]
                live[at] = index.realloc(old, op[2])
                assert scan.realloc(old, op[2]) == live[at]
        assert _ranges(index) == _ranges(scan)
        _check_index(index)
    assert index.observable_stats() == scan.observable_stats()


@settings(max_examples=200, deadline=None)
@given(ops=_ops, pool=st.sampled_from([PAGE_SIZE, 4 * PAGE_SIZE]), seed=st.integers(0, 3))
def test_index_places_like_the_scan(ops, pool, seed):
    _run_against_scan(ops, "best-fit", pool, seed)


@settings(max_examples=200, deadline=None)
@given(
    ops=_ops,
    pool=st.sampled_from([PAGE_SIZE, 4 * PAGE_SIZE]),
    seed=st.integers(0, 3),
    tiny_blocks=st.booleans(),
)
def test_first_fit_tree_places_like_the_scan(ops, pool, seed, tiny_blocks):
    """Alignments 8, 16, 64 and a page, with the default blocks and with
    two-range blocks (which split and empty within a short stream)."""
    _run_against_scan(ops, "first-fit", pool, seed, tiny_blocks)


class TestFreeRanges:
    """Explicit carving, coalescing and alignment cases, addresses relative
    to the first pool's base."""

    def make(self) -> FreeListAllocator:
        return FreeListAllocator(AddressSpace(0), policy="best-fit", pool_size=PAGE_SIZE)

    @staticmethod
    def free_ranges(allocator: FreeListAllocator, base: int) -> set[tuple[int, int]]:
        _check_index(allocator)
        return {(start - base, end - base) for start, end in allocator.iter_free_ranges()}

    def test_free_coalesces_neighbours(self):
        a = self.make()
        blocks = [a.malloc(64) for _ in range(4)]
        base = blocks[0]
        assert self.free_ranges(a, base) == {(256, 4096)}
        a.free(blocks[0])
        assert self.free_ranges(a, base) == {(0, 64), (256, 4096)}
        a.free(blocks[2])
        assert self.free_ranges(a, base) == {(0, 64), (128, 192), (256, 4096)}
        a.free(blocks[1])
        assert self.free_ranges(a, base) == {(0, 192), (256, 4096)}
        a.free(blocks[3])
        assert self.free_ranges(a, base) == {(0, 4096)}

    def test_best_fit_takes_the_shortest_then_the_lowest(self):
        a = self.make()
        blocks = [a.malloc(64) for _ in range(8)]
        base = blocks[0]
        for i in (1, 3, 5, 6):
            a.free(blocks[i])
        assert self.free_ranges(a, base) == {(64, 128), (192, 256), (320, 448), (512, 4096)}
        assert a.malloc(64) - base == 64
        assert a.malloc(72) - base == 320
        assert self.free_ranges(a, base) == {(192, 256), (392, 448), (512, 4096)}

    def test_alignment_keeps_the_lead_free(self):
        a = self.make()
        base = a.malloc(8)
        assert a.malloc(64, alignment=256) - base == 256
        assert self.free_ranges(a, base) == {(8, 256), (320, 4096)}
        assert a.malloc(200) - base == 8
        assert self.free_ranges(a, base) == {(208, 256), (320, 4096)}

    def test_aligned_best_fit_walks_past_a_short_range(self):
        a = self.make()
        blocks = [a.malloc(64) for _ in range(8)]
        base = blocks[0]
        for i in (1, 4, 5):
            a.free(blocks[i])
        assert self.free_ranges(a, base) == {(64, 128), (256, 384), (512, 4096)}
        # (64, 128) is the shortest range but aligning to 128 leaves it no
        # room; the next length up fits at its own start.
        assert a.malloc(64, alignment=128) - base == 256
        assert self.free_ranges(a, base) == {(64, 128), (320, 384), (512, 4096)}

    def test_first_fit_takes_the_lowest_long_enough_range(self):
        a = FreeListAllocator(AddressSpace(0), policy="first-fit", pool_size=PAGE_SIZE)
        a._fit_index = TinyBlocks()
        blocks = [a.malloc(64) for _ in range(8)]
        base = blocks[0]
        for i in (1, 3, 5, 6):
            a.free(blocks[i])
        assert self.free_ranges(a, base) == {(64, 128), (192, 256), (320, 448), (512, 4096)}
        assert a.malloc(72) - base == 320
        assert a.malloc(64) - base == 64
        assert self.free_ranges(a, base) == {(192, 256), (392, 448), (512, 4096)}

    def test_aligned_first_fit_walks_past_a_short_range(self):
        a = FreeListAllocator(AddressSpace(0), policy="first-fit", pool_size=PAGE_SIZE)
        a._fit_index = TinyBlocks()
        blocks = [a.malloc(64) for _ in range(8)]
        base = blocks[0]
        for i in (4, 5, 1):  # this order leaves (64, 128) alone in a block
            a.free(blocks[i])
        assert self.free_ranges(a, base) == {(64, 128), (256, 384), (512, 4096)}
        assert a._fit_index._starts[0] == [base + 64]
        # (64, 128) is long enough but aligning to 128 leaves it no room;
        # the search goes on to the next block's range, not to a new pool.
        assert a.malloc(64, alignment=128) - base == 256
        assert self.free_ranges(a, base) == {(64, 128), (320, 384), (512, 4096)}
        assert len(a._pools) == 1

    def test_realloc_shrinks_and_grows_in_place(self):
        a = self.make()
        base = a.malloc(256)
        a.malloc(8)  # a neighbour, so the shrunk tail is its own range
        assert a.realloc(base, 100) == base
        assert self.free_ranges(a, base) == {(104, 256), (264, 4096)}
        assert a.realloc(base, 200) == base
        assert self.free_ranges(a, base) == {(200, 256), (264, 4096)}

    def test_a_new_pool_coalesces_with_the_old_tail(self):
        a = self.make()
        base = a.malloc(4000)
        assert self.free_ranges(a, base) == {(4000, 4096)}
        other = a.malloc(200)
        # Seed 0 reserves the second pool with no jitter, right after the
        # first, so its range merges with the 96-byte tail before the carve.
        assert [pool - base for pool, _ in a._pools] == [0, 4096]
        assert other - base == 4000
        assert self.free_ranges(a, base) == {(4200, 8192)}

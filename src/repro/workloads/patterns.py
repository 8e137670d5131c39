"""Reusable allocation/access building blocks for the synthetic benchmarks.

Every pattern here corresponds to a heap-behaviour idiom the paper calls
out: interleaved allocation of hot and cold objects that a size-segregated
allocator co-locates by accident (Figure 1), linked traversals whose
locality depends on placement (Figure 2), and paired-structure sweeps.

A nested chain of call sites (outermost first) is one scope,
``with machine.call(*sites):``, which enters every site and unwinds them
innermost first; :func:`alloc_through` allocates inside one.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..machine.heap import HeapObject
from ..machine.machine import Machine
from ..machine.program import CallSite


def alloc_through(machine: Machine, sites: Sequence[CallSite], size: int) -> HeapObject:
    """Allocate *size* bytes with the call stack threaded through *sites*."""
    with machine.call(*sites):
        return machine.malloc(size)


def chase_list(
    machine: Machine,
    objects: Sequence[HeapObject],
    loads_per_object: int = 2,
    work: float = 1.0,
    store_every: int = 0,
) -> None:
    """Pointer-chase over *objects* in order (the Figure 2 access loop).

    Each visit loads ``loads_per_object`` fields (8-byte words at distinct
    offsets) and charges ``work`` compute cycles per access.  When
    ``store_every`` is positive, every n-th object also receives a store.
    """
    for index, obj in enumerate(objects):
        span = max(1, obj.size // 8)
        for field in range(loads_per_object):
            machine.load(obj, (field % span) * 8, 8)
        if store_every and index % store_every == 0:
            machine.store(obj, 0, 8)
        machine.work(work * (loads_per_object + (1 if store_every and index % store_every == 0 else 0)))


def chase_pairs(
    machine: Machine,
    pairs: Sequence[tuple[HeapObject, HeapObject]],
    work: float = 1.0,
) -> None:
    """Alternate accesses over (left, right) pairs — cell→payload chasing."""
    for left, right in pairs:
        machine.load(left, 0, 8)
        machine.load(right, 0, 8)
        right_span = max(1, right.size // 8)
        machine.load(right, (right_span - 1) * 8, 8)
        machine.work(work * 3)


def sweep_arrays(
    machine: Machine,
    arrays: Sequence[HeapObject],
    element_size: int = 8,
    work: float = 1.0,
) -> None:
    """Stream sequentially through each array in turn (roms-style sweeps)."""
    for array in arrays:
        for offset in range(0, array.size, element_size):
            machine.load(array, offset, element_size)
        machine.work(work * (array.size // element_size))


def free_all(machine: Machine, objects: Sequence[HeapObject]) -> None:
    """Free every live object in *objects*."""
    for obj in objects:
        if obj.alive:
            machine.free(obj)


def partial_shuffle(items: list, fraction: float, rng: random.Random) -> list:
    """Return a copy of *items* with ``fraction * len`` random transpositions.

    Models data structures whose traversal order is *mostly* allocation
    order with some churn (list reordering, priority changes) — the regime
    where a size-segregated allocator's incidental locality is good but
    imperfect.  ``fraction=0`` is allocation order; large fractions approach
    a full shuffle.
    """
    if not 0.0 <= fraction:
        raise ValueError(f"fraction must be >= 0, got {fraction}")
    out = list(items)
    swaps = int(len(out) * fraction)
    for _ in range(swaps):
        i = rng.randrange(len(out))
        j = rng.randrange(len(out))
        out[i], out[j] = out[j], out[i]
    return out


def burst_plan(
    rng: random.Random, spec: Sequence[tuple[str, int, int]]
) -> list[str]:
    """Build an allocation plan of labels interleaved in bursts.

    *spec* entries are ``(label, total, burst)``: the label appears *total*
    times overall, in contiguous bursts of *burst* (programs allocate
    related objects in runs — per-phase loops — not one at a time).  Bursts
    from different labels are interleaved with :func:`interleave`.
    """
    chunk_lists = []
    for label, total, burst in spec:
        if burst <= 0:
            raise ValueError(f"burst must be positive, got {burst} for {label!r}")
        chunks = []
        remaining = total
        while remaining > 0:
            take = min(burst, remaining)
            chunks.append([label] * take)
            remaining -= take
        chunk_lists.append(chunks)
    plan: list[str] = []
    for chunk in interleave(rng, *chunk_lists):
        plan.extend(chunk)
    return plan


def interleave(rng: random.Random, *sequences: Sequence) -> list:
    """Deterministically interleave several sequences into one allocation order.

    Preserves each sequence's internal order but shuffles between sequences,
    weighting by remaining length — the adversarial "related data scattered
    by allocation order" setting of the paper's Figure 1/3(a).
    """
    iters = [list(seq) for seq in sequences]
    positions = [0] * len(iters)
    out = []
    remaining = sum(len(seq) for seq in iters)
    while remaining:
        weights = [len(seq) - pos for seq, pos in zip(iters, positions)]
        choice = rng.choices(range(len(iters)), weights=weights)[0]
        out.append(iters[choice][positions[choice]])
        positions[choice] += 1
        remaining -= 1
    return out

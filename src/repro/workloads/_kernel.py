"""Shared allocate/chase kernel for the direct-allocation benchmarks.

The six programs the paper takes from prior work (health, ft, analyzer,
ammp, art, equake) share a heap-behaviour skeleton: a hot linked structure
(nodes plus satellite cells) allocated interleaved with colder data of the
same size classes, then chased repeatedly.  This module factors that
skeleton so each workload file only declares its program shape (call-site
chains) and its knobs (sizes, counts, pollution fraction, compute
intensity).

The knobs map onto the locality mechanisms the paper describes:

* ``pollution`` objects share size classes with the hot structure but come
  from their own call sites — the baseline co-locates them with hot data by
  allocation order; both HDS and HALO exclude them;
* ``shared_cold`` items are allocated through the *same* sites as hot items
  but on a colder call path — only HALO's full-context identification can
  separate these (small for the prior-work programs, which is exactly why
  hot-data streams performed well on them);
* satellite ``cells`` live in a different size class than their node, so
  pooling fuses a traversal that otherwise touches two runs;
* a large shared ``table`` adds placement-independent traffic and acts as a
  stream terminator for the HDS trace abstraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..machine.heap import HeapObject
from ..machine.machine import Machine
from ..machine.program import CallSite
from .patterns import burst_plan, free_all, partial_shuffle


@dataclass
class StructureSpec:
    """One allocation kind: a node plus its satellite cells."""

    label: str
    count: int
    node_size: int
    node_chain: Sequence[CallSite]
    cells: int = 0
    cell_size: int = 0
    cell_chain: Sequence[CallSite] = ()
    burst: int = 1


@dataclass
class ChaseSpec:
    """How one kind is traversed."""

    label: str
    passes: int
    node_loads: int = 2
    shuffle: float = 0.05
    table_every: int = 4


Item = tuple[HeapObject, list[HeapObject]]


def allocate_structures(
    machine: Machine, rng: random.Random, specs: Sequence[StructureSpec]
) -> dict[str, list[Item]]:
    """Allocate all kinds in a burst-interleaved order; returns per-label items."""
    plan = burst_plan(rng, [(s.label, s.count, s.burst) for s in specs])
    by_label = {s.label: s for s in specs}
    out: dict[str, list[Item]] = {s.label: [] for s in specs}
    for label in plan:
        spec = by_label[label]
        with machine.call(*spec.node_chain):
            node = machine.malloc(spec.node_size)
        machine.store(node, 0, 8)
        cells: list[HeapObject] = []
        for _ in range(spec.cells):
            with machine.call(*spec.cell_chain):
                cell = machine.malloc(spec.cell_size)
            machine.store(cell, 0, 8)
            cells.append(cell)
        out[label].append((node, cells))
    return out


def chase_structures(
    machine: Machine,
    items: Sequence[Item],
    chase: ChaseSpec,
    work_per_access: float,
    rng: random.Random,
    table: Optional[HeapObject] = None,
) -> None:
    """Chase *items* for ``chase.passes`` passes in a mostly-ordered walk."""
    order = partial_shuffle(list(items), chase.shuffle, rng)
    table_lines = table.size // 64 if table is not None else 0
    for _ in range(chase.passes):
        for index, (node, cells) in enumerate(order):
            # Cell and node accesses alternate (follow the link, read the
            # payload, next link...) — the access shape that makes the
            # cross-context affinity dominate the self-loop weights.
            span = max(1, node.size // 8)
            for slot, cell in enumerate(cells):
                machine.load(cell, 0, 8)
                machine.load(node, (slot * 3 % span) * 8, 8)
            for load in range(len(cells), chase.node_loads):
                machine.load(node, (load * 3 % span) * 8, 8)
            if table is not None and index % chase.table_every == 0:
                machine.load(table, rng.randrange(table_lines) * 64, 8)
            machine.work(
                work_per_access * (len(cells) + max(len(cells), chase.node_loads) + 1)
            )


def release_structures(machine: Machine, groups: dict[str, list[Item]]) -> None:
    """Free every node and cell."""
    for items in groups.values():
        for node, cells in items:
            free_all(machine, [node] + cells)

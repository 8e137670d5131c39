"""Byte-address access traces for cache-geometry what-if studies.

This is the *placement-dependent* view of an execution: a flat array of
(absolute address, size) pairs, replayable through any number of cache
geometries without re-running anything — the tool behind the §5.2
cache-pressure analysis ("on less sophisticated machines, the observed
speedups may be significantly larger").

It complements the placement-*independent* event trace of
:mod:`repro.trace.format`: an :class:`AccessTrace` can be captured live
(attach an :class:`AccessTraceRecorder`) or derived from a recorded event
trace plus an allocator configuration via :func:`derive_access_trace` —
one event recording concretises into a different address trace per
allocator, which is exactly the placement-vs-behaviour split the paper's
offline/online boundary rests on.

Both directions reuse the columnar engine: derivation is its placement
pass plus the address gather (:func:`~repro.columnar.engine.place_trace`),
and :meth:`AccessTrace.replay` is its filter chain
(:func:`~repro.columnar.engine.simulate_hierarchy`).  The live recorder
stays as the oracle derivation is tested against.  Traces are stored as
flat numpy arrays, so a ref-scale run costs a few MiB.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..cache.hierarchy import HierarchyConfig, HierarchyStats
from ..machine.events import Listener
from ..machine.machine import Machine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.program import Program
    from .format import EventTrace


class AccessTraceRecorder(Listener):
    """Listener recording every heap access as (address, size)."""

    def __init__(self) -> None:
        self._addresses: list[int] = []
        self._sizes: list[int] = []

    def on_access(self, machine: Machine, obj, offset: int, size: int, is_store: bool) -> None:
        """Append the access's absolute address and byte size."""
        self._addresses.append(obj.addr + offset)
        self._sizes.append(size)

    def trace(self) -> "AccessTrace":
        """Freeze the recording into an immutable trace."""
        return AccessTrace(
            np.asarray(self._addresses, dtype=np.int64),
            np.asarray(self._sizes, dtype=np.int32),
        )

    def __len__(self) -> int:
        return len(self._addresses)


class AccessTrace:
    """An immutable byte-level access trace."""

    def __init__(self, addresses: np.ndarray, sizes: np.ndarray) -> None:
        if addresses.shape != sizes.shape:
            raise ValueError("addresses and sizes must have equal length")
        self.addresses = addresses
        self.sizes = sizes

    def __len__(self) -> int:
        return int(self.addresses.shape[0])

    def replay(self, config: HierarchyConfig | None = None) -> HierarchyStats:
        """Drive a fresh hierarchy with this trace and return its counters.

        Runs the columnar filter chain
        (:func:`~repro.columnar.engine.simulate_hierarchy`), bit-identical
        to feeding each access to :meth:`CacheHierarchy.access`.
        """
        from ..columnar.engine import simulate_hierarchy

        stats, _, _ = simulate_hierarchy(
            self.addresses, self.sizes, config or HierarchyConfig(), residency=False
        )
        return stats


def derive_access_trace(
    trace: "EventTrace",
    program: "Program",
    make_allocator=None,
    seed: int = 0,
) -> AccessTrace:
    """Concretise an event trace into a byte-address trace.

    Places the placement-independent event stream's heap operations on a
    real allocator (default: the jemalloc-like size-class baseline) with
    the columnar placement pass, so every access gains an absolute
    address.  Different allocator factories or seeds yield different
    address traces from the same recording.
    """
    from ..allocators.size_class import SizeClassAllocator
    from ..columnar.engine import place_trace

    cols, _, _, addresses = place_trace(program, make_allocator or SizeClassAllocator, trace, seed)
    return AccessTrace(addresses, cols.acc_size.astype(np.int32))

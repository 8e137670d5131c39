"""Compact binary machine-event trace format.

A trace captures the *complete* event stream of one workload execution at
the machine-API level — calls, returns, allocations, reallocations, frees,
heap accesses, and compute-cycle accounting — which is exactly the
information the Pin tool of the paper extracts from a live process
(Section 4.1).  Because the simulated workloads are deterministic given
``(name, scale)`` and never observe heap addresses, one recorded trace
re-drives the profiler, the HDS pipeline, and any allocator/cache
configuration without re-interpreting the workload program, the same way
BOLT-style pipelines decouple one-time profile collection from many
optimisation passes.

Wire format
-----------

The container is ``MAGIC | header-length (u32 LE) | header JSON | flags |
body``.  The header carries workload identity and per-opcode event counts
(written at close, so ``trace info`` never decodes the body).  The body is
a zlib-compressed stream of varint/delta-encoded events:

* integers use LEB128 (unsigned) or zigzag-LEB128 (signed deltas);
* ``CALL`` encodes the site address as a delta against the previous call's
  address (call sites cluster tightly in the synthetic text segment);
* object ids in ``LOAD``/``STORE``/``FREE``/``REALLOC`` are deltas against
  the most recently referenced object id; ``ALLOC`` omits the id entirely —
  ids are assigned sequentially from zero, mirroring the machine's
  :class:`~repro.machine.heap.ObjectTable`;
* ``WORK`` cycles are a varint when integral, a raw little-endian float64
  otherwise, preserving bit-identical ``compute_cycles`` on replay.

Format v2 adds a CRC32 of the (compressed) body to the header, so a
truncated or bit-flipped trace file is detected as a
:class:`TraceFormatError` at its first decode instead of being decoded
into garbage events.  v1 containers (no checksum) remain readable.

Format v3 adds simulated-thread switches (``Machine.set_thread``, driven by
the multi-tenant mix scheduler) as a sparse *switch table* of
``(event index, thread)`` pairs: the thread becomes current just before
the event at that index.  Switches are not events — they do not count
toward ``header.events`` and leave the event stream of a single-threaded
workload untouched — and only actual changes of thread are stored.  The
table (LEB128 pairs, the index delta-encoded) sits between the flags byte
and the body; ``header.switch_bytes`` gives its length, and the CRC32
covers table and body together.  v1 and v2 containers read as traces
without switches.

A ref-scale run costs a few MiB compressed.
"""

from __future__ import annotations

import io
import json
from array import array
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from itertools import chain, islice
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence, Union

from ..faults.plan import active_fault_plan

MAGIC = b"HALOTRC1"
FORMAT_VERSION = 3

#: Container versions this reader understands (v1 predates the body CRC,
#: v2 the thread-switch table).
SUPPORTED_FORMATS = (1, 2, 3)

#: Body-encoding flag: zlib-compressed event stream.
FLAG_ZLIB = 0x01

# Event opcodes (wire values; also the tags of decoded event tuples).
OP_CALL = 0
OP_RETURN = 1
OP_ALLOC = 2
OP_FREE = 3
OP_REALLOC = 4
OP_LOAD = 5
OP_STORE = 6
OP_WORK = 7       # integral cycles, varint-encoded
OP_WORK_F64 = 8   # non-integral cycles, raw float64 (decoded as OP_WORK)
OP_END = 9

_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

#: Flush the raw event buffer into the compressor at this size.
_FLUSH_THRESHOLD = 1 << 16


class TraceFormatError(Exception):
    """Raised for malformed or unsupported trace containers."""


@dataclass
class TraceHeader:
    """Identity and summary statistics of one recorded execution.

    The counts are per-opcode event totals; ``alloc_bytes`` sums requested
    allocation sizes and ``access_bytes`` sums load/store widths, giving
    ``trace info`` a footprint summary without decoding the body.
    """

    workload: str = ""
    scale: str = "test"
    seed: int = 0
    program: str = ""
    format: int = FORMAT_VERSION
    events: int = 0
    calls: int = 0
    allocs: int = 0
    frees: int = 0
    reallocs: int = 0
    loads: int = 0
    stores: int = 0
    works: int = 0
    alloc_bytes: int = 0
    access_bytes: int = 0
    #: Thread switches in the switch table, and the table's encoded size.
    switches: int = 0
    switch_bytes: int = 0
    #: CRC32 of the stored switch table and (compressed) body; None on v1
    #: traces and on hand-built headers, which skips verification.
    crc32: Optional[int] = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical JSON form written into the container."""
        payload = {k: v for k, v in self.__dict__.items()}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "TraceHeader":
        """Parse a header from its container JSON."""
        data = json.loads(text)
        header = TraceHeader()
        for key, value in data.items():
            if hasattr(header, key):
                setattr(header, key, value)
        return header


def encode_uvarint(value: int) -> bytes:
    """LEB128-encode a non-negative integer (helper for tests/tools)."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_switches(switches: Sequence[tuple[int, int]]) -> bytes:
    """Encode a switch table: per entry, the event-index delta and the thread."""
    out = bytearray()
    last = 0
    for position, thread in switches:
        out += encode_uvarint(position - last)
        out += encode_uvarint(thread)
        last = position
    return bytes(out)


def decode_switches(table: bytes) -> tuple[tuple[int, int], ...]:
    """Inverse of :func:`encode_switches`."""
    values: list[int] = []
    value = shift = 0
    for byte in table:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            continue
        values.append(value)
        value = shift = 0
    if shift or len(values) % 2:
        raise TraceFormatError("truncated thread-switch table")
    switches = []
    position = 0
    for delta, thread in zip(values[::2], values[1::2]):
        position += delta
        switches.append((position, thread))
    return tuple(switches)


def zigzag(value: int) -> int:
    """Map a signed integer to the unsigned zigzag domain."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


class TraceWriter:
    """Streaming encoder for one machine-event stream.

    Events are appended through the ``call``/``ret``/``alloc``/... methods
    (typically by :class:`~repro.trace.record.TraceRecorder`), encoded
    incrementally into a zlib compressor, and finalised by :meth:`close`
    into an :class:`EventTrace`.  Memory stays bounded by the compressed
    size, so ref-scale recordings do not hold the raw stream.
    """

    def __init__(
        self,
        workload: str = "",
        scale: str = "test",
        seed: int = 0,
        program: str = "",
    ) -> None:
        self.header = TraceHeader(
            workload=workload, scale=scale, seed=seed, program=program
        )
        self._buffer = bytearray()
        self._compressor = zlib.compressobj(6)
        self._chunks: list[bytes] = []
        self._last_call_addr = 0
        self._last_oid = 0
        self._next_oid = 0
        self._switches: list[tuple[int, int]] = []
        self._closed = False
        self._trace: Optional[EventTrace] = None

    # -- low-level emit ----------------------------------------------------

    def _emit_uvarint(self, value: int) -> None:
        buffer = self._buffer
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                buffer.append(byte | 0x80)
            else:
                buffer.append(byte)
                break

    def _maybe_flush(self) -> None:
        if len(self._buffer) >= _FLUSH_THRESHOLD:
            self._chunks.append(self._compressor.compress(bytes(self._buffer)))
            self._buffer.clear()

    # -- event emitters ----------------------------------------------------

    def call(self, site_addr: int) -> None:
        """Record control entering the call site at *site_addr*."""
        self._buffer.append(OP_CALL)
        self._emit_uvarint(zigzag(site_addr - self._last_call_addr))
        self._last_call_addr = site_addr
        header = self.header
        header.events += 1
        header.calls += 1
        self._maybe_flush()

    def ret(self) -> None:
        """Record control returning past the innermost recorded call."""
        self._buffer.append(OP_RETURN)
        self.header.events += 1
        self._maybe_flush()

    def alloc(self, size: int) -> int:
        """Record an allocation of *size* bytes; returns its implicit oid."""
        self._buffer.append(OP_ALLOC)
        self._emit_uvarint(size)
        oid = self._next_oid
        self._next_oid = oid + 1
        self._last_oid = oid
        header = self.header
        header.events += 1
        header.allocs += 1
        header.alloc_bytes += size
        self._maybe_flush()
        return oid

    def free(self, oid: int) -> None:
        """Record the free of object *oid*."""
        self._buffer.append(OP_FREE)
        self._emit_uvarint(zigzag(oid - self._last_oid))
        self._last_oid = oid
        header = self.header
        header.events += 1
        header.frees += 1
        self._maybe_flush()

    def realloc(self, oid: int, new_size: int) -> None:
        """Record the reallocation of object *oid* to *new_size* bytes."""
        self._buffer.append(OP_REALLOC)
        self._emit_uvarint(zigzag(oid - self._last_oid))
        self._emit_uvarint(new_size)
        self._last_oid = oid
        header = self.header
        header.events += 1
        header.reallocs += 1
        self._maybe_flush()

    def access(self, oid: int, offset: int, size: int, is_store: bool) -> None:
        """Record a load or store of *size* bytes at *offset* in *oid*."""
        buffer = self._buffer
        buffer.append(OP_STORE if is_store else OP_LOAD)
        delta = oid - self._last_oid
        self._last_oid = oid
        self._emit_uvarint((delta << 1) if delta >= 0 else ((-delta << 1) - 1))
        self._emit_uvarint(offset)
        self._emit_uvarint(size)
        header = self.header
        header.events += 1
        if is_store:
            header.stores += 1
        else:
            header.loads += 1
        header.access_bytes += size
        if len(buffer) >= _FLUSH_THRESHOLD:
            self._chunks.append(self._compressor.compress(bytes(buffer)))
            buffer.clear()

    def work(self, cycles: float) -> None:
        """Record *cycles* of non-memory compute."""
        as_int = int(cycles)
        if as_int == cycles and 0 <= as_int < (1 << 53):
            self._buffer.append(OP_WORK)
            self._emit_uvarint(as_int)
        else:
            self._buffer.append(OP_WORK_F64)
            self._buffer.extend(_F64.pack(cycles))
        header = self.header
        header.events += 1
        header.works += 1
        self._maybe_flush()

    def end(self) -> None:
        """Record the end-of-run marker (the machine's ``finish``)."""
        self._buffer.append(OP_END)
        self.header.events += 1

    def thread(self, thread_id: int) -> None:
        """Record a switch to simulated thread *thread_id* before the next event.

        Only changes are stored: switches with no event in between collapse
        into the last one, and a switch to the current thread is dropped
        (every consumer of ``set_thread`` is idempotent).
        """
        position = self.header.events
        switches = self._switches
        if switches and switches[-1][0] == position:
            switches.pop()
        current = switches[-1][1] if switches else 0
        if thread_id != current:
            switches.append((position, thread_id))

    # -- finalisation ------------------------------------------------------

    def close(self) -> "EventTrace":
        """Finalise the stream and return the completed trace (idempotent).

        Stamps the header with the CRC32 of the switch table and the
        compressed body, so every write path downstream of the writer can
        detect truncation and bit-flips.
        """
        if not self._closed:
            if self._buffer:
                self._chunks.append(self._compressor.compress(bytes(self._buffer)))
                self._buffer.clear()
            self._chunks.append(self._compressor.flush())
            self._closed = True
            body = b"".join(self._chunks)
            table = encode_switches(self._switches)
            self.header.switches = len(self._switches)
            self.header.switch_bytes = len(table)
            self.header.crc32 = zlib.crc32(body, zlib.crc32(table))
            self._trace = EventTrace(self.header, body, switch_table=table)
            self._chunks.clear()
        assert self._trace is not None
        return self._trace


def _decode_into(
    data: Union[bytes, bytearray, memoryview],
    pos: int,
    end: int,
    out: list,
    state: list,
) -> int:
    """Decode complete events from ``data[pos:end]`` into *out*.

    *state* is the mutable ``[last_call_addr, last_oid, next_oid]`` decoder
    state, updated in place.  Returns the offset one past the last *fully*
    decoded event; a trailing partial event (possible when streaming
    chunk-by-chunk) is left for the next call.
    """
    last_addr, last_oid, next_oid = state
    append = out.append
    good = pos
    try:
        while pos < end:
            op = data[pos]
            pos += 1
            if op == OP_LOAD or op == OP_STORE:
                result = data[pos]
                pos += 1
                if result & 0x80:
                    result &= 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        result |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                last_oid += (result >> 1) if not result & 1 else -((result + 1) >> 1)
                offset = data[pos]
                pos += 1
                if offset & 0x80:
                    offset &= 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        offset |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                size = data[pos]
                pos += 1
                if size & 0x80:
                    size &= 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        size |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                append((op, last_oid, offset, size))
            elif op == OP_CALL:
                result = 0
                shift = 0
                while True:
                    byte = data[pos]
                    pos += 1
                    result |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                last_addr += (result >> 1) if not result & 1 else -((result + 1) >> 1)
                append((OP_CALL, last_addr))
            elif op == OP_RETURN:
                append(_RETURN_EVENT)
            elif op == OP_WORK:
                result = 0
                shift = 0
                while True:
                    byte = data[pos]
                    pos += 1
                    result |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                append((OP_WORK, float(result)))
            elif op == OP_ALLOC:
                result = 0
                shift = 0
                while True:
                    byte = data[pos]
                    pos += 1
                    result |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                last_oid = next_oid
                next_oid += 1
                append((OP_ALLOC, result))
            elif op == OP_FREE:
                result = 0
                shift = 0
                while True:
                    byte = data[pos]
                    pos += 1
                    result |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                last_oid += (result >> 1) if not result & 1 else -((result + 1) >> 1)
                append((OP_FREE, last_oid))
            elif op == OP_REALLOC:
                result = 0
                shift = 0
                while True:
                    byte = data[pos]
                    pos += 1
                    result |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                last_oid += (result >> 1) if not result & 1 else -((result + 1) >> 1)
                result = 0
                shift = 0
                while True:
                    byte = data[pos]
                    pos += 1
                    result |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                append((OP_REALLOC, last_oid, result))
            elif op == OP_WORK_F64:
                if pos + 8 > end:
                    raise IndexError("partial float64")
                append((OP_WORK, _F64.unpack_from(data, pos)[0]))
                pos += 8
            elif op == OP_END:
                append(_END_EVENT)
            else:
                raise TraceFormatError(f"unknown opcode {op} at offset {pos - 1}")
            good = pos
    except IndexError:
        pass  # partial trailing event: resume from `good` with more data
    state[0] = last_addr
    state[1] = last_oid
    state[2] = next_oid
    return good


_RETURN_EVENT = (OP_RETURN,)
_END_EVENT = (OP_END,)


class TraceColumns:
    """Columnar (struct-of-arrays) view of one decoded event stream.

    The batched simulation engine (:mod:`repro.columnar`) and the profile
    replay consume events as flat int64 columns instead of per-event
    tuples:

    * ``acc_oid`` / ``acc_offset`` / ``acc_size`` — one entry per
      load/store, in stream order, and ``acc_store`` (bool) marking the
      stores.  Absolute addresses are obtained later by indexing an
      allocator-specific base table with ``acc_oid``.
    * ``ctrl`` — ``(op, a, b, acc_ptr)`` columns over CALL, RETURN and
      the heap ops (``a`` = site address, size or oid; ``b`` = realloc
      new size), where ``acc_ptr`` is the number of accesses preceding
      the op.  Needed when an allocator's group matcher reads the state
      vector or the live call stack, and by the profile replay.
    * ``heap`` — the same columns over ALLOC/FREE/REALLOC only: enough to
      re-drive any allocator whose decisions ignore the call stack.
    * ``works`` — float64 compute-cycle entries in stream order.
    * ``switches`` — one ``(heap_index, ctrl_index, acc_index, thread)``
      mark per thread switch: the switch takes effect before that heap
      op, control op and access.  Empty for single-threaded traces.
    * ``kinds`` — every event's opcode (one byte each, ``OP_WORK`` for
      both work encodings), in stream order: what the per-event replay
      needs to interleave the other columns exactly as recorded.

    *events* may be any iterable (the owning :class:`EventTrace` streams
    its decoder straight in, so no per-event tuple list is kept);
    *switches* is the trace's ``(event index, thread)`` table.
    """

    __slots__ = (
        "acc_oid", "acc_offset", "acc_size", "acc_store", "ctrl", "heap", "works",
        "call_addrs", "switches", "kinds", "loads", "stores", "allocs", "frees",
        "reallocs", "calls",
    )

    def __init__(
        self, events: Iterable[tuple], switches: Sequence[tuple[int, int]] = ()
    ) -> None:
        import numpy as np

        # Typed buffers: no Python int object outlives its append.
        acc_oid, acc_offset, acc_size, ops, op_a, op_b, op_ptr = (
            array("q") for _ in range(7)
        )
        acc_store = array("b")
        works = array("d")
        kinds = array("b")

        def fill(stream: Iterable[tuple]) -> None:
            kind = kinds.append
            for event in stream:
                op = event[0]
                kind(op)
                if op == OP_LOAD or op == OP_STORE:
                    acc_oid.append(event[1])
                    acc_offset.append(event[2])
                    acc_size.append(event[3])
                    acc_store.append(op == OP_STORE)
                elif op == OP_WORK:
                    works.append(event[1])
                elif op != OP_END:  # END carries no simulation state
                    ops.append(op)
                    op_a.append(event[1] if op != OP_RETURN else 0)
                    op_b.append(event[2] if op == OP_REALLOC else 0)
                    op_ptr.append(len(acc_oid))

        stream = iter(events)
        marks: list[tuple[int, int, int]] = []
        done = 0
        for position, thread in switches:
            fill(islice(stream, position - done))
            done = position
            marks.append((len(ops), len(acc_oid), thread))
        fill(stream)
        self.kinds = kinds.tobytes()
        self.acc_oid = np.frombuffer(acc_oid, dtype=np.int64)
        self.acc_offset = np.frombuffer(acc_offset, dtype=np.int64)
        self.acc_size = np.frombuffer(acc_size, dtype=np.int64)
        self.acc_store = np.frombuffer(acc_store, dtype=bool)
        self.works = np.frombuffer(works, dtype=np.float64)
        self.ctrl = tuple(
            np.frombuffer(column, dtype=np.int64) for column in (ops, op_a, op_b, op_ptr)
        )
        kinds = self.ctrl[0]
        is_heap = kinds >= OP_ALLOC
        self.heap = tuple(column[is_heap] for column in self.ctrl)
        heap_before = np.concatenate(([0], np.cumsum(is_heap)))
        self.switches = [
            (int(heap_before[ctrl_at]), ctrl_at, acc_at, thread)
            for ctrl_at, acc_at, thread in marks
        ]
        self.call_addrs = self.ctrl[1][kinds == OP_CALL]
        self.stores = int(np.count_nonzero(self.acc_store))
        self.loads = self.accesses - self.stores
        self.allocs = int(np.count_nonzero(kinds == OP_ALLOC))
        self.frees = int(np.count_nonzero(kinds == OP_FREE))
        self.reallocs = int(np.count_nonzero(kinds == OP_REALLOC))
        self.calls = int(self.call_addrs.shape[0])

    @property
    def accesses(self) -> int:
        """Total load/store events."""
        return int(self.acc_oid.shape[0])

    def segments(
        self, ctrl: bool = False, threaded: bool = True
    ) -> Iterator[tuple[Optional[int], Iterator[tuple[int, int, int, int]]]]:
        """``(thread, ops)`` runs of the heap ops (or, with *ctrl*, control ops).

        Each run iterates ``(op, a, b, acc_ptr)`` tuples of plain ints, in
        stream order, up to the next thread switch; ``thread`` is the
        thread the run executes on, None for the leading run (recordings
        start on thread 0).  A trace without switches, or
        ``threaded=False``, is one run, so single-threaded replays pay
        nothing per op.
        """
        columns = self.ctrl if ctrl else self.heap
        which = 1 if ctrl else 0
        starts = [0]
        threads: list[Optional[int]] = [None]
        if threaded:
            for mark in self.switches:
                starts.append(mark[which])
                threads.append(mark[3])
        ends = starts[1:] + [int(columns[0].shape[0])]
        for thread, lo, hi in zip(threads, starts, ends):
            yield thread, _rows(columns, lo, hi)

    def access_rows(self) -> Iterator[tuple[int, int, int, bool]]:
        """Every access as an ``(oid, offset, size, is_store)`` tuple, in order."""
        columns = (self.acc_oid, self.acc_offset, self.acc_size, self.acc_store)
        return _rows(columns, 0, self.accesses)


#: Rows per block when columns are iterated as tuples of plain Python values.
_ROW_BLOCK = 1 << 13


def _rows(columns: Sequence, lo: int, hi: int) -> Iterator[tuple]:
    """Rows ``lo:hi`` of parallel *columns* as tuples, converted a block at a time.

    Bounds the transient Python objects of a pass to one block instead of
    a whole column's worth.
    """
    return chain.from_iterable(
        zip(*(column[start:min(start + _ROW_BLOCK, hi)].tolist() for column in columns))
        for start in range(lo, hi, _ROW_BLOCK)
    )


class EventTrace:
    """An immutable recorded event stream plus its identifying header.

    The compressed body (with the v3 thread-switch table) is the canonical
    representation — what travels through the artifact cache and trace
    files.  :meth:`columns` decodes it once, straight into the cached
    :class:`TraceColumns` view every replay consumes, so the parameter-sweep
    case pays the decode cost a single time without holding a per-event
    tuple list; :meth:`events` decodes afresh on each call.
    """

    def __init__(
        self,
        header: TraceHeader,
        body: bytes,
        flags: int = FLAG_ZLIB,
        switch_table: bytes = b"",
    ) -> None:
        self.header = header
        self.body = body
        self.flags = flags
        self.switch_table = switch_table
        self._switches: Optional[tuple[tuple[int, int], ...]] = None
        self._columns: Optional[TraceColumns] = None

    def __len__(self) -> int:
        return self.header.events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        h = self.header
        return (
            f"EventTrace({h.workload!r}, scale={h.scale!r}, "
            f"{h.events} events, {len(self.body)} bytes)"
        )

    def __getstate__(self) -> dict:
        """Pickle the container only; decoded views are rebuilt on demand."""
        state = dict(self.__dict__)
        state["_switches"] = state["_columns"] = None
        return state

    # -- decoding ----------------------------------------------------------

    def _raw_body(self) -> bytes:
        if self.flags & FLAG_ZLIB:
            try:
                return zlib.decompress(self.body)
            except zlib.error as exc:
                raise TraceFormatError(f"corrupt compressed trace body: {exc}") from exc
        return self.body

    def verify(self) -> bool:
        """Whether the stored switch table and body match the header checksum.

        True for v1 traces and hand-built headers (no checksum recorded):
        absence of evidence is not treated as corruption.
        """
        expected = self.header.crc32
        return expected is None or self._crc() == expected

    def _crc(self) -> int:
        return zlib.crc32(self.body, zlib.crc32(self.switch_table))

    def _check_body(self) -> None:
        """Raise :class:`TraceFormatError` on checksum mismatch or injected faults."""
        plan = active_fault_plan()
        if plan is not None and plan.fail_trace_decode(self.header.workload):
            raise TraceFormatError(
                f"fault injection: forced decode failure for {self.header.workload!r}"
            )
        if not self.verify():
            raise TraceFormatError(
                f"trace body checksum mismatch for {self.header.workload!r} "
                f"(expected {self.header.crc32:#010x}, got {self._crc():#010x})"
            )

    def switches(self) -> tuple[tuple[int, int], ...]:
        """The ``(event index, thread)`` switch table (empty before v3)."""
        if self._switches is None:
            self._check_body()
            switches = decode_switches(self.switch_table)
            if len(switches) != self.header.switches or any(
                position > self.header.events for position, _ in switches
            ):
                raise TraceFormatError(
                    f"thread-switch table of {self.header.workload!r} does not "
                    "match its header"
                )
            self._switches = switches
        return self._switches

    def _decoded(self, chunk_size: int = 1 << 16) -> Iterator[tuple]:
        """Verify, inflate and decode the body, yielding events chunk by chunk.

        The checksum is verified first, so truncation and bit-flips surface
        as :class:`TraceFormatError` at the decode boundary rather than as
        garbage events downstream.
        """
        self._check_body()
        data = self._raw_body()
        out: list[tuple] = []
        state = [0, 0, 0]
        pos = 0
        count = 0
        while pos < len(data):
            good = _decode_into(data, pos, min(pos + chunk_size, len(data)), out, state)
            if good == pos:
                raise TraceFormatError(
                    f"trailing garbage: decoded {pos} of {len(data)} body bytes"
                )
            pos = good
            count += len(out)
            yield from out
            out.clear()
        if count != self.header.events:
            raise TraceFormatError(
                f"header promises {self.header.events} events, body holds {count}"
            )

    def events(self) -> list[tuple]:
        """Decode and return the full event list (not cached)."""
        return list(self._decoded())

    def read_all(self) -> list[tuple]:
        """Bulk-decode the entire body in one pass (alias of :meth:`events`)."""
        return self.events()

    def columns(self) -> TraceColumns:
        """Decode (once) into the cached columnar struct-of-arrays view."""
        if self._columns is None:
            self._columns = TraceColumns(self._decoded(), self.switches())
        return self._columns

    def iter_events(self, chunk_size: int = 1 << 16) -> Iterator[tuple]:
        """Stream events without materialising the full list.

        Decompresses and decodes in *chunk_size* steps, holding only one
        chunk plus any partial trailing event; the constant-memory path for
        tools that scan very large traces.
        """
        self._check_body()
        decompressor = zlib.decompressobj() if self.flags & FLAG_ZLIB else None
        pending = bytearray()
        state = [0, 0, 0]
        out: list[tuple] = []
        for start in range(0, len(self.body), chunk_size):
            chunk = self.body[start:start + chunk_size]
            pending.extend(decompressor.decompress(chunk) if decompressor else chunk)
            consumed = _decode_into(pending, 0, len(pending), out, state)
            del pending[:consumed]
            yield from out
            out.clear()
        if decompressor is not None:
            pending.extend(decompressor.flush())
        consumed = _decode_into(pending, 0, len(pending), out, state)
        if consumed != len(pending):
            raise TraceFormatError("truncated trace body")
        yield from out

    # -- container I/O -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise the full container (header, switch table, body)."""
        header_json = self.header.to_json().encode()
        return b"".join((
            MAGIC, _U32.pack(len(header_json)), header_json, bytes([self.flags]),
            self.switch_table, self.body,
        ))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the container to *path*; returns the path."""
        path = Path(path)
        path.write_bytes(self.to_bytes())
        return path

    @staticmethod
    def from_bytes(raw: bytes) -> "EventTrace":
        """Parse a container previously produced by :meth:`to_bytes`."""
        header, flags, table, offset = _read_container_head(io.BytesIO(raw))
        return EventTrace(header, raw[offset:], flags=flags, switch_table=table)

    @staticmethod
    def load(path: Union[str, Path]) -> "EventTrace":
        """Read a container from *path*."""
        return EventTrace.from_bytes(Path(path).read_bytes())


class TraceReader:
    """Streaming reader over a trace *file*: header up front, events lazily.

    Unlike :meth:`EventTrace.load`, the compressed body is pulled from disk
    chunk-by-chunk during iteration, so scanning a trace never holds the
    whole file in memory.
    """

    def __init__(self, path: Union[str, Path], chunk_size: int = 1 << 16) -> None:
        self.path = Path(path)
        self.chunk_size = chunk_size
        with open(self.path, "rb") as handle:
            self.header, self.flags, self.switch_table, self._body_offset = (
                _read_container_head(handle)
            )

    def read_all(self) -> list[tuple]:
        """Bulk-decode the whole file: one read, one inflate, one decode pass.

        Much faster than ``list(reader)`` for tools that want every event
        anyway (``trace info`` statistics, the columnar engine); the
        chunked iterator remains the constant-memory path.
        """
        raw = self.path.read_bytes()
        trace = EventTrace(
            self.header, raw[self._body_offset:], flags=self.flags,
            switch_table=self.switch_table,
        )
        return trace.read_all()

    def __iter__(self) -> Iterator[tuple]:
        decompressor = zlib.decompressobj() if self.flags & FLAG_ZLIB else None
        pending = bytearray()
        state = [0, 0, 0]
        out: list[tuple] = []
        crc = zlib.crc32(self.switch_table)
        with open(self.path, "rb") as handle:
            handle.seek(self._body_offset)
            while True:
                chunk = handle.read(self.chunk_size)
                if not chunk:
                    break
                crc = zlib.crc32(chunk, crc)
                try:
                    pending.extend(
                        decompressor.decompress(chunk) if decompressor else chunk
                    )
                except zlib.error as exc:
                    raise TraceFormatError(
                        f"corrupt compressed trace body in {self.path}: {exc}"
                    ) from exc
                consumed = _decode_into(pending, 0, len(pending), out, state)
                del pending[:consumed]
                yield from out
                out.clear()
        if self.header.crc32 is not None and crc != self.header.crc32:
            raise TraceFormatError(
                f"trace body checksum mismatch in {self.path} "
                f"(expected {self.header.crc32:#010x}, got {crc:#010x})"
            )
        if decompressor is not None:
            pending.extend(decompressor.flush())
        consumed = _decode_into(pending, 0, len(pending), out, state)
        if consumed != len(pending):
            raise TraceFormatError(f"truncated trace body in {self.path}")
        yield from out


def _read_container_head(handle: BinaryIO) -> tuple[TraceHeader, int, bytes, int]:
    """Parse magic, header, flags and switch table from *handle*.

    Returns ``(header, flags, switch_table, body_offset)``.
    """
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise TraceFormatError("not a HALO event trace (bad magic)")
    (header_len,) = _U32.unpack(handle.read(4))
    header = TraceHeader.from_json(handle.read(header_len).decode())
    if header.format not in SUPPORTED_FORMATS:
        raise TraceFormatError(f"unsupported trace format version {header.format}")
    flags = handle.read(1)[0]
    table = handle.read(header.switch_bytes)
    if len(table) != header.switch_bytes:
        raise TraceFormatError("truncated thread-switch table")
    return header, flags, table, len(MAGIC) + 4 + header_len + 1 + header.switch_bytes

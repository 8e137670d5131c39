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

Codec
-----

Recording is column-native: :class:`TraceWriter` appends each event's raw
fields to columns, and the closed trace encodes the body from them in
one pass, compresses it in one zlib pass and stamps the header's CRC32
the first time its bytes are read (a cache store, a pickle, a saved
file), so a recording that is only measured in process is never
compressed.  The closed trace keeps those columns as its :meth:`EventTrace.columns` view — about 33
bytes per event, the view every consumer used to decode — so a recording
is never decoded in the process that made it.  Traces built from bytes
(cache hits, pool workers, trace files) decode into the same columns.
Encoder and decoder run in the compiled kernel library
(:func:`repro.columnar.kernel.trace_encode` / ``trace_decode``); the
Python encoder (:meth:`TraceWriter._encode_py`) and decoder
(:func:`_decode_into`) are the fallback and the oracle, and
:meth:`EventTrace.iter_events` and :class:`TraceReader` stay the
constant-memory paths.
"""

from __future__ import annotations

import io
import json
from array import array
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from itertools import chain
from typing import BinaryIO, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .. import obs
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

#: Integral work below this many cycles is a varint; anything else float64.
_EXACT = float(1 << 53)


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
    #: traces and on hand-built headers, which skips verification, and on
    #: a fresh recording until its body is first read.
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
    """Column-native recorder of one machine-event stream.

    Events are appended through the ``call``/``ret``/``alloc``/... methods
    (or straight from :class:`~repro.trace.record.TraceRecorder`'s hooks)
    as raw fields, one column each: the opcode of every event in
    ``kinds``, one ``op_a`` entry per control op (call site, allocation
    size or oid; 0 for a return), one ``resize`` entry per realloc, the
    ``acc_*`` fields per load/store and the cycles per work event.  The
    columns are lists while recording (``list.append`` is the cheapest
    append the interpreter has) and typed arrays from :meth:`close` on,
    which derives the header counts and byte sums from them, encodes the
    body in one pass (the compiled codec, else :meth:`_encode_py`),
    compresses it in one zlib pass and returns an :class:`EventTrace`
    that keeps the columns as its :meth:`~EventTrace.columns` view.  A
    recording therefore holds its columns — about 33 bytes per event, the
    view every consumer used to decode — and nothing decodes what was
    just encoded.
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
        self._kinds: list[int] = []
        self._op_a: list[int] = []
        self._resize: list[int] = []
        self._acc_oid: list[int] = []
        self._acc_offset: list[int] = []
        self._acc_size: list[int] = []
        self._works: list[float] = []
        #: The implicit oid of the next allocation.
        self._next_oid = 0
        self._switches: list[tuple[int, int]] = []
        #: Output of the Python encoder.
        self._buffer = bytearray()
        self._closed = False
        self._trace: Optional[EventTrace] = None

    # -- event emitters ----------------------------------------------------

    def call(self, site_addr: int) -> None:
        """Record control entering the call site at *site_addr*."""
        self._kinds.append(OP_CALL)
        self._op_a.append(site_addr)

    def ret(self) -> None:
        """Record control returning past the innermost recorded call."""
        self._kinds.append(OP_RETURN)
        self._op_a.append(0)

    def alloc(self, size: int) -> int:
        """Record an allocation of *size* bytes; returns its implicit oid."""
        self._kinds.append(OP_ALLOC)
        self._op_a.append(size)
        oid = self._next_oid
        self._next_oid = oid + 1
        return oid

    def free(self, oid: int) -> None:
        """Record the free of object *oid*."""
        self._kinds.append(OP_FREE)
        self._op_a.append(oid)

    def realloc(self, oid: int, new_size: int) -> None:
        """Record the reallocation of object *oid* to *new_size* bytes."""
        self._kinds.append(OP_REALLOC)
        self._op_a.append(oid)
        self._resize.append(new_size)

    def access(self, oid: int, offset: int, size: int, is_store: bool) -> None:
        """Record a load or store of *size* bytes at *offset* in *oid*."""
        self._kinds.append(OP_STORE if is_store else OP_LOAD)
        self._acc_oid.append(oid)
        self._acc_offset.append(offset)
        self._acc_size.append(size)

    def work(self, cycles: float) -> None:
        """Record *cycles* of non-memory compute."""
        self._kinds.append(OP_WORK)
        self._works.append(cycles)

    def end(self) -> None:
        """Record the end-of-run marker (the machine's ``finish``)."""
        self._kinds.append(OP_END)

    def thread(self, thread_id: int) -> None:
        """Record a switch to simulated thread *thread_id* before the next event.

        Only changes are stored: switches with no event in between collapse
        into the last one, and a switch to the current thread is dropped
        (every consumer of ``set_thread`` is idempotent).
        """
        position = len(self._kinds)
        switches = self._switches
        if switches and switches[-1][0] == position:
            switches.pop()
        current = switches[-1][1] if switches else 0
        if thread_id != current:
            switches.append((position, thread_id))

    # -- encoding ----------------------------------------------------------

    def _take_columns(self) -> tuple:
        """Drain the columns recorded so far into typed arrays, in codec order.

        Each list is emptied once converted, so the lists and the arrays
        never both hold the whole recording.
        """
        def take(column: list, dtype):
            if dtype is np.int8:
                taken = np.frombuffer(bytes(column), dtype=dtype)
            else:
                taken = np.fromiter(column, dtype=dtype, count=len(column))
            column.clear()
            return taken

        return (
            take(self._kinds, np.int8),
            *(take(column, np.int64) for column in (
                self._op_a, self._resize, self._acc_oid, self._acc_offset, self._acc_size,
            )),
            take(self._works, np.float64),
        )

    def _emit_uvarint(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"uvarint cannot encode negative value {value}")
        buffer = self._buffer
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                buffer.append(byte | 0x80)
            else:
                buffer.append(byte)
                break

    def _encode_py(self, kinds, op_a, resize, acc_oid, acc_offset, acc_size, works) -> bytes:
        """The raw body of raw columns (as :meth:`_take_columns` gives them) in pure
        Python: the fallback and the oracle of the compiled encoder, which
        writes the same bytes."""
        buffer = self._buffer
        emit = self._emit_uvarint
        next_a = iter(op_a.tolist()).__next__
        next_resize = iter(resize.tolist()).__next__
        next_access = zip(acc_oid.tolist(), acc_offset.tolist(), acc_size.tolist()).__next__
        next_work = iter(works.tolist()).__next__
        last_addr = last_oid = next_oid = 0
        for op in kinds.tolist():
            if op == OP_LOAD or op == OP_STORE:
                oid, offset, size = next_access()
                buffer.append(op)
                emit(zigzag(oid - last_oid))
                emit(offset)
                emit(size)
                last_oid = oid
            elif op == OP_CALL:
                addr = next_a()
                buffer.append(op)
                emit(zigzag(addr - last_addr))
                last_addr = addr
            elif op == OP_WORK:
                cycles = next_work()
                if cycles.is_integer() and 0 <= cycles < _EXACT:
                    buffer.append(OP_WORK)
                    emit(int(cycles))
                else:
                    buffer.append(OP_WORK_F64)
                    buffer += _F64.pack(cycles)
            elif op == OP_ALLOC:
                buffer.append(op)
                emit(next_a())
                last_oid = next_oid
                next_oid += 1
            elif op == OP_FREE or op == OP_REALLOC:
                oid = next_a()
                buffer.append(op)
                emit(zigzag(oid - last_oid))
                last_oid = oid
                if op == OP_REALLOC:
                    emit(next_resize())
            else:
                if op == OP_RETURN:
                    next_a()
                elif op != OP_END:
                    raise ValueError(f"kinds column holds non-event code {op}")
                buffer.append(op)
        body = bytes(buffer)
        buffer.clear()
        return body

    # -- finalisation ------------------------------------------------------

    def close(self) -> "EventTrace":
        """Finalise the stream and return the completed trace (idempotent).

        Stamps the header with the counts and byte sums of the columns.
        The body is encoded and compressed, and the header's CRC32 of the
        switch table and compressed body set, only when the trace's
        :attr:`~EventTrace.body` is first read: a recording that is never
        cached, pickled or saved is never compressed.  Every write path
        reads the body before the header, so downstream readers can still
        detect truncation and bit-flips.  Events appended after this are
        not recorded.
        """
        if not self._closed:
            self._closed = True
            raw = self._take_columns()
            works = raw[-1]
            # -0.0 cycles encode as the varint 0 and decode as 0.0; hold
            # the value a decode gives (adding 0.0 changes nothing else).
            works += 0.0
            table = encode_switches(self._switches)
            columns = TraceColumns(*raw, switches=self._switches)
            header = self.header
            header.events = len(columns.kinds)
            header.calls = columns.calls
            header.allocs = columns.allocs
            header.frees = columns.frees
            header.reallocs = columns.reallocs
            header.loads = columns.loads
            header.stores = columns.stores
            header.works = int(columns.works.shape[0])
            header.alloc_bytes = int(columns.ctrl[1][columns.ctrl[0] == OP_ALLOC].sum())
            header.access_bytes = int(columns.acc_size.sum())
            header.switches = len(self._switches)
            header.switch_bytes = len(table)
            # The body is encoded from the columns' own arrays; kinds as a
            # view of their bytes, so no second copy of it is held.
            kinds = np.frombuffer(columns.kinds, dtype=np.int8)
            header.crc32 = None
            self._trace = EventTrace(
                header, _DeferredBody((kinds, *raw[1:])), switch_table=table, columns=columns
            )
        assert self._trace is not None
        return self._trace


class _DeferredBody:
    """A fresh recording's raw columns (as :meth:`TraceWriter._take_columns`
    gives them), held until :attr:`EventTrace.body` is first read."""

    __slots__ = ("raw",)

    def __init__(self, raw: tuple) -> None:
        self.raw = raw

    def compress(self) -> bytes:
        """Encode the body in one pass (the compiled codec, else the Python
        encoder) and compress it in one zlib pass."""
        from ..columnar import kernel

        body = kernel.trace_encode(*self.raw)
        if body is None:
            body = TraceWriter()._encode_py(*self.raw)
        compressor = zlib.compressobj(6)
        return compressor.compress(body) + compressor.flush()


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
    """Columnar (struct-of-arrays) view of one event stream.

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

    The view is built from the raw columns a recording appends (see
    :class:`TraceWriter`) or the codec decodes — *kinds*, *op_a* (one
    entry per control op), *resize* (one per realloc), the three access
    columns and *works* — by whole-column passes; *switches* is the
    trace's ``(event index, thread)`` table.  :meth:`from_events` builds
    it from decoded event tuples.
    """

    __slots__ = (
        "acc_oid", "acc_offset", "acc_size", "acc_store", "ctrl", "heap", "works",
        "call_addrs", "switches", "kinds", "loads", "stores", "allocs", "frees",
        "reallocs", "calls", "_trie",
    )

    def __init__(
        self,
        kinds, op_a, resize, acc_oid, acc_offset, acc_size, works,
        switches: Sequence[tuple[int, int]] = (),
    ) -> None:
        kinds = _column(kinds, np.int8)
        self.kinds = kinds.tobytes()
        is_acc = (kinds == OP_LOAD) | (kinds == OP_STORE)
        is_ctrl = kinds <= OP_REALLOC
        acc_before = np.concatenate(([0], np.cumsum(is_acc)))
        ops = kinds[is_ctrl].astype(np.int64)
        op_b = np.zeros(ops.shape[0], dtype=np.int64)
        op_b[ops == OP_REALLOC] = _column(resize, np.int64)
        self.ctrl = (ops, _column(op_a, np.int64), op_b, acc_before[:-1][is_ctrl])
        self.acc_oid = _column(acc_oid, np.int64)
        self.acc_offset = _column(acc_offset, np.int64)
        self.acc_size = _column(acc_size, np.int64)
        self.acc_store = kinds[is_acc] == OP_STORE
        self.works = _column(works, np.float64)
        is_heap = ops >= OP_ALLOC
        self.heap = tuple(column[is_heap] for column in self.ctrl)
        self.switches = []
        if switches:
            at = np.array([position for position, _ in switches], dtype=np.int64)
            ctrl_at = np.concatenate(([0], np.cumsum(is_ctrl)))[at]
            heap_at = np.concatenate(([0], np.cumsum(is_heap)))[ctrl_at]
            self.switches = [
                (int(heap), int(ctrl), int(acc), thread)
                for heap, ctrl, acc, (_, thread) in zip(
                    heap_at, ctrl_at, acc_before[at], switches
                )
            ]
        self.call_addrs = self.ctrl[1][ops == OP_CALL]
        self.stores = int(np.count_nonzero(self.acc_store))
        self.loads = self.accesses - self.stores
        self.allocs = int(np.count_nonzero(ops == OP_ALLOC))
        self.frees = int(np.count_nonzero(ops == OP_FREE))
        self.reallocs = int(np.count_nonzero(ops == OP_REALLOC))
        self.calls = int(self.call_addrs.shape[0])
        self._trie: Optional[CallTrie] = None

    @classmethod
    def from_events(
        cls, events: Iterable[tuple], switches: Sequence[tuple[int, int]] = ()
    ) -> "TraceColumns":
        """The view of decoded event tuples (any iterable: the Python
        decoder streams straight in, so no per-event tuple list is kept)."""
        kinds = array("b")
        op_a, resize, acc_oid, acc_offset, acc_size = (array("q") for _ in range(5))
        works = array("d")
        kind = kinds.append
        for event in events:
            op = event[0]
            kind(op)
            if op == OP_LOAD or op == OP_STORE:
                acc_oid.append(event[1])
                acc_offset.append(event[2])
                acc_size.append(event[3])
            elif op == OP_WORK:
                works.append(event[1])
            elif op == OP_RETURN:
                op_a.append(0)
            elif op != OP_END:
                op_a.append(event[1])
                if op == OP_REALLOC:
                    resize.append(event[2])
        return cls(kinds, op_a, resize, acc_oid, acc_offset, acc_size, works, switches)

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

    def call_trie(self) -> "CallTrie":
        """The call-site trie of the control ops, built on first use."""
        if self._trie is None:
            self._trie = CallTrie(self)
        return self._trie


class CallTrie:
    """The call-site trie of a trace's control ops, built without a per-op loop.

    Two calls share a node when they are made from the same site under
    the same stack; node 0 is the root (no call open).  A prefix sum
    gives the stack depth after every op, and the innermost open call at
    any point is the last call made at that depth, found by one
    ``searchsorted``.  Nodes are numbered one stack depth at a time.

    Attributes:
        depth: Stack depth after each control op (int32).
        calls: Control-op position of each call (int32).
        call_site: Each call's index into ``sites``.
        call_node: Each call's trie node (int32).
        sites: The distinct call-site addresses, ascending.
        count: Nodes in the trie, the root included.
    """

    __slots__ = (
        "depth", "calls", "call_site", "call_node", "sites", "count",
        "_ops", "_order", "_keys", "_span", "_parent", "_site", "_closing",
    )

    def __init__(self, cols: TraceColumns) -> None:
        ops, args = cols.ctrl[0], cols.ctrl[1]
        self._ops = ops
        self._closing: Optional[tuple[np.ndarray, np.ndarray]] = None
        step = (ops == OP_CALL).view(np.int8)
        calls = np.flatnonzero(step).astype(np.int32)
        step = step - (ops == OP_RETURN)
        self.depth = depth = np.cumsum(step, dtype=np.int32)
        del step
        call_depth = depth[calls]
        self.calls = calls
        sites, code = np.unique(args[calls], return_inverse=True)
        self.sites = sites.tolist()
        self.call_site = code.astype(np.int32)
        # Calls sorted by (depth, position): the innermost open call at
        # position q and depth k is the last depth-k call before q.
        self._order = order = np.argsort(call_depth, kind="stable").astype(np.int32)
        self._span = span = ops.shape[0] + 1
        self._keys = keys = call_depth[order].astype(np.int64) * span + calls[order]
        top = int(call_depth.max(initial=0))
        bounds = np.searchsorted(keys, np.arange(1, top + 2, dtype=np.int64) * span)
        node = np.zeros(calls.shape[0], dtype=np.int32)
        parents, codes = [np.array([-1])], [np.array([-1])]
        count, sites_n = 1, max(len(self.sites), 1)
        for level in range(1, top + 1):
            members = order[bounds[level - 1]:bounds[level]]
            up = (
                node[self.innermost(calls[members], call_depth[members] - 1)]
                if level > 1 else np.zeros(members.shape[0], dtype=np.int32)
            )
            distinct, inverse = np.unique(
                up.astype(np.int64) * sites_n + code[members], return_inverse=True
            )
            node[members] = count + inverse
            parents.append(distinct // sites_n)
            codes.append(distinct % sites_n)
            count += int(distinct.shape[0])
        self.call_node = node
        self.count = count
        self._parent = np.concatenate(parents).tolist()
        self._site = np.concatenate(codes).tolist()

    def innermost(self, positions: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Index into ``calls`` of the last call at depth *depths* (>= 1)
        before each of *positions*: the innermost call open there."""
        return self._order[
            np.searchsorted(self._keys, depths.astype(np.int64) * self._span + positions) - 1
        ]

    def closing(self) -> tuple[np.ndarray, np.ndarray]:
        """Each return's control-op position and the index into ``calls``
        of the call it closes (computed on first use)."""
        if self._closing is None:
            returns = np.flatnonzero(self._ops == OP_RETURN).astype(np.int32)
            self._closing = returns, self.innermost(returns, self.depth[returns] + 1)
        return self._closing

    def nodes(self, positions: np.ndarray) -> np.ndarray:
        """The trie node of the live stack at each of *positions* (heap ops)."""
        depths = self.depth[positions]
        node = np.zeros(positions.shape[0], dtype=np.int32)
        deep = depths > 0
        node[deep] = self.call_node[self.innermost(positions[deep], depths[deep])]
        return node

    def path(self, node: int) -> list[int]:
        """The call-site addresses of *node*'s stack, outermost first."""
        path = []
        sites = self.sites
        while node:
            path.append(sites[self._site[node]])
            node = self._parent[node]
        path.reverse()
        return path


def _column(values, dtype):
    """*values* as a numpy array of *dtype*, viewing a typed buffer without a copy."""
    if isinstance(values, np.ndarray):
        return values.astype(dtype, copy=False)
    return np.frombuffer(values, dtype=dtype)


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
    files.  :meth:`columns` gives the cached :class:`TraceColumns` view
    every replay consumes: a fresh recording's own columns (*columns*,
    from :meth:`TraceWriter.close`), else the body decoded once, so the
    parameter-sweep case pays the decode cost a single time without
    holding a per-event tuple list; :meth:`events` decodes afresh on each
    call.
    """

    def __init__(
        self,
        header: TraceHeader,
        body: Union[bytes, _DeferredBody],
        flags: int = FLAG_ZLIB,
        switch_table: bytes = b"",
        columns: Optional["TraceColumns"] = None,
    ) -> None:
        self.header = header
        self._body = body
        self.flags = flags
        self.switch_table = switch_table
        self._switches: Optional[tuple[tuple[int, int], ...]] = None
        self._columns: Optional[TraceColumns] = None
        #: The recording's columns, served once the body has been checked.
        self._recorded = columns

    def __len__(self) -> int:
        return self.header.events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        h = self.header
        return f"EventTrace({h.workload!r}, scale={h.scale!r}, {h.events} events)"

    @property
    def body(self) -> bytes:
        """The compressed body.  A fresh recording makes it on first read and
        stamps its header's CRC32 then."""
        body = self._body
        if isinstance(body, _DeferredBody):
            self._body = body = body.compress()
            self.header.crc32 = self._crc()
        return body

    def __getstate__(self) -> dict:
        """Pickle the container only; decoded views are rebuilt on demand."""
        self.body  # made first: it stamps the header's CRC32
        state = dict(self.__dict__)
        state["_switches"] = state["_columns"] = state["_recorded"] = None
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
        absence of evidence is not treated as corruption; nor is a fresh
        recording whose body is not made yet.
        """
        expected = self.header.crc32
        return expected is None or self._crc() == expected

    def _crc(self) -> int:
        return zlib.crc32(self.body, zlib.crc32(self.switch_table))

    def _check_body(self) -> None:
        """Raise :class:`TraceFormatError` on checksum mismatch."""
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
        _inject_decode_fault(self.header.workload)
        return self._decode_events(self._raw_body(), chunk_size)

    def _decode_events(self, data: bytes, chunk_size: int = 1 << 16) -> Iterator[tuple]:
        """Decode the inflated body *data* in Python, chunk by chunk."""
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
        """The cached columnar struct-of-arrays view.

        The first call checks the body's checksum, then serves a fresh
        recording's own columns or decodes the body once (where an injected
        decode fault can hit) in the compiled codec when it is available,
        inside a ``trace.decode`` span that publishes
        ``trace.decode.events`` and ``trace.decode.seconds``.
        """
        if self._columns is None:
            switches = self.switches()
            columns = self._recorded
            if columns is None:
                columns = self._decode_columns(switches)
            self._columns, self._recorded = columns, None
        return self._columns

    def _decode_columns(self, switches: Sequence[tuple[int, int]]) -> TraceColumns:
        from ..columnar import kernel

        workload = self.header.workload
        _inject_decode_fault(workload)
        with obs.span("trace.decode", workload=workload) as span:
            data = self._raw_body()
            try:
                raw = kernel.trace_decode(data)
                if raw is None:
                    columns = TraceColumns.from_events(self._decode_events(data), switches)
                else:
                    columns = TraceColumns(*raw, switches=switches)
            except (ValueError, OverflowError) as exc:
                raise TraceFormatError(f"corrupt trace body of {workload!r}: {exc}") from exc
            if len(columns.kinds) != self.header.events:
                raise TraceFormatError(
                    f"header promises {self.header.events} events, "
                    f"body holds {len(columns.kinds)}"
                )
        obs.inc("trace.decode.events", self.header.events, workload=workload)
        obs.inc("trace.decode.seconds", span.elapsed, workload=workload)
        return columns

    def iter_events(self, chunk_size: int = 1 << 16) -> Iterator[tuple]:
        """Stream events without materialising the full list.

        Decompresses and decodes in *chunk_size* steps, holding only one
        chunk plus any partial trailing event; the constant-memory path for
        tools that scan very large traces.
        """
        self._check_body()
        _inject_decode_fault(self.header.workload)
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
        body = self.body  # made first: it stamps the header's CRC32
        header_json = self.header.to_json().encode()
        return b"".join((
            MAGIC, _U32.pack(len(header_json)), header_json, bytes([self.flags]),
            self.switch_table, body,
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
        _inject_decode_fault(self.header.workload)
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


def _inject_decode_fault(workload: str) -> None:
    """Raise the decode failure an active fault plan injects, where bytes are decoded."""
    plan = active_fault_plan()
    if plan is not None and plan.fail_trace_decode(workload):
        raise TraceFormatError(f"fault injection: forced decode failure for {workload!r}")


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

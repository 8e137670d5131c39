"""Chunked LRU state-machine kernel behind the columnar engine.

One primitive covers every structure in the simulated hierarchy: an LRU
set-associative array driven by a flat stream of keys (line addresses
for the caches, page numbers for the TLB, which is simply the degenerate
one-set geometry).  :func:`lru_filter` consumes the stream and returns
the miss count plus the missed keys *in stream order*, so the three
cache levels chain exactly like the per-event hierarchy: L2 only sees
what missed L1, L3 only what missed L2.

Two interchangeable backends:

* a small C kernel, compiled on demand into a per-user temp directory
  (keyed by a hash of its source, so stale binaries are never reused)
  and loaded through ``ctypes``;
* a pure-Python replica of :meth:`SetAssociativeCache.access_line`'s
  dict-LRU loop, used when no compiler is available or
  ``REPRO_COLUMNAR_DISABLE_CC`` is set.

Both are exact: victim selection mirrors the insertion-ordered dict
(the least recently touched way is evicted; empty ways fill first), so
miss counts and downstream miss streams are bit-identical to the
per-event simulation regardless of backend.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from ..cache.cache import CacheConfigError

logger = logging.getLogger(__name__)

_SOURCE = r"""
#include <stdint.h>

/* LRU set-associative filter.
 *
 * keys:      n stream keys (non-negative line/page numbers)
 * tags:      num_sets * assoc slots, initialised to -1 (empty)
 * stamps:    num_sets * assoc last-touch stamps, initialised to 0
 * miss_out:  capacity n; receives missed keys in stream order
 * pow2:      nonzero when num_sets is a power of two (mask indexing)
 *
 * Returns the miss count.  Victim choice replicates the insertion-
 * ordered dict of the per-event simulator: empty ways fill first,
 * otherwise the way with the smallest last-touch stamp is evicted.
 */
int64_t halo_lru_filter(const int64_t *keys, int64_t n,
                        int64_t num_sets, int64_t assoc, int64_t pow2,
                        int64_t *tags, int64_t *stamps, int64_t *miss_out)
{
    int64_t misses = 0;
    int64_t stamp = 0;
    int64_t mask = num_sets - 1;
    for (int64_t i = 0; i < n; i++) {
        int64_t key = keys[i];
        int64_t set = pow2 ? (key & mask) : (key % num_sets);
        int64_t *t = tags + set * assoc;
        int64_t *s = stamps + set * assoc;
        int64_t way = -1;
        for (int64_t w = 0; w < assoc; w++) {
            if (t[w] == key) { way = w; break; }
        }
        if (way >= 0) {
            s[way] = ++stamp;
            continue;
        }
        miss_out[misses++] = key;
        for (int64_t w = 0; w < assoc; w++) {
            if (t[w] < 0) { way = w; break; }
        }
        if (way < 0) {
            way = 0;
            int64_t oldest = s[0];
            for (int64_t w = 1; w < assoc; w++) {
                if (s[w] < oldest) { oldest = s[w]; way = w; }
            }
        }
        t[way] = key;
        s[way] = ++stamp;
    }
    return misses;
}

/* Fully-associative single-set variant (the TLB geometry).
 *
 * ways[] is kept in recency order: ways[0] is the least recently used
 * entry, ways[count-1] the most recent — exactly the insertion order of
 * the per-event dict.  Hits search newest-first (locality), then the
 * entry slides to the back; a miss on a full set evicts ways[0].
 */
int64_t halo_lru_fa(const int64_t *keys, int64_t n, int64_t capacity,
                    int64_t *ways, int64_t *miss_out)
{
    int64_t misses = 0;
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t key = keys[i];
        int64_t at = -1;
        for (int64_t w = count - 1; w >= 0; w--) {
            if (ways[w] == key) { at = w; break; }
        }
        if (at < 0) {
            miss_out[misses++] = key;
            if (count < capacity) {
                ways[count++] = key;
                continue;
            }
            at = 0;  /* evict the least recently used entry */
        }
        for (int64_t w = at; w < count - 1; w++) ways[w] = ways[w + 1];
        ways[count - 1] = key;
    }
    return misses;
}
"""

_I64P = ctypes.POINTER(ctypes.c_int64)

#: Memoised compiled entry points; False means "tried and failed".
_kernel = None
_kernel_fa = None


def _compile() -> ctypes.CDLL:
    """Build (or reuse) the shared object and load it."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache_dir = Path(tempfile.gettempdir()) / f"repro-columnar-{os.getuid()}"
    cache_dir.mkdir(parents=True, exist_ok=True)
    so_path = cache_dir / f"kernel-{digest}.so"
    if not so_path.exists():
        with tempfile.TemporaryDirectory(dir=cache_dir) as build:
            src = Path(build) / "kernel.c"
            src.write_text(_SOURCE)
            out = Path(build) / "kernel.so"
            last_error: Exception | None = None
            for cc in ("cc", "gcc", "clang"):
                try:
                    subprocess.run(
                        [cc, "-O2", "-shared", "-fPIC", "-o", str(out), str(src)],
                        check=True, capture_output=True, timeout=120,
                    )
                    break
                except (OSError, subprocess.SubprocessError) as exc:
                    last_error = exc
            else:
                raise RuntimeError(f"no working C compiler: {last_error!r}")
            os.replace(out, so_path)  # atomic: concurrent builders agree
    return ctypes.CDLL(str(so_path))


def _load():
    """The compiled filter function, or None when unavailable."""
    global _kernel, _kernel_fa
    if _kernel is None:
        if os.environ.get("REPRO_COLUMNAR_DISABLE_CC"):
            _kernel = False
        else:
            try:
                lib = _compile()
                fn = lib.halo_lru_filter
                fn.restype = ctypes.c_int64
                fn.argtypes = [
                    _I64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                    ctypes.c_int64, _I64P, _I64P, _I64P,
                ]
                fa = lib.halo_lru_fa
                fa.restype = ctypes.c_int64
                fa.argtypes = [_I64P, ctypes.c_int64, ctypes.c_int64, _I64P, _I64P]
                _kernel, _kernel_fa = fn, fa
            except Exception as exc:  # pragma: no cover - environment-dependent
                logger.warning("columnar C kernel unavailable (%s); using Python fallback", exc)
                _kernel = False
    return _kernel or None


def kernel_backend() -> str:
    """Which backend :func:`lru_filter` runs on: ``"c"`` or ``"python"``."""
    return "c" if _load() is not None else "python"


def _lru_filter_py(keys: np.ndarray, num_sets: int, assoc: int) -> tuple[int, np.ndarray]:
    """Exact dict-LRU replica of the C kernel (and of the event path)."""
    sets: list[dict[int, None]] = [dict() for _ in range(num_sets)]
    pow2 = num_sets & (num_sets - 1) == 0
    mask = num_sets - 1
    missed: list[int] = []
    append = missed.append
    for key in keys.tolist():
        ways = sets[key & mask if pow2 else key % num_sets]
        if key in ways:
            del ways[key]
            ways[key] = None
            continue
        append(key)
        if len(ways) >= assoc:
            ways.pop(next(iter(ways)))
        ways[key] = None
    return len(missed), np.asarray(missed, dtype=np.int64)


def _fits(keys: np.ndarray, num_sets: int, assoc: int) -> Optional[np.ndarray]:
    """Missed keys when no set ever holds more than *assoc* distinct keys.

    Such a stream never evicts, so exactly each key's first occurrence
    misses, whatever the replacement policy; returns those keys in stream
    order, or None when some set overflows.
    """
    distinct, first = np.unique(keys, return_index=True)
    sets = distinct & (num_sets - 1) if num_sets & (num_sets - 1) == 0 else distinct % num_sets
    if int(np.bincount(sets, minlength=1).max()) > assoc:
        return None
    first.sort()
    return keys[first]


def lru_filter(keys: np.ndarray, num_sets: int, assoc: int) -> tuple[int, np.ndarray]:
    """Drive one LRU structure with *keys*; returns ``(misses, missed_keys)``.

    *keys* must be a contiguous non-negative int64 array; the missed keys
    come back in stream order, ready to feed the next cache level.  A
    structure with more slots than the stream has keys (the L3 of a
    test-scale run) is first checked for a stream that never evicts,
    which needs no per-slot state at all; otherwise the kernel's slot
    arrays are allocated for the call and released with it.
    """
    if num_sets <= 0 or assoc <= 0:
        raise CacheConfigError(f"impossible geometry: {num_sets} sets x {assoc} ways")
    n = int(keys.shape[0])
    if n == 0:
        return 0, keys[:0]
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if num_sets * assoc >= n:
        missed = _fits(keys, num_sets, assoc)
        if missed is not None:
            return int(missed.shape[0]), missed
    fn = _load()
    if fn is None:
        return _lru_filter_py(keys, num_sets, assoc)
    miss_out = np.empty(n, dtype=np.int64)
    if num_sets == 1:
        ways = np.empty(assoc, dtype=np.int64)
        misses = _kernel_fa(
            keys.ctypes.data_as(_I64P), n, assoc,
            ways.ctypes.data_as(_I64P), miss_out.ctypes.data_as(_I64P),
        )
        return int(misses), miss_out[:misses].copy()
    tags = np.full(num_sets * assoc, -1, dtype=np.int64)
    stamps = np.zeros(num_sets * assoc, dtype=np.int64)
    misses = fn(
        keys.ctypes.data_as(_I64P), n, num_sets, assoc,
        1 if num_sets & (num_sets - 1) == 0 else 0,
        tags.ctypes.data_as(_I64P), stamps.ctypes.data_as(_I64P),
        miss_out.ctypes.data_as(_I64P),
    )
    return int(misses), miss_out[:misses].copy()


def validate_geometry(config) -> None:
    """Replicate the hierarchy constructors' geometry checks without
    building their (large) per-set state.

    Raises exactly what ``CacheHierarchy(config)`` would: a
    :class:`CacheConfigError` for impossible cache shapes, a
    :class:`ValueError` for bad TLB/page parameters.
    """
    line = config.line_size
    if line <= 0 or line & (line - 1):
        raise CacheConfigError(f"line size must be a power of two, got {line}")
    for name, size, assoc in (
        ("L1D", config.l1_size, config.l1_assoc),
        ("L2", config.l2_size, config.l2_assoc),
        ("L3", config.l3_size, config.l3_assoc),
    ):
        if size % (assoc * line):
            raise CacheConfigError(
                f"{name}: size {size} not divisible by assoc*line ({assoc}*{line})"
            )
    if config.tlb_entries <= 0:
        raise ValueError(f"TLB needs at least one entry, got {config.tlb_entries}")
    page = config.page_size
    if page <= 0 or page & (page - 1):
        raise ValueError(f"page size must be a power of two, got {page}")


def expand_ranges(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Flatten inclusive ``[first, last]`` ranges into one ascending stream.

    The vectorised equivalent of the per-event straddle loops: each
    access's lines (or pages) appear consecutively in ascending order, so
    the flattened stream visits structures in exactly per-event order.
    """
    if first.shape[0] == 0:
        return first
    spans = last - first + 1
    if int(spans.max(initial=1)) == 1:
        return first
    total = int(spans.sum())
    starts = np.repeat(first, spans)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(spans) - spans, spans)
    return starts + offsets

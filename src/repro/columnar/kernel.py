"""The compiled kernel library: chunked LRU filtering, SEQUITUR, the
affinity queue, the trace codec and heap placement.

One primitive covers every structure in the simulated hierarchy: an LRU
set-associative array driven by a flat stream of keys (line addresses
for the caches, page numbers for the TLB, which is simply the degenerate
one-set geometry).  :func:`lru_filter` consumes the stream and returns
the miss count plus the missed keys *in stream order*, so the three
cache levels chain exactly like the per-event hierarchy: L2 only sees
what missed L1, L3 only what missed L2.

The same library carries :func:`sequitur`, the grammar builder behind
hot-data-stream analysis: a C replica of
:class:`repro.hds.sequitur.Sequitur` over interned terminal codes; and
:func:`affinity`, the profile replay's affinity queue: a C replica of
:meth:`repro.profiling.affinity.AffinityRecorder.record_access` over a
deduplicated access stream; and :func:`trace_encode` / :func:`trace_decode`,
the v3 event-body codec between raw trace columns and varint bytes: C
replicas of :class:`repro.trace.format.TraceWriter`'s encoder and of
``_decode_into``; and :func:`place`, the columnar engine's placement pass:
C replicas of :class:`repro.allocators.size_class.SizeClassAllocator` and of
:class:`repro.allocators.group.GroupAllocator` over one, driven by a
trace's heap columns and per-op selector groups, with the address space's
MT19937 reservation jitter replayed bit for bit.

Two interchangeable backends for each:

* one small C library, compiled on demand into a per-user temp directory
  (keyed by a hash of its source, so stale binaries are never reused)
  and loaded through ``ctypes``;
* pure Python: a replica of :meth:`SetAssociativeCache.access_line`'s
  dict-LRU loop, the object-based ``Sequitur`` and ``AffinityRecorder``,
  the trace module's own codec, the allocators' own ``malloc``/``free``.
  They run when no compiler is available or ``REPRO_COLUMNAR_DISABLE_CC``
  is set, which switches off the whole library.  Every entry-point call counts as
  ``kernel.calls{kernel, backend}`` when observability is on.

Both are exact: victim selection mirrors the insertion-ordered dict
(the least recently touched way is evicted; empty ways fill first), so
miss counts and downstream miss streams are bit-identical to the
per-event simulation regardless of backend; the C SEQUITUR gives the
same rule ids, bodies and rule order as the Python one; the C queue
gives the same edges, in the same order, as the recorder; the C codec
writes and reads the same bytes as the Python one; and the C placement
hands out the same addresses, purges the same chunks and leaves the same
counters and RNG state as the Python allocators.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .. import obs
from ..cache.cache import CacheConfigError

logger = logging.getLogger(__name__)

_LRU_SOURCE = r"""
#include <setjmp.h>
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

_SEQUITUR_SOURCE = r"""
/* SEQUITUR grammar inference: an exact replica of repro.hds.sequitur.
 *
 * Every operation mirrors the Python method of the same name, in the same
 * order, so both give the same rule ids, bodies and preorder rule list.
 * All state lives in caller-owned int32 arrays:
 *
 * symbols  val/prev/next: a value v >= 0 is a terminal code, v < 0 refers
 *          to rule ~v.  Rule r's body is a circular list around its guard
 *          symbol guard[r], whose value is ~r.
 * rules    refs[r] counts the symbols referring to r; uses[r] is the XOR
 *          of their slots, so when refs[r] falls to one it *is* the one
 *          remaining use.
 * index    the digram index: open addressing with linear probing and
 *          backward-shift deletion, mapping the pair of values to the
 *          digram's first symbol (hsym[i] < 0 marks an empty slot).
 *
 * Slots are never reused.  Running out of any array aborts the build and
 * returns -1; the caller retries with larger arrays.
 */

typedef struct {
    int32_t *val, *prev, *next;
    int32_t *guard, *refs, *uses;
    int64_t *hkey;
    int32_t *hsym;
    uint64_t hmask;
    int hshift;
    int64_t nsym, cap_sym, nrule, cap_rule, hcount;
    jmp_buf full;
} Seq;

#define SEQ_KEY(q, a, b) \
    (((uint64_t)(uint32_t)(q)->val[a] << 32) | (uint32_t)(q)->val[b])

static inline uint64_t seq_slot(const Seq *q, uint64_t key)
{
    uint64_t i = (key * 0x9E3779B97F4A7C15ULL) >> q->hshift;
    while (q->hsym[i] >= 0 && (uint64_t)q->hkey[i] != key) i = (i + 1) & q->hmask;
    return i;
}

static inline void seq_put(Seq *q, uint64_t i, uint64_t key, int32_t s)
{
    if (q->hsym[i] < 0) {
        if (2 * (q->hcount + 1) > (int64_t)q->hmask + 1) longjmp(q->full, 1);
        q->hcount++;
        q->hkey[i] = (int64_t)key;
    }
    q->hsym[i] = s;
}

static void seq_delete(Seq *q, uint64_t i)
{
    uint64_t j = i;
    for (;;) {
        j = (j + 1) & q->hmask;
        if (q->hsym[j] < 0) break;
        uint64_t home = ((uint64_t)q->hkey[j] * 0x9E3779B97F4A7C15ULL) >> q->hshift;
        int stays = i < j ? (home > i && home <= j) : (home > i || home <= j);
        if (!stays) {
            q->hkey[i] = q->hkey[j];
            q->hsym[i] = q->hsym[j];
            i = j;
        }
    }
    q->hsym[i] = -1;
    q->hcount--;
}

static inline int is_guard(const Seq *q, int32_t s)
{
    int32_t v = q->val[s];
    return v < 0 && q->guard[~v] == s;
}

/* The rule symbol s refers to, or -1 for terminals and guards. */
static inline int32_t rule_of(const Seq *q, int32_t s)
{
    int32_t v = q->val[s];
    return v < 0 && q->guard[~v] != s ? ~v : -1;
}

static inline void seq_link(Seq *q, int32_t left, int32_t right)
{
    q->next[left] = right;
    q->prev[right] = left;
}

static int32_t new_symbol(Seq *q, int32_t v)
{
    if (q->nsym >= q->cap_sym) longjmp(q->full, 1);
    int32_t s = (int32_t)q->nsym++;
    q->val[s] = v;
    q->prev[s] = q->next[s] = -1;
    return s;
}

static int32_t new_rule(Seq *q)
{
    if (q->nrule >= q->cap_rule) longjmp(q->full, 1);
    int32_t r = (int32_t)q->nrule++;
    q->guard[r] = -1;
    int32_t g = new_symbol(q, ~r);
    q->guard[r] = g;
    q->prev[g] = q->next[g] = g;
    q->refs[r] = 0;
    q->uses[r] = 0;
    return r;
}

static void check_digram(Seq *q, int32_t first);

static void remove_digram(Seq *q, int32_t first)
{
    int32_t second = q->next[first];
    if (second < 0 || is_guard(q, second) || is_guard(q, first)) return;
    uint64_t i = seq_slot(q, SEQ_KEY(q, first, second));
    if (q->hsym[i] == first) seq_delete(q, i);
}

static void append_to_rule(Seq *q, int32_t r, int32_t v)
{
    int32_t s = new_symbol(q, v);
    if (v < 0) {
        q->refs[~v]++;
        q->uses[~v] ^= s;
    }
    int32_t g = q->guard[r];
    seq_link(q, q->prev[g], s);
    seq_link(q, s, g);
}

static void inline_only_use(Seq *q, int32_t r)
{
    int32_t use = q->uses[r];
    int32_t left = q->prev[use], right = q->next[use];
    if (!is_guard(q, left)) remove_digram(q, left);
    if (!is_guard(q, right)) remove_digram(q, use);
    int32_t g = q->guard[r], first = q->next[g], last = q->prev[g];
    if (first == g) {
        seq_link(q, left, right);
    } else {
        seq_link(q, left, first);
        seq_link(q, last, right);
    }
    q->refs[r]--;
    q->uses[r] ^= use;
    int32_t seams[2] = {left, first != g ? last : -1};
    for (int k = 0; k < 2; k++) {
        int32_t seam = seams[k];
        if (seam < 0 || is_guard(q, seam)) continue;
        int32_t follower = q->next[seam];
        if (follower < 0 || is_guard(q, follower)) continue;
        uint64_t key = SEQ_KEY(q, seam, follower);
        uint64_t i = seq_slot(q, key);
        if (q->hsym[i] < 0) seq_put(q, i, key, seam);
    }
}

static void substitute(Seq *q, int32_t first, int32_t r)
{
    int32_t second = q->next[first];
    int32_t left = q->prev[first], right = q->next[second];
    if (!is_guard(q, left)) remove_digram(q, left);
    if (!is_guard(q, right)) remove_digram(q, second);
    remove_digram(q, first);
    int32_t children[2] = {rule_of(q, first), rule_of(q, second)};
    int32_t symbols[2] = {first, second};
    for (int k = 0; k < 2; k++) {
        if (children[k] >= 0) {
            q->refs[children[k]]--;
            q->uses[children[k]] ^= symbols[k];
        }
    }
    int32_t replacement = new_symbol(q, ~r);
    q->refs[r]++;
    q->uses[r] ^= replacement;
    seq_link(q, left, replacement);
    seq_link(q, replacement, right);
    for (int k = 0; k < 2; k++) {
        if (children[k] >= 0 && q->refs[children[k]] == 1) inline_only_use(q, children[k]);
    }
    if (!is_guard(q, left)) check_digram(q, left);
    if (!is_guard(q, right) && q->next[replacement] == right) check_digram(q, replacement);
}

static void handle_match(Seq *q, int32_t newer, int32_t older)
{
    int32_t second = q->next[older];
    if (is_guard(q, q->prev[older]) && is_guard(q, q->next[second])) {
        substitute(q, newer, ~q->val[q->prev[older]]);
        return;
    }
    int32_t r = new_rule(q);
    append_to_rule(q, r, q->val[older]);
    append_to_rule(q, r, q->val[second]);
    int32_t g = q->guard[r];
    uint64_t key = SEQ_KEY(q, q->next[g], q->prev[g]);
    seq_put(q, seq_slot(q, key), key, q->next[g]);
    substitute(q, older, r);
    substitute(q, newer, r);
}

static void check_digram(Seq *q, int32_t first)
{
    int32_t second = q->next[first];
    if (is_guard(q, first) || second < 0 || is_guard(q, second)) return;
    uint64_t key = SEQ_KEY(q, first, second);
    uint64_t i = seq_slot(q, key);
    if (q->hsym[i] < 0) {
        seq_put(q, i, key, first);
        return;
    }
    int32_t match = q->hsym[i];
    if (match == first || q->next[match] == first) return;
    handle_match(q, first, match);
}

/* Build the grammar of codes[0..n) and write it out flat.
 *
 * sym:      3 * cap_sym work slots (val, prev, next)
 * rule:     5 * cap_rule work slots (guard, refs, uses, preorder
 *           position, walk stack)
 * hkey/hsym: 2**hbits index slots
 * rule_ids: receives the live rule ids in preorder (start rule first)
 * offsets:  rule i's body is body[offsets[i] .. offsets[i+1])
 * body:     cap_body slots; a terminal code, or ~position of a rule
 *
 * Returns the number of live rules, or -1 when an array was too small.
 */
int64_t halo_sequitur(const int32_t *codes, int64_t n,
                      int32_t *sym, int64_t cap_sym,
                      int32_t *rule, int64_t cap_rule,
                      int64_t *hkey, int32_t *hsym, int64_t hbits,
                      int32_t *rule_ids, int32_t *offsets,
                      int32_t *body, int64_t cap_body)
{
    Seq q;
    q.val = sym; q.prev = sym + cap_sym; q.next = sym + 2 * cap_sym;
    q.guard = rule; q.refs = rule + cap_rule; q.uses = rule + 2 * cap_rule;
    int32_t *pos = rule + 3 * cap_rule, *stack = rule + 4 * cap_rule;
    q.hkey = hkey; q.hsym = hsym;
    q.hmask = ((uint64_t)1 << hbits) - 1;
    q.hshift = 64 - (int)hbits;
    q.nsym = 0; q.cap_sym = cap_sym; q.nrule = 0; q.cap_rule = cap_rule; q.hcount = 0;
    for (uint64_t i = 0; i <= q.hmask; i++) hsym[i] = -1;
    if (setjmp(q.full)) return -1;

    int32_t start = new_rule(&q), g0 = q.guard[start];
    for (int64_t i = 0; i < n; i++) {
        int32_t s = new_symbol(&q, codes[i]);
        seq_link(&q, q.prev[g0], s);
        seq_link(&q, s, g0);
        if (q.prev[s] != g0) check_digram(&q, q.prev[s]);
    }

    /* Preorder: a rule is numbered where the walk first meets it. */
    for (int64_t r = 0; r < q.nrule; r++) pos[r] = -1;
    int64_t count = 0, top = 0;
    pos[start] = 0;
    rule_ids[count++] = start;
    stack[top++] = q.next[g0];
    while (top > 0) {
        int32_t s = stack[top - 1];
        if (is_guard(&q, s)) { top--; continue; }
        stack[top - 1] = q.next[s];
        int32_t child = rule_of(&q, s);
        if (child >= 0 && pos[child] < 0) {
            pos[child] = (int32_t)count;
            rule_ids[count++] = child;
            stack[top++] = q.next[q.guard[child]];
        }
    }
    int64_t m = 0;
    offsets[0] = 0;
    for (int64_t i = 0; i < count; i++) {
        int32_t g = q.guard[rule_ids[i]];
        for (int32_t s = q.next[g]; s != g; s = q.next[s]) {
            if (m >= cap_body) return -1;
            int32_t v = q.val[s];
            body[m++] = v >= 0 ? v : ~pos[~v];
        }
        offsets[i + 1] = (int32_t)m;
    }
    return count;
}
"""

_AFFINITY_SOURCE = r"""
/* The affinity queue: an exact replica of
 * repro.profiling.affinity.AffinityRecorder.record_access over a
 * deduplicated macro-access stream.
 *
 * oids/nbytes: n macro accesses (no two neighbours share an oid); an
 *          object's id is also its allocation sequence number
 * cid, groupable, prev, next: per-object columns; prev/next hold the
 *          ids of the same context's neighbouring allocations, -1 and
 *          INT32_MAX when there are none
 * window   wprev/wnext/after: per-object work slots.  The window is a
 *          doubly linked list, oldest entry first, replicating the
 *          recorder's insertion-ordered dict; after[o] is the cumulative
 *          byte count after o's latest access, -1 when o is not in it.
 * index    hkey/hedge: 2**hbits slots, open addressing with linear
 *          probing, mapping a context pair to its edge (hedge < 0: empty)
 * edges    edge_lo/edge_hi/edge_w: cap_edge slots, in first-insertion
 *          order, so the graph's edge dict keeps the recorder's order
 * out      out[0] receives the window length at the end
 *
 * Returns the number of edges, or -1 when the edge arrays were too small.
 */
int64_t halo_affinity(const int32_t *oids, const int32_t *nbytes, int64_t n,
                      const int32_t *cid, const int8_t *groupable,
                      const int32_t *prev, const int32_t *next,
                      int64_t distance, int64_t enforce,
                      int32_t *wprev, int32_t *wnext, int64_t *after,
                      int64_t *hkey, int32_t *hedge, int64_t hbits,
                      int32_t *edge_lo, int32_t *edge_hi, int64_t *edge_w,
                      int64_t cap_edge, int64_t *out)
{
    uint64_t hmask = ((uint64_t)1 << hbits) - 1;
    int hshift = 64 - (int)hbits;
    for (uint64_t i = 0; i <= hmask; i++) hedge[i] = -1;
    int64_t edges = 0, length = 0, now = 0;
    int32_t head = -1, tail = -1;
    for (int64_t i = 0; i < n; i++) {
        int32_t o = oids[i];
        int32_t c = cid[o];
        int g = groupable[o];
        for (int32_t v = tail; v >= 0; v = wprev[v]) {
            if (now - after[v] >= distance) break;
            if (v == o || !g || !groupable[v]) continue;
            if (enforce) {
                if (v < o) {
                    if (prev[o] > v || next[v] < o) continue;
                } else if (next[o] < v || prev[v] > o) {
                    continue;
                }
            }
            int32_t vc = cid[v];
            int32_t lo = c <= vc ? c : vc, hi = c <= vc ? vc : c;
            uint64_t key = ((uint64_t)(uint32_t)lo << 32) | (uint32_t)hi;
            uint64_t h = (key * 0x9E3779B97F4A7C15ULL) >> hshift;
            while (hedge[h] >= 0 && (uint64_t)hkey[h] != key) h = (h + 1) & hmask;
            if (hedge[h] < 0) {
                if (edges >= cap_edge || 2 * (edges + 1) > (int64_t)hmask + 1) return -1;
                hkey[h] = (int64_t)key;
                hedge[h] = (int32_t)edges;
                edge_lo[edges] = lo;
                edge_hi[edges] = hi;
                edge_w[edges++] = 0;
            }
            edge_w[hedge[h]]++;
        }
        /* Move o to the newest end of the window. */
        if (after[o] >= 0) {
            if (wprev[o] >= 0) wnext[wprev[o]] = wnext[o]; else head = wnext[o];
            if (wnext[o] >= 0) wprev[wnext[o]] = wprev[o]; else tail = wprev[o];
            length--;
        }
        now += nbytes[i];
        after[o] = now;
        wprev[o] = tail;
        wnext[o] = -1;
        if (tail >= 0) wnext[tail] = o; else head = o;
        tail = o;
        length++;
        /* Trim entries that can never be affinitive again. */
        while (head >= 0 && now - after[head] >= distance) {
            int32_t old = head;
            head = wnext[old];
            if (head >= 0) wprev[head] = -1; else tail = -1;
            after[old] = -1;
            length--;
        }
    }
    out[0] = length;
    return edges;
}
"""

_TRACE_SOURCE = r"""
#include <string.h>

/* The trace body codec: an exact replica of repro.trace.format's encoder
 * and decoder for the v3 event stream (LEB128, zigzag deltas, float64
 * work), over the raw columns a recording keeps:
 *
 * kinds    one opcode per event (OP_WORK for both work encodings)
 * op_a     per control op (CALL .. REALLOC): site address, size or oid
 * resize   per REALLOC: the new size
 * acc_*    per LOAD/STORE: oid, offset, size
 * works    per WORK: cycles
 */

enum { T_CALL, T_RETURN, T_ALLOC, T_FREE, T_REALLOC, T_LOAD, T_STORE,
       T_WORK, T_WORK_F64, T_END };

#define T_EXACT 9007199254740992.0  /* 2**53: integral work below is a varint */

static inline uint8_t *put_uvarint(uint8_t *p, uint64_t v)
{
    while (v >= 0x80) { *p++ = (uint8_t)(v | 0x80); v >>= 7; }
    *p++ = (uint8_t)v;
    return p;
}

static inline uint64_t zigzag64(uint64_t delta)
{
    return (delta << 1) ^ (uint64_t)-(int64_t)(delta >> 63);
}

/* Encode n events into out (cap bytes).  Returns the byte count, -1 when
 * out is too small, -2 for a negative size or offset, -3 for an opcode
 * that is not an event kind. */
int64_t halo_trace_encode(const int8_t *kinds, int64_t n,
                          const int64_t *op_a, const int64_t *resize,
                          const int64_t *acc_oid, const int64_t *acc_offset,
                          const int64_t *acc_size, const double *works,
                          uint8_t *out, int64_t cap)
{
    uint8_t *p = out, *limit = out + cap;
    uint64_t last_addr = 0, last_oid = 0, next_oid = 0;
    int64_t ia = 0, ir = 0, ix = 0, iw = 0;
    for (int64_t i = 0; i < n; i++) {
        if (limit - p < 32) return -1;  /* the longest event is 31 bytes */
        int op = kinds[i];
        *p++ = (uint8_t)op;
        switch (op) {
        case T_LOAD: case T_STORE: {
            uint64_t oid = (uint64_t)acc_oid[ix];
            if (acc_offset[ix] < 0 || acc_size[ix] < 0) return -2;
            p = put_uvarint(p, zigzag64(oid - last_oid));
            p = put_uvarint(p, (uint64_t)acc_offset[ix]);
            p = put_uvarint(p, (uint64_t)acc_size[ix]);
            last_oid = oid;
            ix++;
            break;
        }
        case T_CALL: {
            uint64_t addr = (uint64_t)op_a[ia++];
            p = put_uvarint(p, zigzag64(addr - last_addr));
            last_addr = addr;
            break;
        }
        case T_RETURN:
            ia++;
            break;
        case T_ALLOC:
            if (op_a[ia] < 0) return -2;
            p = put_uvarint(p, (uint64_t)op_a[ia++]);
            last_oid = next_oid++;
            break;
        case T_FREE: case T_REALLOC: {
            uint64_t oid = (uint64_t)op_a[ia++];
            p = put_uvarint(p, zigzag64(oid - last_oid));
            last_oid = oid;
            if (op == T_REALLOC) {
                if (resize[ir] < 0) return -2;
                p = put_uvarint(p, (uint64_t)resize[ir++]);
            }
            break;
        }
        case T_WORK: {
            double c = works[iw++];
            if (c >= 0 && c < T_EXACT && (double)(int64_t)c == c) {
                p = put_uvarint(p, (uint64_t)(int64_t)c);
            } else {
                uint64_t bits;
                memcpy(&bits, &c, 8);
                p[-1] = T_WORK_F64;
                for (int k = 0; k < 8; k++) *p++ = (uint8_t)(bits >> (8 * k));
            }
            break;
        }
        case T_END:
            break;
        default:
            return -3;
        }
    }
    return p - out;
}

/* Read one LEB128 value; 0 on success, -1 past the end, -3 when it does
 * not fit 64 bits. */
static inline int get_uvarint(const uint8_t **pp, const uint8_t *end, uint64_t *out)
{
    const uint8_t *p = *pp;
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
        if (p >= end) return -1;
        uint8_t b = *p++;
        if (shift == 63 && b > 1) return -3;
        v |= (uint64_t)(b & 0x7F) << shift;
        if (!(b & 0x80)) break;
    }
    *pp = p;
    *out = v;
    return 0;
}

#define T_GET(v) do { int e_ = get_uvarint(&p, end, &(v)); \
                      if (e_) { counts[5] = at; return e_; } } while (0)
#define T_SIZE(v) do { T_GET(v); \
                       if ((v) > (uint64_t)INT64_MAX) { counts[5] = at; return -3; } } while (0)

/* Decode the raw body data[0 .. n).  With kinds == NULL, only count:
 * counts receives events, control ops, reallocs, accesses and works.
 * Otherwise fill the columns, sized from a counting pass.  Returns 0, or
 * -1 for a truncated event, -2 for an unknown opcode, -3 for an
 * over-long varint or a size past INT64_MAX; counts[5] then holds the
 * offending event's offset. */
int64_t halo_trace_decode(const uint8_t *data, int64_t n, int64_t *counts,
                          int8_t *kinds, int64_t *op_a, int64_t *resize,
                          int64_t *acc_oid, int64_t *acc_offset,
                          int64_t *acc_size, double *works)
{
    const uint8_t *p = data, *end = data + n;
    uint64_t last_addr = 0, last_oid = 0, next_oid = 0, v, w, x;
    int64_t ne = 0, ia = 0, ir = 0, ix = 0, iw = 0;
    int fill = kinds != 0;
    while (p < end) {
        int64_t at = p - data;
        int op = *p++;
        switch (op) {
        case T_LOAD: case T_STORE:
            T_GET(v); T_SIZE(w); T_SIZE(x);
            last_oid += (v >> 1) ^ (uint64_t)-(int64_t)(v & 1);
            if (fill) {
                acc_oid[ix] = (int64_t)last_oid;
                acc_offset[ix] = (int64_t)w;
                acc_size[ix] = (int64_t)x;
            }
            ix++;
            break;
        case T_CALL:
            T_GET(v);
            last_addr += (v >> 1) ^ (uint64_t)-(int64_t)(v & 1);
            if (fill) op_a[ia] = (int64_t)last_addr;
            ia++;
            break;
        case T_RETURN:
            if (fill) op_a[ia] = 0;
            ia++;
            break;
        case T_ALLOC:
            T_SIZE(v);
            last_oid = next_oid++;
            if (fill) op_a[ia] = (int64_t)v;
            ia++;
            break;
        case T_FREE: case T_REALLOC:
            T_GET(v);
            last_oid += (v >> 1) ^ (uint64_t)-(int64_t)(v & 1);
            if (op == T_REALLOC) {
                T_SIZE(w);
                if (fill) resize[ir] = (int64_t)w;
                ir++;
            }
            if (fill) op_a[ia] = (int64_t)last_oid;
            ia++;
            break;
        case T_WORK:
            T_GET(v);
            if (fill) works[iw] = (double)v;
            iw++;
            break;
        case T_WORK_F64:
            if (end - p < 8) { counts[5] = at; return -1; }
            if (fill) {
                uint64_t bits = 0;
                for (int k = 0; k < 8; k++) bits |= (uint64_t)p[k] << (8 * k);
                memcpy(&works[iw], &bits, 8);
            }
            p += 8;
            iw++;
            op = T_WORK;
            break;
        case T_END:
            break;
        default:
            counts[5] = at;
            return -2;
        }
        if (fill) kinds[ne] = (int8_t)op;
        ne++;
    }
    counts[0] = ne; counts[1] = ia; counts[2] = ir; counts[3] = ix; counts[4] = iw;
    return 0;
}
"""

_PLACE_SOURCE = r"""
#include <stdlib.h>

/* Heap placement: exact replicas of five repro.allocators policies,
 * driven by a trace's heap columns: SizeClassAllocator; GroupAllocator
 * over a SizeClassAllocator fallback; RandomPoolAllocator (one
 * BumpAllocator per pool) over one; FreeListAllocator, first or best
 * fit; and ArenaAllocator over free lists.  Every decision mirrors the
 * Python method of the same name, in the same order, including the
 * address space's reservation jitter and the random pools' choice:
 * CPython's MT19937, randrange(0, 8) (getrandbits(4), rejecting values
 * >= 8) and choice over n pools (getrandbits(n.bit_length()), rejecting
 * values >= n), each on its own generator's state.
 *
 * A block is tracked by object id, not by address: live blocks never
 * share an address, so this is the allocators' own address-keyed map.
 * Size-class runs keep a free-slot bitmap (the lowest set bit is the
 * heap minimum the Python run pops), and each class a min-heap of its
 * non-full runs by base.  A chunk's `resident` flag says its header page
 * was touched since the last purge of that page.  A free list keeps its
 * ranges in a treap by start whose nodes carry their subtree's longest
 * range, so first fit descends to the leftmost range long enough; best
 * fit keeps a second treap by (length, start).  Placement mallocs at
 * 8-byte alignment, pools are page-aligned and every extent is a
 * multiple of 8, so every range starts 8-aligned and a fit never leaves
 * an alignment gap.
 */

enum { F_SIZE_CLASS, F_GROUP, F_RANDOM_POOLS, F_FREE_LIST, F_ARENA };

enum { P_FAMILY, P_SNAP, P_OBJECTS, P_MAX_SMALL, P_CHUNK, P_SLAB, P_MAX_SPARE,
       P_MAX_GROUPED, P_ALWAYS_REUSE, P_MAX_CHUNKS, P_CURSOR, P_RESERVED,
       P_PEAK_RESERVED, P_SUBS, P_POOL_SIZE, P_MAX_POOLED, P_BEST_FIT };

enum { O_TOP = 0, O_FALLBACK = 5, O_GROUPED_LIVE = 10, O_GROUPED, O_FORWARDED,
       O_DEGRADED, O_CREATED, O_REUSED, O_PURGED, O_CURSOR, O_RESERVED,
       O_PEAK_RESERVED, O_MOVES, O_PURGES, O_CHUNKS, O_RESERVATIONS, O_PEAK_PTR,
       O_PEAK_LIVE, O_PEAK_HIGH, O_PEAK_PURGES, O_PEAK_CHUNKS, O_CROSS_FREES,
       O_FLUSHES, O_RANGES, O_PARKED };

/* Per pool or free list: its stats, then a bump pool's (base, end,
 * cursor) or a free list's (coalesced, in-place, moved) counters. */
enum { S_FIELDS = 8 };

enum { PL_FULL = 1, PL_INVALID = 2, PL_NOMEM = 3 };
enum { PL_DEAD, PL_SMALL, PL_LARGE, PL_GROUPED, PL_POOLED, PL_LISTED };

#define PL_PAGE 4096
#define PL_HEADER 64

typedef struct { int64_t live_bytes, live_blocks, peak, allocs, frees; } PlStats;

typedef struct {
    int64_t base;
    int32_t cls, live, nfree, queued;  /* queued: in its class's heap */
    uint64_t slots[8];                 /* free-slot bitmap, capacity <= 512 */
} PlRun;

typedef struct {
    int64_t base, cursor, high;
    int32_t group, live;
    int32_t resident;
} PlChunk;

/* where: run, reservation row, chunk, pool or free list. */
typedef struct { int64_t addr, size, extent; int32_t where, kind; } PlBlock;

typedef struct { int32_t *v; int64_t n, cap; } PlVec;

/* BumpAllocator: the current region and the bump cursor. */
typedef struct { PlStats st; int64_t base, end, cursor; } PlBump;

/* A free range, as a treap node. */
typedef struct { int64_t start, len, longest; int32_t l, r; uint32_t pri; } PlNode;

/* FreeListAllocator, and as an arena its mailbox of parked blocks. */
typedef struct {
    PlStats st;
    int32_t by_start, by_len;  /* treap roots, -1 when empty */
    int64_t coalesced, inplace, moved;
    int64_t *mail, nmail, cap_mail;  /* (addr, size, extent) per parked block */
} PlList;

typedef struct {
    const int64_t *p, *class_size, *class_cap, *class_bytes, *colour;
    const int32_t *class_of;
    uint32_t mt[625], choice_mt[625];
    int64_t cursor, reserved, peak_reserved;
    int64_t *resv, nresv, cap_resv;
    PlRun *runs;
    int64_t nruns, cap_runs;
    PlVec *nonfull;
    int64_t nclasses;
    PlStats top, fb;
    PlChunk *chunks;
    int64_t nchunks, cap_chunk;
    int64_t *chunk_base;
    int32_t *current;
    PlVec spares;
    int64_t slab_cursor, slab_end;
    int64_t grouped_live, grouped, forwarded, degraded, created, reused, purged;
    int64_t *purge_log, npurge, cap_purge, ptr;
    PlBump *bumps;
    PlList *lists;
    PlNode *nodes;
    int64_t nnodes, cap_nodes;
    int32_t node_free;
    uint32_t pri_state;
    int64_t cross_frees, flushes;
    PlBlock *obj;
    jmp_buf fail;
} Pl;

static inline int64_t pl_align(int64_t v, int64_t a) { return (v + a - 1) & ~(a - 1); }

static uint32_t pl_genrand(uint32_t *mt)
{
    uint32_t y;
    if (mt[624] >= 624) {
        int kk;
        for (kk = 0; kk < 624 - 397; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + 397] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        for (; kk < 623; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk - 227] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        y = (mt[623] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[623] = mt[396] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        mt[624] = 0;
    }
    y = mt[mt[624]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

static void pl_stats_alloc(PlStats *s, int64_t size)
{
    s->live_bytes += size;
    s->live_blocks++;
    s->allocs++;
    if (s->live_bytes > s->peak) s->peak = s->live_bytes;
}

static void pl_stats_free(PlStats *s, int64_t size)
{
    s->live_bytes -= size;
    s->live_blocks--;
    s->frees++;
}

static void pl_stats_resize(PlStats *s, int64_t old_size, int64_t new_size)
{
    s->live_bytes += new_size - old_size;
    if (s->live_bytes > s->peak) s->peak = s->live_bytes;
}

static void pl_push(Pl *q, PlVec *v, int32_t x)
{
    if (v->n == v->cap) {
        int64_t cap = v->cap ? 2 * v->cap : 16;
        int32_t *grown = realloc(v->v, (size_t)cap * sizeof(int32_t));
        if (!grown) longjmp(q->fail, PL_NOMEM);
        v->v = grown;
        v->cap = cap;
    }
    v->v[v->n++] = x;
}

/* AddressSpace.reserve of *request* bytes for *owner* (a pool or free
 * list; -1 for the size-class and group allocators). */
static int64_t pl_reserve(Pl *q, int64_t request, int64_t alignment, int32_t owner)
{
    uint32_t r;
    if (alignment < PL_PAGE) alignment = PL_PAGE;
    int64_t size = pl_align(request, PL_PAGE);
    do r = pl_genrand(q->mt) >> 28; while (r >= 8);
    int64_t base = pl_align(q->cursor + (int64_t)r * PL_PAGE, alignment);
    q->cursor = base + size;
    q->reserved += size;
    if (q->reserved > q->peak_reserved) q->peak_reserved = q->reserved;
    if (q->nresv == q->cap_resv) longjmp(q->fail, PL_FULL);
    int64_t *row = q->resv + 5 * q->nresv++;
    row[0] = base;
    row[1] = size;
    row[2] = 1;
    row[3] = owner;
    row[4] = request;
    return base;
}

/* A class's non-full runs: a binary min-heap of run ids by base. */
static void pl_heap_push(Pl *q, PlVec *h, int32_t id)
{
    pl_push(q, h, id);
    int64_t i = h->n - 1;
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (q->runs[h->v[up]].base <= q->runs[id].base) break;
        h->v[i] = h->v[up];
        i = up;
    }
    h->v[i] = id;
}

static void pl_heap_pop(Pl *q, PlVec *h)
{
    int32_t last = h->v[--h->n];
    int64_t i = 0, n = h->n;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && q->runs[h->v[c + 1]].base < q->runs[h->v[c]].base) c++;
        if (q->runs[last].base <= q->runs[h->v[c]].base) break;
        h->v[i] = h->v[c];
        i = c;
    }
    if (n) h->v[i] = last;
}

/* SizeClassAllocator._nonfull_run: the lowest-addressed non-full run. */
static int32_t pl_nonfull_run(Pl *q, int32_t cls)
{
    PlVec *h = &q->nonfull[cls];
    while (h->n && q->runs[h->v[0]].nfree == 0) {
        q->runs[h->v[0]].queued = 0;
        pl_heap_pop(q, h);
    }
    if (h->n) return h->v[0];
    int64_t base = pl_reserve(q, q->class_bytes[cls], PL_PAGE, -1);
    if (q->nruns == q->cap_runs) {
        int64_t cap = q->cap_runs ? 2 * q->cap_runs : 64;
        PlRun *grown = realloc(q->runs, (size_t)cap * sizeof(PlRun));
        if (!grown) longjmp(q->fail, PL_NOMEM);
        q->runs = grown;
        q->cap_runs = cap;
    }
    int32_t id = (int32_t)q->nruns++;
    PlRun *r = &q->runs[id];
    int64_t cap = q->class_cap[cls];
    r->base = base;
    r->cls = cls;
    r->live = 0;
    r->nfree = (int32_t)cap;
    r->queued = 1;
    for (int w = 0; w < 8; w++) {
        int64_t bits = cap - 64 * w;
        r->slots[w] = bits >= 64 ? ~0ULL : bits > 0 ? (1ULL << bits) - 1 : 0;
    }
    pl_heap_push(q, h, id);
    return id;
}

/* _Run.take: the lowest free slot. */
static int64_t pl_run_take(PlRun *r)
{
    for (int w = 0;; w++) {
        if (r->slots[w]) {
            int64_t slot = 64 * w + __builtin_ctzll(r->slots[w]);
            r->slots[w] &= r->slots[w] - 1;
            return slot;
        }
    }
}

static void pl_sc_malloc(Pl *q, int64_t size, PlBlock *b)
{
    if (size <= 0) longjmp(q->fail, PL_INVALID);
    int64_t want = size >= 8 ? size : 8;
    if (want > q->p[P_MAX_SMALL]) {
        b->addr = pl_reserve(q, pl_align(size, PL_PAGE), PL_PAGE, -1);
        b->kind = PL_LARGE;
        b->where = (int32_t)(q->nresv - 1);
    } else {
        int32_t cls = q->class_of[(want + 7) >> 3];
        int32_t id = pl_nonfull_run(q, cls);
        PlRun *r = &q->runs[id];
        b->addr = r->base + pl_run_take(r) * q->class_size[cls];
        r->live++;
        r->nfree--;
        b->kind = PL_SMALL;
        b->where = id;
    }
    b->size = size;
    pl_stats_alloc(&q->fb, size);
}

static void pl_sc_free(Pl *q, const PlBlock *b)
{
    if (b->kind == PL_LARGE) {
        int64_t *row = q->resv + 5 * b->where;
        q->reserved -= row[1];
        row[2] = 0;
    } else {
        PlRun *r = &q->runs[b->where];
        int64_t slot = (b->addr - r->base) / q->class_size[r->cls];
        r->slots[slot >> 6] |= 1ULL << (slot & 63);
        r->live--;
        if (r->nfree++ == 0 && !r->queued) {
            r->queued = 1;
            pl_heap_push(q, &q->nonfull[r->cls], b->where);
        }
    }
    pl_stats_free(&q->fb, b->size);
}

/* SizeClassAllocator.realloc: in place on a shrink or within the class. */
static void pl_sc_realloc(Pl *q, PlBlock *b, int64_t new_size)
{
    if (new_size <= b->size
        || (b->kind == PL_SMALL && new_size <= q->p[P_MAX_SMALL]
            && q->class_of[(new_size + 7) >> 3] == q->runs[b->where].cls)) {
        pl_stats_resize(&q->fb, b->size, new_size);
        b->size = new_size;
        return;
    }
    PlBlock moved;
    pl_sc_malloc(q, new_size, &moved);
    pl_sc_free(q, b);
    *b = moved;
}

/* AddressSpace.purge of a chunk: every header on its pages goes. */
static void pl_purge(Pl *q, int32_t id)
{
    int64_t first = q->chunks[id].base >> 12;
    int64_t last = (q->chunks[id].base + q->p[P_CHUNK] - 1) >> 12;
    for (int64_t j = id; j >= 0 && (q->chunks[j].base >> 12) >= first; j--)
        q->chunks[j].resident = 0;
    for (int64_t j = id + 1; j < q->nchunks && (q->chunks[j].base >> 12) <= last; j++)
        q->chunks[j].resident = 0;
}

/* GroupAllocator._retire: keep as a spare, purging past the spare limit. */
static void pl_retire(Pl *q, int32_t id)
{
    if (!(q->p[P_ALWAYS_REUSE] || q->spares.n < q->p[P_MAX_SPARE])) {
        if (q->npurge == q->cap_purge) longjmp(q->fail, PL_FULL);
        q->purge_log[2 * q->npurge] = q->ptr;
        q->purge_log[2 * q->npurge + 1] = q->chunks[id].base;
        q->npurge++;
        pl_purge(q, id);
        q->purged++;
    }
    pl_push(q, &q->spares, id);
}

/* The newest spare (the Python list's pop()). */
static int32_t pl_pop_spare(Pl *q)
{
    return q->spares.v[--q->spares.n];
}

/* GroupAllocator._fresh_chunk: a spare, else a new chunk; -1 when capped. */
static int32_t pl_fresh_chunk(Pl *q, int32_t g)
{
    int64_t size = q->p[P_CHUNK];
    PlChunk *c;
    if (q->spares.n) {
        int32_t id = pl_pop_spare(q);
        c = &q->chunks[id];
        c->group = g;
        c->cursor = c->high = c->base + PL_HEADER + q->colour[g];
        c->live = 0;
        c->resident = 1;
        q->reused++;
        return id;
    }
    if (q->p[P_MAX_CHUNKS] >= 0 && q->created >= q->p[P_MAX_CHUNKS]) return -1;
    if (q->slab_cursor + size > q->slab_end) {
        int64_t base = pl_reserve(q, q->p[P_SLAB], size, -1);
        q->slab_cursor = base;
        q->slab_end = base + q->p[P_SLAB];
    }
    if (q->nchunks == q->cap_chunk) longjmp(q->fail, PL_FULL);
    int32_t id = (int32_t)q->nchunks++;
    c = &q->chunks[id];
    c->base = q->chunk_base[id] = q->slab_cursor;
    q->slab_cursor += size;
    c->group = g;
    c->cursor = c->high = c->base + PL_HEADER + q->colour[g];
    c->live = 0;
    c->resident = 1;
    q->created++;
    return id;
}

/* _Chunk.try_reserve at 8-byte alignment; -1 when it does not fit. */
static int64_t pl_try_reserve(Pl *q, PlChunk *c, int64_t size)
{
    int64_t addr = pl_align(c->cursor, 8);
    if (addr + size > c->base + q->p[P_CHUNK]) return -1;
    c->cursor = addr + size;
    if (c->cursor > c->high) c->high = c->cursor;
    c->live++;
    return addr;
}

/* GroupAllocator._group_malloc; 0 when the request degrades. */
static int pl_group_malloc(Pl *q, int32_t g, int64_t size, PlBlock *b)
{
    int32_t id = q->current[g];
    int64_t addr = id >= 0 ? pl_try_reserve(q, &q->chunks[id], size) : -1;
    if (addr < 0) {
        if (id >= 0 && q->chunks[id].live == 0) {
            q->current[g] = -1;
            pl_retire(q, id);
        }
        id = pl_fresh_chunk(q, g);
        if (id < 0) return 0;
        q->current[g] = id;
        addr = pl_try_reserve(q, &q->chunks[id], size);
        if (addr < 0) return 0;
    }
    b->addr = addr;
    b->size = size;
    b->kind = PL_GROUPED;
    b->where = id;
    q->grouped_live += size;
    q->grouped++;
    pl_stats_alloc(&q->top, size);
    return 1;
}

/* GroupAllocator.malloc. */
static void pl_gr_malloc(Pl *q, int64_t size, int32_t g, PlBlock *b)
{
    if (size <= 0) longjmp(q->fail, PL_INVALID);
    if (size < q->p[P_MAX_GROUPED] && g >= 0) {
        if (pl_group_malloc(q, g, size, b)) return;
        q->degraded++;
    }
    q->forwarded++;
    pl_sc_malloc(q, size, b);
}

static void pl_gr_free(Pl *q, PlBlock *b)
{
    if (b->kind != PL_GROUPED) {
        pl_sc_free(q, b);
        return;
    }
    PlChunk *c = &q->chunks[b->where];
    c->live--;
    q->grouped_live -= b->size;
    pl_stats_free(&q->top, b->size);
    if (c->live == 0 && q->current[c->group] != b->where) pl_retire(q, b->where);
}

/* GroupAllocator.realloc: grouped blocks shrink in place, else move. */
static void pl_gr_realloc(Pl *q, PlBlock *b, int64_t new_size, int32_t g)
{
    if (b->kind != PL_GROUPED) {
        pl_sc_realloc(q, b, new_size);
        return;
    }
    if (new_size <= b->size) {
        q->grouped_live -= b->size - new_size;
        pl_stats_resize(&q->top, b->size, new_size);
        b->size = new_size;
        return;
    }
    PlBlock moved;
    pl_gr_malloc(q, new_size, g, &moved);
    pl_gr_free(q, b);
    *b = moved;
}

/* random.Random.choice over n pools: _randbelow(n), that is
 * getrandbits(n.bit_length()) until the draw is below n. */
static int32_t pl_choice(Pl *q, int64_t n)
{
    int shift = __builtin_clzll((uint64_t)n) - 32;  /* 32 - n.bit_length() */
    uint32_t r;
    do r = pl_genrand(q->choice_mt) >> shift; while (r >= n);
    return (int32_t)r;
}

/* RandomPoolAllocator.malloc: small requests bump-allocate in a random
 * pool (BumpAllocator.malloc), the rest go to the size-class fallback. */
static void pl_rp_malloc(Pl *q, int64_t size, PlBlock *b)
{
    if (size >= q->p[P_MAX_POOLED]) {
        pl_sc_malloc(q, size, b);
        return;
    }
    int32_t i = pl_choice(q, q->p[P_SUBS]);
    PlBump *u = &q->bumps[i];
    int64_t pool_size = q->p[P_POOL_SIZE];
    if (size <= 0 || size > pool_size) longjmp(q->fail, PL_INVALID);
    int64_t addr = pl_align(u->cursor, 8);
    if (addr + size > u->end) {
        addr = u->base = pl_reserve(q, pool_size, PL_PAGE, i);
        u->end = addr + pool_size;
    }
    u->cursor = addr + size;
    b->addr = addr;
    b->size = size;
    b->kind = PL_POOLED;
    b->where = i;
    pl_stats_alloc(&u->st, size);
    pl_stats_alloc(&q->top, size);
}

static void pl_rp_free(Pl *q, PlBlock *b)
{
    if (b->kind != PL_POOLED) {
        pl_sc_free(q, b);
        return;
    }
    pl_stats_free(&q->bumps[b->where].st, b->size);
    pl_stats_free(&q->top, b->size);
}

/* Allocator.realloc: a shrink keeps the block and its recorded size; a
 * grow allocates anew, then frees the old block. */
static void pl_rp_realloc(Pl *q, PlBlock *b, int64_t new_size)
{
    if (new_size <= b->size) return;
    PlBlock moved;
    pl_rp_malloc(q, new_size, &moved);
    pl_rp_free(q, b);
    *b = moved;
}

/* A fresh treap node for the free range [start, start + len). */
static int32_t pl_node(Pl *q, int64_t start, int64_t len)
{
    int32_t id = q->node_free;
    if (id >= 0) {
        q->node_free = q->nodes[id].l;
    } else {
        if (q->nnodes == q->cap_nodes) {
            int64_t cap = q->cap_nodes ? 2 * q->cap_nodes : 256;
            PlNode *grown = realloc(q->nodes, (size_t)cap * sizeof(PlNode));
            if (!grown) longjmp(q->fail, PL_NOMEM);
            q->nodes = grown;
            q->cap_nodes = cap;
        }
        id = (int32_t)q->nnodes++;
    }
    PlNode *n = &q->nodes[id];
    n->start = start;
    n->len = n->longest = len;
    n->l = n->r = -1;
    q->pri_state ^= q->pri_state << 13;  /* xorshift32: shape only */
    q->pri_state ^= q->pri_state >> 17;
    q->pri_state ^= q->pri_state << 5;
    n->pri = q->pri_state;
    return id;
}

/* Whether node n orders before the key (len, start): by start, or with
 * by_len by (length, start). */
static inline int pl_before(const PlNode *n, int by_len, int64_t len, int64_t start)
{
    return by_len && n->len != len ? n->len < len : n->start < start;
}

static inline void pl_pull(PlNode *s, int32_t t)
{
    int64_t longest = s[t].len;
    if (s[t].l >= 0 && s[s[t].l].longest > longest) longest = s[s[t].l].longest;
    if (s[t].r >= 0 && s[s[t].r].longest > longest) longest = s[s[t].r].longest;
    s[t].longest = longest;
}

static void pl_split(PlNode *s, int32_t t, int by_len, int64_t len, int64_t start,
                     int32_t *left, int32_t *right)
{
    if (t < 0) {
        *left = *right = -1;
        return;
    }
    if (pl_before(&s[t], by_len, len, start)) {
        pl_split(s, s[t].r, by_len, len, start, &s[t].r, right);
        *left = t;
    } else {
        pl_split(s, s[t].l, by_len, len, start, left, &s[t].l);
        *right = t;
    }
    pl_pull(s, t);
}

static int32_t pl_merge(PlNode *s, int32_t a, int32_t b)
{
    if (a < 0) return b;
    if (b < 0) return a;
    if (s[a].pri > s[b].pri) {
        s[a].r = pl_merge(s, s[a].r, b);
        pl_pull(s, a);
        return a;
    }
    s[b].l = pl_merge(s, a, s[b].l);
    pl_pull(s, b);
    return b;
}

static int32_t pl_insert(PlNode *s, int32_t t, int32_t x, int by_len)
{
    if (t < 0) return x;
    if (s[x].pri > s[t].pri) {
        pl_split(s, t, by_len, s[x].len, s[x].start, &s[x].l, &s[x].r);
        pl_pull(s, x);
        return x;
    }
    if (pl_before(&s[t], by_len, s[x].len, s[x].start)) s[t].r = pl_insert(s, s[t].r, x, by_len);
    else s[t].l = pl_insert(s, s[t].l, x, by_len);
    pl_pull(s, t);
    return t;
}

/* Unlink the range [start, start + len) (starts are unique in a list);
 * its node goes back on the free chain. */
static int32_t pl_erase(Pl *q, int32_t t, int by_len, int64_t len, int64_t start)
{
    PlNode *s = q->nodes;
    if (s[t].start == start) {
        int32_t rest = pl_merge(s, s[t].l, s[t].r);
        s[t].l = q->node_free;
        q->node_free = t;
        return rest;
    }
    if (pl_before(&s[t], by_len, len, start)) s[t].r = pl_erase(q, s[t].r, by_len, len, start);
    else s[t].l = pl_erase(q, s[t].l, by_len, len, start);
    pl_pull(s, t);
    return t;
}

/* FreeListAllocator._index / _unindex. */
static void pl_fl_add(Pl *q, PlList *f, int64_t start, int64_t len)
{
    int32_t x = pl_node(q, start, len);
    f->by_start = pl_insert(q->nodes, f->by_start, x, 0);
    if (q->p[P_BEST_FIT]) {
        x = pl_node(q, start, len);
        f->by_len = pl_insert(q->nodes, f->by_len, x, 1);
    }
}

static void pl_fl_drop(Pl *q, PlList *f, int64_t start, int64_t len)
{
    f->by_start = pl_erase(q, f->by_start, 0, len, start);
    if (q->p[P_BEST_FIT]) f->by_len = pl_erase(q, f->by_len, 1, len, start);
}

/* Move the by-start node of the range at `at` to [start, start + len). */
static void pl_move(PlNode *s, int32_t t, int64_t at, int64_t start, int64_t len)
{
    if (s[t].start == at) {
        s[t].start = start;
        s[t].len = len;
    } else {
        pl_move(s, at < s[t].start ? s[t].l : s[t].r, at, start, len);
    }
    pl_pull(s, t);
}

/* Replace the range [at, at + len) by [start, start + new_len), which
 * overlaps no other range, so its place in address order stays. */
static void pl_fl_resize(Pl *q, PlList *f, int64_t at, int64_t len, int64_t start,
                         int64_t new_len)
{
    pl_move(q->nodes, f->by_start, at, start, new_len);
    if (q->p[P_BEST_FIT]) {
        f->by_len = pl_erase(q, f->by_len, 1, len, at);
        int32_t x = pl_node(q, start, new_len);
        f->by_len = pl_insert(q->nodes, f->by_len, x, 1);
    }
}

/* The range starting at addr, or -1. */
static int32_t pl_fl_at(const PlNode *s, int32_t t, int64_t addr)
{
    while (t >= 0 && s[t].start != addr) t = addr < s[t].start ? s[t].l : s[t].r;
    return t;
}

/* FreeListAllocator._insert_range: add [start, end), merging with a
 * range that ends at start and one that starts at end. */
static void pl_fl_insert(Pl *q, PlList *f, int64_t start, int64_t end)
{
    const PlNode *s = q->nodes;
    int32_t below = -1, t = f->by_start;
    while (t >= 0) {
        if (s[t].start < start) {
            below = t;
            t = s[t].r;
        } else {
            t = s[t].l;
        }
    }
    int32_t above = pl_fl_at(s, f->by_start, end);
    if (below >= 0 && s[below].start + s[below].len != start) below = -1;
    if (below < 0 && above < 0) {
        pl_fl_add(q, f, start, end - start);
        return;
    }
    if (above >= 0) {
        int64_t len = s[above].len;
        if (below >= 0) pl_fl_drop(q, f, end, len);
        else pl_fl_resize(q, f, end, len, start, end + len - start);
        end += len;
    }
    if (below >= 0) {
        int64_t lo = q->nodes[below].start;
        pl_fl_resize(q, f, lo, start - lo, lo, end - lo);
    }
    f->coalesced++;
}

/* FreeListAllocator._carve from the front of [start, start + len). */
static void pl_fl_carve(Pl *q, PlList *f, int64_t start, int64_t len, int64_t extent)
{
    if (len > extent) pl_fl_resize(q, f, start, len, start + extent, len - extent);
    else pl_fl_drop(q, f, start, len);
}

/* FreeListAllocator._find_fit: first fit is the leftmost range at least
 * extent long, best fit the least (length, start) of one. */
static int32_t pl_fl_fit(Pl *q, PlList *f, int64_t extent)
{
    const PlNode *s = q->nodes;
    int32_t t, fit = -1;
    if (q->p[P_BEST_FIT]) {
        for (t = f->by_len; t >= 0;) {
            if (s[t].len >= extent) {
                fit = t;
                t = s[t].l;
            } else {
                t = s[t].r;
            }
        }
        return fit;
    }
    t = f->by_start;
    if (t < 0 || s[t].longest < extent) return -1;
    for (;;) {
        int32_t l = s[t].l;
        if (l >= 0 && s[l].longest >= extent) t = l;
        else if (s[t].len >= extent) return t;
        else t = s[t].r;
    }
}

/* FreeListAllocator.malloc on free list i, growing a pool when no range fits. */
static void pl_fl_malloc(Pl *q, int32_t i, int64_t size, PlBlock *b)
{
    PlList *f = &q->lists[i];
    if (size <= 0) longjmp(q->fail, PL_INVALID);
    int64_t extent = pl_align(size, 8);
    int32_t t = pl_fl_fit(q, f, extent);
    if (t < 0) {  /* _grow_pool */
        int64_t bytes = pl_align(extent, PL_PAGE);
        if (bytes < q->p[P_POOL_SIZE]) bytes = q->p[P_POOL_SIZE];
        int64_t base = pl_reserve(q, bytes, PL_PAGE, i);
        pl_fl_insert(q, f, base, base + bytes);
        t = pl_fl_fit(q, f, extent);
    }
    int64_t start = q->nodes[t].start;
    pl_fl_carve(q, f, start, q->nodes[t].len, extent);
    b->addr = start;
    b->size = size;
    b->extent = extent;
    b->kind = PL_LISTED;
    b->where = i;
    pl_stats_alloc(&f->st, size);
}

static void pl_fl_free(Pl *q, PlBlock *b)
{
    PlList *f = &q->lists[b->where];
    pl_fl_insert(q, f, b->addr, b->addr + b->extent);
    pl_stats_free(&f->st, b->size);
}

/* FreeListAllocator.realloc: shrink in place, grow into the range that
 * starts at the block's end, or move. */
static void pl_fl_realloc(Pl *q, PlBlock *b, int64_t new_size)
{
    PlList *f = &q->lists[b->where];
    if (new_size <= 0) longjmp(q->fail, PL_INVALID);
    int64_t extent = pl_align(new_size, 8), tail = b->addr + b->extent, t = -1;
    if (extent > b->extent) {
        t = pl_fl_at(q->nodes, f->by_start, tail);
        if (t >= 0 && q->nodes[t].len < extent - b->extent) t = -1;
    }
    if (extent <= b->extent || t >= 0) {
        if (extent < b->extent) pl_fl_insert(q, f, b->addr + extent, tail);
        else if (extent > b->extent) pl_fl_carve(q, f, tail, q->nodes[t].len, extent - b->extent);
        b->extent = extent;
        pl_stats_resize(&f->st, b->size, new_size);
        b->size = new_size;
        f->inplace++;
        return;
    }
    PlBlock moved;
    pl_fl_malloc(q, b->where, new_size, &moved);
    pl_fl_free(q, b);
    *b = moved;
    f->moved++;
}

/* ArenaAllocator._flush: the owner frees its parked blocks, in order. */
static void pl_ar_flush(Pl *q, int32_t i)
{
    PlList *f = &q->lists[i];
    if (!f->nmail) return;
    for (int64_t j = 0; j < f->nmail; j++) {
        PlBlock parked = { f->mail[3 * j], f->mail[3 * j + 1], f->mail[3 * j + 2], i, PL_LISTED };
        pl_fl_free(q, &parked);
    }
    f->nmail = 0;
    q->flushes++;
}

/* ArenaAllocator.malloc on thread t's arena. */
static void pl_ar_malloc(Pl *q, int32_t t, int64_t size, PlBlock *b)
{
    pl_ar_flush(q, t);
    pl_fl_malloc(q, t, size, b);
    pl_stats_alloc(&q->top, size);
}

/* ArenaAllocator.free: a foreign block waits in its owner's mailbox. */
static void pl_ar_free(Pl *q, int32_t t, PlBlock *b)
{
    if (b->where == t) {
        pl_fl_free(q, b);
    } else {
        PlList *f = &q->lists[b->where];
        if (f->nmail == f->cap_mail) {
            int64_t cap = f->cap_mail ? 2 * f->cap_mail : 16;
            int64_t *grown = realloc(f->mail, (size_t)(3 * cap) * sizeof(int64_t));
            if (!grown) longjmp(q->fail, PL_NOMEM);
            f->mail = grown;
            f->cap_mail = cap;
        }
        int64_t *row = f->mail + 3 * f->nmail++;
        row[0] = b->addr;
        row[1] = b->size;
        row[2] = b->extent;
        q->cross_frees++;
    }
    pl_stats_free(&q->top, b->size);
}

/* ArenaAllocator.realloc: the owner reallocs in its own free list; any
 * other thread allocates in its own arena and parks the old block. */
static void pl_ar_realloc(Pl *q, int32_t t, PlBlock *b, int64_t new_size)
{
    if (b->where == t) {
        pl_ar_flush(q, t);
        int64_t addr = b->addr, size = b->size;
        pl_fl_realloc(q, b, new_size);
        if (b->addr == addr) {
            pl_stats_resize(&q->top, size, new_size);
        } else {
            pl_stats_free(&q->top, size);
            pl_stats_alloc(&q->top, new_size);
        }
        return;
    }
    PlBlock moved;
    pl_ar_malloc(q, t, new_size, &moved);
    pl_ar_free(q, t, b);
    *b = moved;
}

/* The family's malloc, free and realloc; t is the op's arena. */
static void pl_malloc(Pl *q, int64_t size, int32_t g, int32_t t, PlBlock *b)
{
    switch (q->p[P_FAMILY]) {
    case F_SIZE_CLASS: pl_sc_malloc(q, size, b); break;
    case F_GROUP: pl_gr_malloc(q, size, g, b); break;
    case F_RANDOM_POOLS: pl_rp_malloc(q, size, b); break;
    case F_FREE_LIST: pl_fl_malloc(q, 0, size, b); break;
    default: pl_ar_malloc(q, t, size, b);
    }
}

static void pl_free(Pl *q, PlBlock *b, int32_t t)
{
    switch (q->p[P_FAMILY]) {
    case F_SIZE_CLASS: pl_sc_free(q, b); break;
    case F_GROUP: pl_gr_free(q, b); break;
    case F_RANDOM_POOLS: pl_rp_free(q, b); break;
    case F_FREE_LIST: pl_fl_free(q, b); break;
    default: pl_ar_free(q, t, b);
    }
}

static void pl_realloc(Pl *q, PlBlock *b, int64_t new_size, int32_t g, int32_t t)
{
    switch (q->p[P_FAMILY]) {
    case F_SIZE_CLASS: pl_sc_realloc(q, b, new_size); break;
    case F_GROUP: pl_gr_realloc(q, b, new_size, g); break;
    case F_RANDOM_POOLS: pl_rp_realloc(q, b, new_size); break;
    case F_FREE_LIST: pl_fl_realloc(q, b, new_size); break;
    default: pl_ar_realloc(q, t, b, new_size);
    }
}

/* Write free list sub's ranges out in address order. */
static void pl_emit_ranges(Pl *q, int32_t t, int64_t sub, int64_t *ranges, int64_t cap,
                           int64_t *n)
{
    if (t < 0) return;
    pl_emit_ranges(q, q->nodes[t].l, sub, ranges, cap, n);
    if (*n == cap) longjmp(q->fail, PL_FULL);
    int64_t *row = ranges + 3 * (*n)++;
    row[0] = sub;
    row[1] = q->nodes[t].start;
    row[2] = q->nodes[t].start + q->nodes[t].len;
    pl_emit_ranges(q, q->nodes[t].r, sub, ranges, cap, n);
}

static PlBlock *pl_object(Pl *q, int64_t oid, int64_t objects)
{
    if (oid < 0 || oid >= objects || q->obj[oid].kind == PL_DEAD)
        longjmp(q->fail, PL_INVALID);
    return &q->obj[oid];
}

static void pl_release(Pl *q)
{
    if (q->nonfull)
        for (int64_t c = 0; c < q->nclasses; c++) free(q->nonfull[c].v);
    if (q->lists)
        for (int64_t i = 0; i < q->p[P_SUBS]; i++) free(q->lists[i].mail);
    free(q->nonfull);
    free(q->runs);
    free(q->chunks);
    free(q->current);
    free(q->spares.v);
    free(q->bumps);
    free(q->lists);
    free(q->nodes);
    free(q->obj);
    free(q);
}

/* Place n heap ops (ops/ca/cb/cptr: the heap columns).
 *
 * thread   per heap op: the arena it runs on (F_ARENA only)
 * gid      per ALLOC/REALLOC op: the selector's dense group, -1 = forward
 *          (F_GROUP only)
 * colour   per dense group: its chunks' bump-start offset
 * params   P_* above; P_SNAP is the allocation ordinal (1-based) of the
 *          live peak, 0 for none; P_MAX_CHUNKS < 0 means no cap; P_SUBS
 *          the random pools or free lists
 * class_*  the size-class table ((size + 7) >> 3 -> class) and each
 *          class's region size, run capacity and run bytes
 * mt       the address space's MT19937 state and index (625 words),
 *          advanced in place; choice_mt the random pools' (F_RANDOM_POOLS)
 * bases, realloc_addrs, moves (ptr, oid, addr): one per alloc, realloc,
 *          moving realloc
 * purges   (ptr, base) per chunk purge; resv (base, size, live, owner,
 *          request) per reservation; chunk_base per chunk carved; held[c]
 *          the header flag of chunk c at the peak, held[cap_chunk + c] at
 *          the end
 * subs     S_FIELDS per pool or free list; ranges (sub, start, end) per
 *          free range at the end; parked (sub, addr) per mailboxed block
 * out      O_* above
 *
 * Returns 0; -1 when purges, resv, ranges or the chunk arrays were too
 * small (nothing is written back: retry larger); -2 for an op the Python
 * allocators reject (a bad size or object id); -3 out of memory.
 */
int64_t halo_place(const int64_t *ops, const int64_t *ca, const int64_t *cb,
                   const int64_t *cptr, int64_t n, const int32_t *thread,
                   const int32_t *gid, const int64_t *colour, int64_t ngroups,
                   const int64_t *params, const int32_t *class_of,
                   const int64_t *class_size, const int64_t *class_cap,
                   const int64_t *class_bytes, int64_t nclasses, uint32_t *mt,
                   uint32_t *choice_mt, int64_t *bases, int64_t *realloc_addrs,
                   int64_t *moves, int64_t *purges, int64_t cap_purge, int64_t *resv,
                   int64_t cap_resv, int64_t *chunk_base, int8_t *held, int64_t cap_chunk,
                   int64_t *subs, int64_t *ranges, int64_t cap_ranges, int64_t *parked,
                   int64_t cap_parked, int64_t *out)
{
    Pl *q = calloc(1, sizeof(Pl));
    if (!q) return -3;
    int code = setjmp(q->fail);
    if (code) {
        pl_release(q);
        return -code;
    }
    int64_t objects = params[P_OBJECTS], nsubs = params[P_SUBS];
    int64_t family = params[P_FAMILY];
    q->p = params;
    q->class_of = class_of;
    q->class_size = class_size;
    q->class_cap = class_cap;
    q->class_bytes = class_bytes;
    q->nclasses = nclasses;
    q->colour = colour;
    memcpy(q->mt, mt, sizeof q->mt);
    if (choice_mt) memcpy(q->choice_mt, choice_mt, sizeof q->choice_mt);
    q->cursor = params[P_CURSOR];
    q->reserved = params[P_RESERVED];
    q->peak_reserved = params[P_PEAK_RESERVED];
    q->resv = resv;
    q->cap_resv = cap_resv;
    q->purge_log = purges;
    q->cap_purge = cap_purge;
    q->chunk_base = chunk_base;
    q->cap_chunk = cap_chunk;
    q->node_free = -1;
    q->pri_state = 2463534242U;
    q->nonfull = calloc((size_t)nclasses + 1, sizeof(PlVec));
    q->chunks = malloc(((size_t)cap_chunk + 1) * sizeof(PlChunk));
    q->current = malloc(((size_t)ngroups + 1) * sizeof(int32_t));
    q->bumps = calloc((size_t)nsubs + 1, sizeof(PlBump));
    q->lists = calloc((size_t)nsubs + 1, sizeof(PlList));
    q->obj = calloc((size_t)objects + 1, sizeof(PlBlock));
    if (!q->nonfull || !q->chunks || !q->current || !q->bumps || !q->lists || !q->obj)
        longjmp(q->fail, PL_NOMEM);
    for (int64_t g = 0; g < ngroups; g++) q->current[g] = -1;
    for (int64_t i = 0; i < nsubs; i++) q->lists[i].by_start = q->lists[i].by_len = -1;
    out[O_PEAK_PTR] = -1;

    int64_t nobj = 0, nreal = 0, nmove = 0, k = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t a = ca[i];
        int32_t t = thread ? thread[i] : 0;
        q->ptr = cptr[i];
        if (ops[i] == T_FREE) {
            PlBlock *b = pl_object(q, a, nobj);
            pl_free(q, b, t);
            b->kind = PL_DEAD;
            continue;
        }
        int32_t g = family == F_GROUP ? gid[k++] : -1;
        if (ops[i] == T_ALLOC) {
            if (nobj == objects) longjmp(q->fail, PL_INVALID);
            pl_malloc(q, a, g, t, &q->obj[nobj]);
            bases[nobj] = q->obj[nobj].addr;
            if (++nobj == params[P_SNAP]) {
                int64_t high = 0;
                for (int64_t c = 0; c < q->nchunks; c++) {
                    high += q->chunks[c].high - (q->chunks[c].base + PL_HEADER);
                    held[c] = (int8_t)q->chunks[c].resident;
                }
                out[O_PEAK_PTR] = q->ptr;
                out[O_PEAK_LIVE] = q->grouped_live;
                out[O_PEAK_HIGH] = high;
                out[O_PEAK_PURGES] = q->npurge;
                out[O_PEAK_CHUNKS] = q->nchunks;
            }
        } else {
            PlBlock *b = pl_object(q, a, nobj);
            int64_t old = b->addr;
            pl_realloc(q, b, cb[i], g, t);
            realloc_addrs[nreal++] = b->addr;
            if (b->addr != old) {
                moves[3 * nmove] = q->ptr;
                moves[3 * nmove + 1] = a;
                moves[3 * nmove + 2] = b->addr;
                nmove++;
            }
        }
    }

    int64_t nranges = 0, nparked = 0;
    for (int64_t i = 0; i < nsubs; i++) {
        const PlList *f = &q->lists[i];
        int64_t *row = subs + S_FIELDS * i;
        const PlStats *st = &f->st;
        if (family == F_RANDOM_POOLS) {
            st = &q->bumps[i].st;
            row[5] = q->bumps[i].base;
            row[6] = q->bumps[i].end;
            row[7] = q->bumps[i].cursor;
        } else {
            row[5] = f->coalesced;
            row[6] = f->inplace;
            row[7] = f->moved;
            pl_emit_ranges(q, f->by_start, i, ranges, cap_ranges, &nranges);
            for (int64_t j = 0; j < f->nmail; j++) {
                if (nparked == cap_parked) longjmp(q->fail, PL_FULL);
                parked[2 * nparked] = i;
                parked[2 * nparked++ + 1] = f->mail[3 * j];
            }
        }
        row[0] = st->live_bytes;
        row[1] = st->live_blocks;
        row[2] = st->peak;
        row[3] = st->allocs;
        row[4] = st->frees;
    }
    const PlStats *stats[2] = { &q->top, &q->fb };
    for (int s = 0; s < 2; s++) {
        int64_t *o = out + (s ? O_FALLBACK : O_TOP);
        o[0] = stats[s]->live_bytes;
        o[1] = stats[s]->live_blocks;
        o[2] = stats[s]->peak;
        o[3] = stats[s]->allocs;
        o[4] = stats[s]->frees;
    }
    out[O_GROUPED_LIVE] = q->grouped_live;
    out[O_GROUPED] = q->grouped;
    out[O_FORWARDED] = q->forwarded;
    out[O_DEGRADED] = q->degraded;
    out[O_CREATED] = q->created;
    out[O_REUSED] = q->reused;
    out[O_PURGED] = q->purged;
    out[O_CURSOR] = q->cursor;
    out[O_RESERVED] = q->reserved;
    out[O_PEAK_RESERVED] = q->peak_reserved;
    out[O_MOVES] = nmove;
    out[O_PURGES] = q->npurge;
    out[O_CHUNKS] = q->nchunks;
    out[O_RESERVATIONS] = q->nresv;
    out[O_CROSS_FREES] = q->cross_frees;
    out[O_FLUSHES] = q->flushes;
    out[O_RANGES] = nranges;
    out[O_PARKED] = nparked;
    for (int64_t c = 0; c < q->nchunks; c++) held[cap_chunk + c] = (int8_t)q->chunks[c].resident;
    memcpy(mt, q->mt, sizeof q->mt);
    if (choice_mt) memcpy(choice_mt, q->choice_mt, sizeof q->choice_mt);
    pl_release(q);
    return 0;
}
"""

_SOURCE = _LRU_SOURCE + _SEQUITUR_SOURCE + _AFFINITY_SOURCE + _TRACE_SOURCE + _PLACE_SOURCE

_I8P = ctypes.POINTER(ctypes.c_int8)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_F64P = ctypes.POINTER(ctypes.c_double)
_I32P = ctypes.POINTER(ctypes.c_int32)
_U32P = ctypes.POINTER(ctypes.c_uint32)
_I64P = ctypes.POINTER(ctypes.c_int64)


class _Library(NamedTuple):
    """The compiled library's entry points."""

    lru: Callable[..., int]
    fa: Callable[..., int]
    sequitur: Callable[..., int]
    affinity: Callable[..., int]
    trace_encode: Callable[..., int]
    trace_decode: Callable[..., int]
    place: Callable[..., int]


#: Memoised compiled library; False means "tried and failed".
_kernel = None


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


def _bind(lib: ctypes.CDLL, name: str, argtypes: list) -> Callable[..., int]:
    fn = getattr(lib, name)
    fn.restype = ctypes.c_int64
    fn.argtypes = argtypes
    return fn


def _load() -> Optional[_Library]:
    """The compiled library, or None when unavailable."""
    global _kernel
    if _kernel is None:
        if os.environ.get("REPRO_COLUMNAR_DISABLE_CC"):
            _kernel = False
        else:
            i64 = ctypes.c_int64
            try:
                lib = _compile()
                _kernel = _Library(
                    lru=_bind(lib, "halo_lru_filter",
                              [_I64P, i64, i64, i64, i64, _I64P, _I64P, _I64P]),
                    fa=_bind(lib, "halo_lru_fa", [_I64P, i64, i64, _I64P, _I64P]),
                    sequitur=_bind(lib, "halo_sequitur", [
                        _I32P, i64, _I32P, i64, _I32P, i64, _I64P, _I32P, i64,
                        _I32P, _I32P, _I32P, i64,
                    ]),
                    affinity=_bind(lib, "halo_affinity", [
                        _I32P, _I32P, i64, _I32P, _I8P, _I32P, _I32P, i64, i64,
                        _I32P, _I32P, _I64P, _I64P, _I32P, i64,
                        _I32P, _I32P, _I64P, i64, _I64P,
                    ]),
                    trace_encode=_bind(lib, "halo_trace_encode", [
                        _I8P, i64, _I64P, _I64P, _I64P, _I64P, _I64P, _F64P, _U8P, i64,
                    ]),
                    trace_decode=_bind(lib, "halo_trace_decode", [
                        _U8P, i64, _I64P, _I8P, _I64P, _I64P, _I64P, _I64P, _I64P, _F64P,
                    ]),
                    place=_bind(lib, "halo_place", [
                        _I64P, _I64P, _I64P, _I64P, i64, _I32P, _I32P, _I64P, i64, _I64P,
                        _I32P, _I64P, _I64P, _I64P, i64, _U32P, _U32P,
                        _I64P, _I64P, _I64P, _I64P, i64, _I64P, i64,
                        _I64P, _I8P, i64, _I64P, _I64P, i64, _I64P, i64, _I64P,
                    ]),
                )
            except Exception as exc:  # pragma: no cover - environment-dependent
                logger.warning("compiled kernels unavailable (%s); using Python fallbacks", exc)
                _kernel = False
    return _kernel or None


def kernel_backend() -> str:
    """Which backend every entry point of this module runs on: ``"c"`` or
    ``"python"``."""
    return "c" if _load() is not None else "python"


def _entry(kernel: str) -> Optional[_Library]:
    """The library for one entry-point call, counted by backend.

    ``kernel.calls{kernel, backend}`` lets a run show that no call fell
    back to Python; a no-op when observability is off.
    """
    lib = _load()
    obs.inc("kernel.calls", kernel=kernel, backend="c" if lib is not None else "python")
    return lib


def _sequitur_capacity(n: int) -> tuple[int, int, int]:
    """First-try work sizes for *n* terminals: symbol slots, rule slots, index bits.

    Every trace met so far used under 5 symbol slots and 0.75 rule
    creations per terminal; the index stays at most half full.
    """
    return 5 * n + 64, n - n // 4 + 16, (2 * n + 8).bit_length()


def sequitur(codes: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """SEQUITUR grammar of int32 terminal *codes* as flat arrays, or None.

    Returns ``(rule_ids, offsets, body)`` in the form
    :class:`repro.hds.streams.FlatGrammar` holds, or None when the
    compiled library is unavailable (the caller then runs the Python
    :class:`~repro.hds.sequitur.Sequitur`).  The kernel's state lives in
    int32 work arrays allocated here and released with the call; they
    start at a size that fits every grammar met so far and double until
    the build fits.
    """
    lib = _entry("sequitur")
    if lib is None:
        return None
    codes = np.ascontiguousarray(codes, dtype=np.int32)
    n = int(codes.shape[0])
    cap_sym, cap_rule, hbits = _sequitur_capacity(n)
    cap_body = n + 1  # a grammar never has more symbols than its input
    while True:
        sym = np.empty(3 * cap_sym, dtype=np.int32)
        rule = np.empty(5 * cap_rule, dtype=np.int32)
        hkey = np.empty(1 << hbits, dtype=np.int64)
        hsym = np.empty(1 << hbits, dtype=np.int32)
        rule_ids = np.empty(cap_rule, dtype=np.int32)
        offsets = np.empty(cap_rule + 1, dtype=np.int32)
        body = np.empty(cap_body, dtype=np.int32)
        count = lib.sequitur(
            codes.ctypes.data_as(_I32P), n,
            sym.ctypes.data_as(_I32P), cap_sym, rule.ctypes.data_as(_I32P), cap_rule,
            hkey.ctypes.data_as(_I64P), hsym.ctypes.data_as(_I32P), hbits,
            rule_ids.ctypes.data_as(_I32P), offsets.ctypes.data_as(_I32P),
            body.ctypes.data_as(_I32P), cap_body,
        )
        if count >= 0:
            end = int(offsets[count])
            return rule_ids[:count].copy(), offsets[: count + 1].copy(), body[:end].copy()
        cap_sym, cap_rule, hbits, cap_body = 2 * cap_sym, 2 * cap_rule, hbits + 1, 2 * cap_body


def _affinity_capacity(contexts: int) -> int:
    """First-try edge slots for a graph over *contexts* contexts.

    A graph has at most one edge per unordered context pair (loops
    included); the paper benchmarks' graphs hold a few dozen.
    """
    return min(contexts * (contexts + 1) // 2, 256) + 1


def affinity(
    oids: np.ndarray,
    nbytes: np.ndarray,
    cid: np.ndarray,
    groupable: np.ndarray,
    prev: np.ndarray,
    next_: np.ndarray,
    distance: int,
    enforce: bool,
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Drive the affinity queue with a deduplicated access stream, or None.

    *oids*/*nbytes* are the macro accesses; *cid*, *groupable*, *prev* and
    *next_* are per-object columns indexed by object id, which is also the
    allocation sequence number (*prev*/*next_*: the same context's
    neighbouring allocation, -1 or ``INT32_MAX`` when none).  Returns the
    edges in first-insertion order as ``(lo, hi, weight)`` columns plus the
    window length at the end, or None when the compiled library is
    unavailable (the caller then drives
    :class:`~repro.profiling.affinity.AffinityRecorder`).  The window and
    edge index live in int32 work arrays allocated here; the edge arrays
    start small and double until the graph fits.
    """
    lib = _entry("affinity")
    if lib is None:
        return None
    oids = np.ascontiguousarray(oids, dtype=np.int32)
    nbytes = np.ascontiguousarray(nbytes, dtype=np.int32)
    cid = np.ascontiguousarray(cid, dtype=np.int32)
    groupable = np.ascontiguousarray(groupable, dtype=np.int8)
    prev = np.ascontiguousarray(prev, dtype=np.int32)
    next_ = np.ascontiguousarray(next_, dtype=np.int32)
    objects = int(cid.shape[0])
    if any(column.shape[0] != objects for column in (groupable, prev, next_)):
        raise ValueError("per-object columns differ in length")
    if oids.shape[0] != nbytes.shape[0]:
        raise ValueError("access columns differ in length")
    if oids.shape[0] and (int(oids.min()) < 0 or int(oids.max()) >= objects):
        raise ValueError("access to an object id outside the per-object columns")
    contexts = int(cid.max()) + 1 if objects else 0
    cap_edge = _affinity_capacity(contexts)
    wprev = np.empty(objects, dtype=np.int32)
    wnext = np.empty(objects, dtype=np.int32)
    after = np.empty(objects, dtype=np.int64)
    out = np.zeros(1, dtype=np.int64)
    while True:
        hbits = (2 * cap_edge).bit_length()
        hkey = np.empty(1 << hbits, dtype=np.int64)
        hedge = np.empty(1 << hbits, dtype=np.int32)
        lo = np.empty(cap_edge, dtype=np.int32)
        hi = np.empty(cap_edge, dtype=np.int32)
        weight = np.empty(cap_edge, dtype=np.int64)
        after.fill(-1)
        edges = lib.affinity(
            oids.ctypes.data_as(_I32P), nbytes.ctypes.data_as(_I32P), int(oids.shape[0]),
            cid.ctypes.data_as(_I32P), groupable.ctypes.data_as(_I8P),
            prev.ctypes.data_as(_I32P), next_.ctypes.data_as(_I32P),
            distance, 1 if enforce else 0,
            wprev.ctypes.data_as(_I32P), wnext.ctypes.data_as(_I32P),
            after.ctypes.data_as(_I64P),
            hkey.ctypes.data_as(_I64P), hedge.ctypes.data_as(_I32P), hbits,
            lo.ctypes.data_as(_I32P), hi.ctypes.data_as(_I32P),
            weight.ctypes.data_as(_I64P), cap_edge, out.ctypes.data_as(_I64P),
        )
        if edges >= 0:
            return lo[:edges], hi[:edges], weight[:edges], int(out[0])
        cap_edge *= 2


def _check_layout(kinds: np.ndarray, op_a: int, resize: int, accesses: int, works: int) -> None:
    """Raise ValueError unless each column holds one entry per event using it.

    Control ops (CALL .. REALLOC) take an ``op_a`` entry, reallocs also a
    ``resize`` one, loads and stores an access, work events a ``works``
    entry; ``OP_WORK_F64`` (8) is a wire code only, never a kind.
    """
    counts = np.bincount(kinds.view(np.uint8), minlength=256)
    expected = (int(counts[:5].sum()), int(counts[4]), int(counts[5] + counts[6]), int(counts[7]))
    if counts[8] or counts[10:].any() or expected != (op_a, resize, accesses, works):
        raise ValueError("trace columns do not match the kinds column")


def trace_encode(
    kinds: np.ndarray,
    op_a: np.ndarray,
    resize: np.ndarray,
    acc_oid: np.ndarray,
    acc_offset: np.ndarray,
    acc_size: np.ndarray,
    works: np.ndarray,
) -> Optional[bytes]:
    """The uncompressed v3 event body of raw trace columns, or None.

    *kinds* holds one opcode per event; *op_a* one entry per control op
    (call site, allocation size or oid; 0 for a return), *resize* one per
    realloc, the ``acc_*`` columns one per load/store and *works* one per
    work event.  Byte-identical to :class:`repro.trace.format.TraceWriter`'s
    Python encoder, which runs when this returns None (no compiled
    library).  Raises ValueError for columns that do not fit *kinds* or a
    negative size or offset, which LEB128 cannot carry.
    """
    lib = _entry("trace_encode")
    if lib is None:
        return None
    kinds = np.ascontiguousarray(kinds, dtype=np.int8)
    op_a, resize, acc_oid, acc_offset, acc_size = (
        np.ascontiguousarray(column, dtype=np.int64)
        for column in (op_a, resize, acc_oid, acc_offset, acc_size)
    )
    works = np.ascontiguousarray(works, dtype=np.float64)
    if not acc_offset.shape[0] == acc_size.shape[0] == acc_oid.shape[0]:
        raise ValueError("access columns differ in length")
    _check_layout(kinds, op_a.shape[0], resize.shape[0], acc_oid.shape[0], works.shape[0])
    n = int(kinds.shape[0])
    cap = 8 * n + 64  # bodies run 3-5 bytes per event
    while True:
        out = np.empty(cap, dtype=np.uint8)
        size = lib.trace_encode(
            kinds.ctypes.data_as(_I8P), n, op_a.ctypes.data_as(_I64P),
            resize.ctypes.data_as(_I64P), acc_oid.ctypes.data_as(_I64P),
            acc_offset.ctypes.data_as(_I64P), acc_size.ctypes.data_as(_I64P),
            works.ctypes.data_as(_F64P), out.ctypes.data_as(_U8P), cap,
        )
        if size >= 0:
            return out[:size].tobytes()
        if size == -2:
            raise ValueError("negative size or offset: not encodable as LEB128")
        if size != -1:
            raise ValueError("kinds column holds a code that is not an event kind")
        cap *= 2


_DECODE_ERRORS = {
    -1: "truncated event",
    -2: "unknown opcode",
    -3: "over-long varint",
}


def trace_decode(raw: bytes) -> Optional[tuple[np.ndarray, ...]]:
    """Raw trace columns of an uncompressed v3 event body, or None.

    The inverse of :func:`trace_encode`: returns ``(kinds, op_a, resize,
    acc_oid, acc_offset, acc_size, works)``, or None when the compiled
    library is unavailable (the caller then runs the Python decoder).  A
    counting pass sizes the columns, a second fills them.  Raises
    ValueError, naming the body offset, for a truncated event, an unknown
    opcode or a varint that does not fit 64 bits.
    """
    lib = _entry("trace_decode")
    if lib is None:
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    n = int(data.shape[0])
    counts = np.zeros(6, dtype=np.int64)
    code = lib.trace_decode(
        data.ctypes.data_as(_U8P), n, counts.ctypes.data_as(_I64P),
        None, None, None, None, None, None, None,
    )
    if code:
        at = int(counts[5])
        raise ValueError(f"{_DECODE_ERRORS[code]} (opcode {data[at]}) at body offset {at}")
    events, ctrl, reallocs, accesses, works_n = (int(c) for c in counts[:5])
    kinds = np.empty(events, dtype=np.int8)
    op_a = np.empty(ctrl, dtype=np.int64)
    resize = np.empty(reallocs, dtype=np.int64)
    acc_oid, acc_offset, acc_size = (np.empty(accesses, dtype=np.int64) for _ in range(3))
    works = np.empty(works_n, dtype=np.float64)
    lib.trace_decode(
        data.ctypes.data_as(_U8P), n, counts.ctypes.data_as(_I64P),
        kinds.ctypes.data_as(_I8P), op_a.ctypes.data_as(_I64P),
        resize.ctypes.data_as(_I64P), acc_oid.ctypes.data_as(_I64P),
        acc_offset.ctypes.data_as(_I64P), acc_size.ctypes.data_as(_I64P),
        works.ctypes.data_as(_F64P),
    )
    return kinds, op_a, resize, acc_oid, acc_offset, acc_size, works


#: The allocator families ``halo_place`` replicates; ``params["family"]``
#: is an index into this tuple.
PLACE_FAMILIES = ("size-class", "group", "random-pools", "free-list", "arena")
#: ``halo_place``'s parameter slots, in the C ``P_*`` order.
PLACE_PARAMS = (
    "family", "snap", "objects", "max_small", "chunk_size", "slab_size",
    "max_spare_chunks", "max_grouped_size", "always_reuse_chunks", "max_total_chunks",
    "cursor", "reserved_bytes", "peak_reserved_bytes", "subs", "pool_size",
    "max_pooled_size", "best_fit",
)
#: ``halo_place``'s scalar outputs after the two stats blocks, in the C
#: ``O_*`` order.
PLACE_COUNTERS = (
    "grouped_live_bytes", "grouped_allocs", "forwarded_allocs", "degraded_allocs",
    "chunks_created", "chunks_reused", "chunks_purged", "cursor", "reserved_bytes",
    "peak_reserved_bytes", "moves", "purges", "chunks", "reservations", "peak_ptr",
    "peak_live_bytes", "peak_high_water_bytes", "peak_purges", "peak_chunks",
    "cross_thread_frees", "mailbox_flushes", "ranges", "parked",
)
#: Each row of :attr:`Placed.subs` after the ``AllocatorStats`` fields: a
#: bump pool's attributes, or a free list's counters.
PLACE_BUMP_FIELDS = ("_pool_base", "_pool_end", "_cursor")
PLACE_LIST_FIELDS = ("coalesced_frees", "inplace_reallocs", "moved_reallocs")


class Placed(NamedTuple):
    """What :func:`place` put out.

    ``stats``/``fallback_stats`` are the top and fallback allocators'
    ``AllocatorStats`` fields in declaration order; ``moves`` holds
    ``(acc_ptr, oid, addr)`` rows, ``purges`` ``(acc_ptr, base)`` rows and
    ``reservations`` ``(base, size, live, owner, request)`` rows in
    reservation order (*owner* is the pool or free list that asked for
    *request* bytes, -1 for the size-class and group allocators);
    ``held_peak``/``held_end`` flag the chunks (by carve order) whose
    header page is resident at the peak and at the end.  ``subs`` has one
    row per random pool or free list (arena): its ``AllocatorStats``
    fields, then :data:`PLACE_BUMP_FIELDS` or :data:`PLACE_LIST_FIELDS`;
    ``ranges`` holds the free lists' ``(sub, start, end)`` ranges in
    address order and ``parked`` the arenas' ``(sub, addr)`` mailboxes in
    order; ``choice_mt`` is the random pools' advanced generator state.
    """

    bases: np.ndarray
    realloc_addrs: np.ndarray
    moves: np.ndarray
    purges: np.ndarray
    reservations: np.ndarray
    chunk_bases: np.ndarray
    held_peak: np.ndarray
    held_end: np.ndarray
    stats: tuple[int, ...]
    fallback_stats: tuple[int, ...]
    counters: dict[str, int]
    mt: list[int]
    subs: np.ndarray
    ranges: np.ndarray
    parked: np.ndarray
    choice_mt: Optional[list[int]]


def _check_place_inputs(
    n: int, params: dict[str, int], classes, gid, colours, threads, choice_mt, reallocs: int
) -> None:
    """Raise ValueError unless :func:`place`'s inputs fit its family."""
    family = params["family"]
    if not 0 <= family < len(PLACE_FAMILIES):
        raise ValueError(f"unknown placement family {family}")
    name = PLACE_FAMILIES[family]
    subs = params["subs"]
    if name in ("size-class", "group", "random-pools"):
        class_of, class_size, class_cap, class_bytes = classes
        if (
            class_of.shape[0] <= params["max_small"] >> 3
            or not class_size.shape[0] == class_cap.shape[0] == class_bytes.shape[0]
            or int(class_of.min()) < 0
            or int(class_of.max()) >= class_size.shape[0]
            or not 1 <= int(class_cap.min()) <= int(class_cap.max()) <= 512
        ):
            raise ValueError(
                "size-class tables must map every small size to a run of 1-512 regions"
            )
    if name == "group":
        chunk = params["chunk_size"]
        if chunk <= 0 or chunk & (chunk - 1):
            raise ValueError(f"chunk size must be a power of two, got {chunk}")
        if gid is None or gid.shape[0] != params["objects"] + reallocs or (
            gid.shape[0] and not -1 <= int(gid.min()) <= int(gid.max()) < colours.shape[0]
        ):
            raise ValueError("group column does not hold one known group per malloc")
    elif name == "random-pools":
        if not 1 <= subs < 1 << 31 or params["pool_size"] <= 0:
            raise ValueError("random pools need 1 to 2**31 - 1 pools of a positive size")
        if choice_mt is None or len(choice_mt) != 625:
            raise ValueError("the pools' MT19937 state must be 624 words and an index")
    elif name in ("free-list", "arena"):
        if subs < 1 or (name == "free-list" and subs != 1) or params["pool_size"] < 4096:
            raise ValueError("free lists need pools of at least a page, and one list unless arenas")
    if name == "arena":
        if threads is None or threads.shape[0] != n or (
            n and not 0 <= int(threads.min()) <= int(threads.max()) < subs
        ):
            raise ValueError("thread column does not name one arena per heap op")


def place(
    heap: tuple[np.ndarray, ...],
    params: dict[str, int],
    mt: list[int],
    classes: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None,
    *,
    gid: Optional[np.ndarray] = None,
    colours: Optional[np.ndarray] = None,
    threads: Optional[np.ndarray] = None,
    choice_mt: Optional[list[int]] = None,
) -> Optional[Placed]:
    """Place a trace's heap ops on a compiled allocator replica, or None.

    *heap* is :attr:`~repro.trace.format.TraceColumns.heap`, *params*
    every :data:`PLACE_PARAMS` slot (``family`` indexes
    :data:`PLACE_FAMILIES`) and *mt* the 625 words of the address space's
    ``random.Random`` state.  By family: the size-class, group and
    random-pool replicas take *classes*, the size-class table
    ``(class_of, region_size, run_capacity, run_bytes)``; the group
    replica *gid*, one dense group index per allocation and realloc (-1:
    forward), and *colours*, each dense group's bump-start offset; the
    random pools *choice_mt*, their own generator's state; the arenas
    *threads*, each heap op's arena.  Returns None when the compiled
    library is unavailable or an op is one the Python allocators reject
    (the caller then runs them, which raises the same error).  Output
    arrays the trace does not size (purges, reservations, chunks, free
    ranges) start small and double until the pass fits.
    """
    lib = _entry("place")
    if lib is None:
        return None
    ops, a, b, ptr = (np.ascontiguousarray(column, dtype=np.int64) for column in heap)
    n = int(ops.shape[0])
    allocs = params["objects"]
    reallocs = int(np.count_nonzero(ops == 4))  # OP_REALLOC
    if classes is None:
        classes = (np.zeros(1, dtype=np.int32),) + (np.ones(1, dtype=np.int64),) * 3
    class_of = np.ascontiguousarray(classes[0], dtype=np.int32)
    class_size, class_cap, class_bytes = (
        np.ascontiguousarray(column, dtype=np.int64) for column in classes[1:]
    )
    gid = None if gid is None else np.ascontiguousarray(gid, dtype=np.int32)
    colours = np.ascontiguousarray(np.zeros(0) if colours is None else colours, dtype=np.int64)
    threads = None if threads is None else np.ascontiguousarray(threads, dtype=np.int32)
    param = np.array([params[name] for name in PLACE_PARAMS], dtype=np.int64)
    if not a.shape[0] == b.shape[0] == ptr.shape[0] == n:
        raise ValueError("heap columns differ in length")
    if n and (int(ops.min()) < 2 or int(ops.max()) > 4):  # OP_ALLOC .. OP_REALLOC
        raise ValueError("heap columns hold an op that is not alloc, free or realloc")
    if len(mt) != 625:
        raise ValueError("MT19937 state must be 624 words and an index")
    _check_place_inputs(n, params, classes, gid, colours, threads, choice_mt, reallocs)
    subs = np.zeros((params["subs"], 8), dtype=np.int64)
    bases = np.empty(allocs, dtype=np.int64)
    realloc_addrs = np.empty(reallocs, dtype=np.int64)
    moves = np.empty(3 * reallocs, dtype=np.int64)
    parked = np.empty(2 * (n - allocs), dtype=np.int64)
    out = np.zeros(10 + len(PLACE_COUNTERS), dtype=np.int64)
    cap = 64 + (allocs + reallocs) // 16
    while True:
        state = np.array(mt, dtype=np.uint32)
        choice = None if choice_mt is None else np.array(choice_mt, dtype=np.uint32)
        purges = np.empty(2 * cap, dtype=np.int64)
        resv = np.empty(5 * cap, dtype=np.int64)
        chunk_bases = np.empty(cap, dtype=np.int64)
        held = np.zeros(2 * cap, dtype=np.int8)
        # A free range ends at a pool's end or a carved block.
        ranges = np.empty(3 * (allocs + cap), dtype=np.int64)
        code = lib.place(
            ops.ctypes.data_as(_I64P), a.ctypes.data_as(_I64P), b.ctypes.data_as(_I64P),
            ptr.ctypes.data_as(_I64P), n,
            None if threads is None else threads.ctypes.data_as(_I32P),
            None if gid is None else gid.ctypes.data_as(_I32P),
            colours.ctypes.data_as(_I64P), int(colours.shape[0]), param.ctypes.data_as(_I64P),
            class_of.ctypes.data_as(_I32P), class_size.ctypes.data_as(_I64P),
            class_cap.ctypes.data_as(_I64P), class_bytes.ctypes.data_as(_I64P),
            int(class_size.shape[0]), state.ctypes.data_as(_U32P),
            None if choice is None else choice.ctypes.data_as(_U32P),
            bases.ctypes.data_as(_I64P), realloc_addrs.ctypes.data_as(_I64P),
            moves.ctypes.data_as(_I64P), purges.ctypes.data_as(_I64P), cap,
            resv.ctypes.data_as(_I64P), cap, chunk_bases.ctypes.data_as(_I64P),
            held.ctypes.data_as(_I8P), cap, subs.ctypes.data_as(_I64P),
            ranges.ctypes.data_as(_I64P), allocs + cap, parked.ctypes.data_as(_I64P),
            n - allocs, out.ctypes.data_as(_I64P),
        )
        if code == 0:
            break
        if code == -2:
            return None
        if code == -3:
            raise MemoryError("placement kernel ran out of memory")
        cap *= 2
    counters = dict(zip(PLACE_COUNTERS, out[10:].tolist()))
    chunks = counters["chunks"]
    return Placed(
        bases=bases,
        realloc_addrs=realloc_addrs,
        moves=moves[:3 * counters["moves"]].reshape(-1, 3),
        purges=purges[:2 * counters["purges"]].reshape(-1, 2),
        reservations=resv[:5 * counters["reservations"]].reshape(-1, 5),
        chunk_bases=chunk_bases[:chunks],
        held_peak=held[:counters["peak_chunks"]].astype(bool),
        held_end=held[cap:cap + chunks].astype(bool),
        stats=tuple(out[:5].tolist()),
        fallback_stats=tuple(out[5:10].tolist()),
        counters=counters,
        mt=state.tolist(),
        subs=subs,
        ranges=ranges[:3 * counters["ranges"]].reshape(-1, 3),
        parked=parked[:2 * counters["parked"]].reshape(-1, 2),
        choice_mt=None if choice is None else choice.tolist(),
    )


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
    lib = _entry("lru")
    n = int(keys.shape[0])
    if n == 0:
        return 0, keys[:0]
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if num_sets * assoc >= n:
        missed = _fits(keys, num_sets, assoc)
        if missed is not None:
            return int(missed.shape[0]), missed
    if lib is None:
        return _lru_filter_py(keys, num_sets, assoc)
    miss_out = np.empty(n, dtype=np.int64)
    if num_sets == 1:
        ways = np.empty(assoc, dtype=np.int64)
        misses = lib.fa(
            keys.ctypes.data_as(_I64P), n, assoc,
            ways.ctypes.data_as(_I64P), miss_out.ctypes.data_as(_I64P),
        )
        return int(misses), miss_out[:misses].copy()
    tags = np.full(num_sets * assoc, -1, dtype=np.int64)
    stamps = np.zeros(num_sets * assoc, dtype=np.int64)
    misses = lib.lru(
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

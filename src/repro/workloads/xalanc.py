"""xalanc — SPEC CPU2017's XSLT processor.

The paper singles xalanc out for "significant indirection in its call
chains, requiring the traversal of tens of stack frames to properly
appreciate the context in which allocations have been made", and for using
custom allocator plumbing (``XMemory``/vector allocators) that funnels
everything through the same few low-level sites.  Site-keyed HDS
identification fails; HALO's full-context selectors deliver the paper's
second-largest speedup (~16 %, with ~13 % of L1D misses removed).

Synthetic structure: DOM nodes and their attribute entries are allocated
through a deep ``build_dom → append_child → vector_push → xmemory_allocate
→ malloc`` chain; result-tree nodes come through an equally deep transform
chain; parser string buffers flow through the same ``xmemory_allocate``
funnel (so the baseline interleaves everything, and immediate-site
identification sees one context).  The transform phase repeatedly walks
the DOM with its attributes — the hot traversal.
"""

from __future__ import annotations

import random

from ..machine.machine import Machine
from ..machine.program import Program, ProgramBuilder
from .base import Workload, register
from .patterns import free_all, partial_shuffle

NODE_SIZE = 48  # exactly its baseline size class
ATTR_SIZE = 16  # exactly its baseline size class
STRING_SIZE = 48  # shares the DOM node class
RESULT_SIZE = 16  # shares the attribute class
ARENA_SIZE = 64 * 1024  # XalanDOMString arena blocks (never grouped)


@register
class XalancWorkload(Workload):
    """SPEC CPU2017 xalanc: deep call chains through custom allocator plumbing."""

    name = "xalanc"
    suite = "SPEC CPU2017"
    description = "XSLT transformation with deeply indirected allocation"
    work_per_access = 1.1  # memory-bound: tree walking dominates
    halo_overrides = {"max_spare_chunks": 0, "always_reuse_chunks": True}
    hds_overrides = {"max_spare_chunks": 0, "always_reuse_chunks": True}

    BASE_NODES = 10000
    BASE_STRINGS = 8000
    BASE_RESULTS = 8000
    TRANSFORM_PASSES = 8
    SHUFFLE = 0.06

    def _build_program(self) -> Program:
        b = ProgramBuilder("xalanc")
        b.function("malloc", in_main_binary=False)
        # Deep DOM-building chain.
        self.s_main_parse = b.call_site("main", "parse_source")
        self.s_parse_dom = b.call_site("parse_source", "build_dom")
        self.s_dom_child = b.call_site("build_dom", "append_child")
        self.s_child_vec = b.call_site("append_child", "vector_push")
        self.s_dom_attr = b.call_site("build_dom", "set_attribute")
        self.s_attr_vec = b.call_site("set_attribute", "vector_push")
        # Parser strings through the same plumbing.
        self.s_parse_read = b.call_site("parse_source", "read_source")
        self.s_read_vec = b.call_site("read_source", "vector_push")
        # Deep transform chain.
        self.s_main_tf = b.call_site("main", "transform")
        self.s_tf_apply = b.call_site("transform", "apply_templates")
        self.s_apply_emit = b.call_site("apply_templates", "emit_result")
        self.s_emit_vec = b.call_site("emit_result", "vector_push")
        # The shared low-level funnel: one malloc site for everything, and
        # deep enough (vector_push -> ensure_capacity -> grow_buffer ->
        # xmemory_allocate -> malloc) that fixed-window identification
        # schemes see an identical stack suffix for every allocation type
        # ("requiring the traversal of tens of stack frames").
        self.s_vec_ensure = b.call_site("vector_push", "ensure_capacity")
        self.s_ensure_grow = b.call_site("ensure_capacity", "grow_buffer")
        self.s_grow_xmem = b.call_site("grow_buffer", "xmemory_allocate")
        self.s_xmem_malloc = b.call_site("xmemory_allocate", "malloc", label="XMemory")
        self.s_main_arena = b.call_site("main", "malloc", label="string arena")
        return b.build()

    def _alloc(self, machine: Machine, path_sites, size: int):
        """Allocate through the deep vector_push → ... → malloc funnel."""
        with machine.call(
            *path_sites,
            self.s_vec_ensure,
            self.s_ensure_grow,
            self.s_grow_xmem,
            self.s_xmem_malloc,
        ):
            obj = machine.malloc(size)
        machine.store(obj, 0, 8)
        return obj

    def _execute(self, machine: Machine, rng: random.Random, factor: float) -> None:
        n_nodes = self.scaled(self.BASE_NODES, factor)
        n_strings = self.scaled(self.BASE_STRINGS, factor)
        n_results = self.scaled(self.BASE_RESULTS, factor)

        with machine.call(self.s_main_arena):
            arena = machine.malloc(ARENA_SIZE)
        arena_lines = ARENA_SIZE // 64

        # Parse: each element allocates its DOM node, usually some text
        # content (a string buffer), then its attribute entry — so even in
        # one shared pool the node/attribute pair is split by strings, and
        # all of it flows through the same low-level funnel.
        dom: list = []
        strings: list = []
        per_node = n_strings / n_nodes
        for _ in range(n_nodes):
            node = self._alloc(
                machine,
                [self.s_main_parse, self.s_parse_dom, self.s_dom_child, self.s_child_vec],
                NODE_SIZE,
            )
            budget = per_node + rng.random()
            while budget >= 1.0 and len(strings) < n_strings:
                strings.append(
                    self._alloc(
                        machine,
                        [self.s_main_parse, self.s_parse_read, self.s_read_vec],
                        STRING_SIZE,
                    )
                )
                budget -= 1.0
            attr = self._alloc(
                machine,
                [self.s_main_parse, self.s_parse_dom, self.s_dom_attr, self.s_attr_vec],
                ATTR_SIZE,
            )
            dom.append((node, attr))

        # Transform: walk the DOM repeatedly, emitting result nodes on the
        # first pass (they share the attribute size class).
        results: list = []
        order = partial_shuffle(dom, self.SHUFFLE, rng)
        for tf_pass in range(self.TRANSFORM_PASSES):
            for index, (node, attr) in enumerate(order):
                machine.load(node, 0, 8)  # node type + first child
                machine.load(node, 16, 8)  # template match key
                machine.load(attr, 0, 8)  # attribute value
                if tf_pass == 0 and len(results) < n_results:
                    results.append(
                        self._alloc(
                            machine,
                            [self.s_main_tf, self.s_tf_apply, self.s_apply_emit, self.s_emit_vec],
                            RESULT_SIZE,
                        )
                    )
                if index % 8 == 0:
                    machine.load(arena, rng.randrange(arena_lines) * 64, 8)
                machine.work(self.work_per_access * 4)

        # Serialise the result tree once.
        for result in results:
            machine.load(result, 0, 8)
            machine.work(self.work_per_access)

        free_all(machine, [obj for pair in dom for obj in pair])
        free_all(machine, strings + results)
        machine.free(arena)

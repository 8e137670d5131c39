"""povray — SPEC CPU2017's ray tracer (the paper's motivating example).

Section 3 of the paper builds its motivation on povray: the parser allocates
geometry objects of several types through a *wrapper function*,
``pov::pov_malloc``, and the render loop then traverses some types (planes,
CSG composites) while leaving others (textures) aside.  Because almost all
heap data flows through the wrapper, techniques that characterise
allocations by the immediate call site of ``malloc`` see a single context
and can do nothing — exactly the failure the paper shows for hot-data
streams.  HALO's full-context identification distinguishes
``create_plane → pov_malloc`` from ``create_texture → pov_malloc`` and
separates the hot geometry from the cold textures.

The paper also notes povray is largely compute-bound: HALO removes 5–15 %
of its L1D misses while execution time barely moves (Figures 13/14) —
reproduced here with a high ``work_per_access``.

Table 1's 26 % grouped-data fragmentation comes from the parser's token
buffers: they are hot during parsing (so HALO groups them), but the whole
pool is dead by the time the program's memory usage peaks during media
construction — chunks resident, nothing live.
"""

from __future__ import annotations

import random

from ..machine.machine import Machine
from ..machine.program import Program, ProgramBuilder
from .base import Workload, register
from .patterns import burst_plan, free_all, partial_shuffle

PLANE_SIZE = 64  # exactly its baseline size class
CSG_SIZE = 48  # exactly its baseline size class
TEXTURE_SIZE = 48  # baseline size class 48 (shares the CSG class)
TOKEN_SIZE = 64  # parser token buffers (shares the plane class)
MEDIA_SIZE = 4096  # media density maps: at the grouping size limit


@register
class PovrayWorkload(Workload):
    """SPEC CPU2017 povray: wrapper-function allocation, compute-bound."""

    name = "povray"
    suite = "SPEC CPU2017"
    description = "ray tracer allocating geometry through pov_malloc"
    work_per_access = 60.0  # compute-bound: shading dominates

    BASE_PLANES = 6000
    BASE_CSG = 6000
    BASE_TEXTURES = 9000
    BASE_TOKENS = 7000
    RENDER_PASSES = 8
    SHUFFLE = 0.05

    def _build_program(self) -> Program:
        b = ProgramBuilder("povray")
        b.function("malloc", in_main_binary=False)
        # Parse loop: every object type goes through pov_malloc.
        self.s_main_parse = b.call_site("main", "parse_scene")
        self.s_parse_plane = b.call_site("parse_scene", "create_plane")
        self.s_parse_csg = b.call_site("parse_scene", "create_csg")
        self.s_parse_texture = b.call_site("parse_scene", "create_texture")
        self.s_parse_token = b.call_site("parse_scene", "get_token")
        self.s_plane_pov = b.call_site("create_plane", "pov_malloc")
        self.s_csg_pov = b.call_site("create_csg", "pov_malloc")
        self.s_texture_pov = b.call_site("create_texture", "pov_malloc")
        self.s_token_pov = b.call_site("get_token", "pov_malloc")
        # The single call site HDS identification can see.
        self.s_pov_malloc = b.call_site("pov_malloc", "malloc", label="pov_malloc body")
        self.s_parse_media = b.call_site("parse_scene", "create_media")
        self.s_media_pov = b.call_site("create_media", "pov_malloc")
        return b.build()

    def _alloc(self, machine: Machine, create_site, size: int):
        """Allocate through the pov_malloc wrapper."""
        pov_site = {
            self.s_parse_plane.addr: self.s_plane_pov,
            self.s_parse_csg.addr: self.s_csg_pov,
            self.s_parse_texture.addr: self.s_texture_pov,
            self.s_parse_token.addr: self.s_token_pov,
            self.s_parse_media.addr: self.s_media_pov,
        }[create_site.addr]
        with machine.call(create_site, pov_site, self.s_pov_malloc):
            obj = machine.malloc(size)
        machine.store(obj, 0, 8)
        return obj

    def _execute(self, machine: Machine, rng: random.Random, factor: float) -> None:
        n_planes = self.scaled(self.BASE_PLANES, factor)
        n_csg = self.scaled(self.BASE_CSG, factor)
        n_textures = self.scaled(self.BASE_TEXTURES, factor)
        n_tokens = self.scaled(self.BASE_TOKENS, factor)

        planes: list = []
        csgs: list = []
        textures: list = []
        tokens: list = []
        geometry: list = []  # planes + CSG in allocation order (the hot list)

        plan = burst_plan(
            rng,
            [
                ("plane", n_planes, 1),
                ("csg", n_csg, 1),
                ("texture", n_textures, 1),
                ("token", n_tokens, 1),
            ],
        )
        with machine.call(self.s_main_parse):
            for kind in plan:
                if kind == "plane":
                    obj = self._alloc(machine, self.s_parse_plane, PLANE_SIZE)
                    planes.append(obj)
                    geometry.append(obj)
                elif kind == "csg":
                    obj = self._alloc(machine, self.s_parse_csg, CSG_SIZE)
                    csgs.append(obj)
                    geometry.append(obj)
                elif kind == "texture":
                    obj = self._alloc(machine, self.s_parse_texture, TEXTURE_SIZE)
                    textures.append(obj)
                else:
                    # Token buffers are chased hard while parsing (the
                    # scanner re-reads recent tokens), then all die at once.
                    obj = self._alloc(machine, self.s_parse_token, TOKEN_SIZE)
                    tokens.append(obj)
                    for back in range(2, min(3, len(tokens)) + 1):
                        machine.load(tokens[-back], 0, 8)
                    machine.work(self.work_per_access * 2)

        # End of parse: the token pool dies in one sweep.  Media density
        # maps are then built, pushing peak memory usage past the frees —
        # Table 1's snapshot sees the dead token chunks.
        free_all(machine, tokens)
        media = []
        with machine.call(self.s_main_parse):
            for _ in range(max(4, len(plan) // 160)):
                media.append(self._alloc(machine, self.s_parse_media, MEDIA_SIZE))

        # Render: repeatedly intersect rays with the geometry list; textures
        # are consulted rarely, media occasionally (stream terminators).
        order = partial_shuffle(geometry, self.SHUFFLE, rng)
        for _ in range(self.RENDER_PASSES):
            for index, obj in enumerate(order):
                machine.load(obj, 0, 8)  # bounding slab
                machine.load(obj, 32, 8)  # surface equation
                if index % 16 == 0:
                    m = media[(index // 16) % len(media)]
                    machine.load(m, rng.randrange(m.size // 64) * 64, 8)
                machine.work(self.work_per_access * 3)
        for texture in textures:
            machine.load(texture, 0, 8)
            machine.work(self.work_per_access)

        free_all(machine, csgs + planes + textures + media)

"""leela — SPEC CPU2017's Go engine.

The paper notes "leela allocates memory exclusively through C++'s new
operator": every UCT tree node, board clone and history record reaches
``malloc`` through the same call inside ``operator new``, so immediate-site
identification has a single undifferentiated context.  HALO still separates
the allocation paths via the full call stack; the benchmark is strongly
compute-bound (move evaluation dominates), so — as in Figures 13/14 — the
L1D miss reduction barely moves execution time.

leela is also Table 1's worst fragmentation case (99.99 %, 2.05 MiB): each
game's Monte-Carlo search churns a couple of MiB of UCT nodes through the
group chunks and frees all of them when the game ends; peak memory usage
comes later, during final scoring, when the grouped chunks are resident but
essentially empty.
"""

from __future__ import annotations

import random

from ..machine.machine import Machine
from ..machine.program import Program, ProgramBuilder
from .base import Workload, register
from .patterns import free_all, partial_shuffle

UCT_NODE_SIZE = 48
BOARD_SIZE = 64
HISTORY_SIZE = 48  # shares the UCT node class


@register
class LeelaWorkload(Workload):
    """SPEC CPU2017 leela: Go tree search through operator new."""

    name = "leela"
    suite = "SPEC CPU2017"
    description = "Monte-Carlo Go engine, all allocation via operator new"
    work_per_access = 600.0  # compute-bound: move evaluation dwarfs heap traffic

    GAMES = 3
    BASE_NODES_PER_GAME = 9000
    DESCENT_PASSES = 4
    BASE_HISTORY = 4000
    SHUFFLE = 0.15  # tree descents are far from allocation order
    BASE_SCORE_BUFFERS = 40

    def _build_program(self) -> Program:
        b = ProgramBuilder("leela")
        b.function("operator new", in_main_binary=False, traceable=True)
        b.function("malloc", in_main_binary=False)
        self.s_main_game = b.call_site("main", "play_game")
        # UCT search path.
        self.s_game_search = b.call_site("play_game", "uct_search")
        self.s_search_expand = b.call_site("uct_search", "expand_node")
        self.s_expand_new = b.call_site("expand_node", "operator new")
        self.s_search_clone = b.call_site("uct_search", "clone_board")
        self.s_clone_new = b.call_site("clone_board", "operator new")
        # Game history path.
        self.s_game_history = b.call_site("play_game", "record_move")
        self.s_history_new = b.call_site("record_move", "operator new")
        # Final scoring.
        self.s_main_score = b.call_site("main", "score_games")
        self.s_score_new = b.call_site("score_games", "operator new")
        # The single malloc site inside operator new.
        self.s_new_malloc = b.call_site("operator new", "malloc", label="new body")
        return b.build()

    def _new(self, machine: Machine, path_sites, size: int):
        with machine.call(*path_sites, self.s_new_malloc):
            obj = machine.malloc(size)
        machine.store(obj, 0, 8)
        return obj

    def _execute(self, machine: Machine, rng: random.Random, factor: float) -> None:
        nodes_per_game = self.scaled(self.BASE_NODES_PER_GAME, factor)
        history_per_game = self.scaled(self.BASE_HISTORY, factor)
        history: list = []
        roots: list = []

        for _ in range(self.GAMES):
            # Monte-Carlo search: grow the UCT tree (nodes + board clones),
            # recording moves into the long-lived history as the game goes.
            tree: list = []
            with machine.call(self.s_main_game):
                for index in range(nodes_per_game):
                    node = self._new(
                        machine, [self.s_game_search, self.s_search_expand, self.s_expand_new], UCT_NODE_SIZE
                    )
                    board = self._new(
                        machine, [self.s_game_search, self.s_search_clone, self.s_clone_new], BOARD_SIZE
                    )
                    tree.append((node, board))
                    if index % (nodes_per_game // history_per_game + 1) == 0:
                        history.append(
                            self._new(
                                machine, [self.s_game_history, self.s_history_new], HISTORY_SIZE
                            )
                        )

                # Tree descents: visit nodes in an order far from allocation
                # order (UCT follows win-rate statistics, not creation time).
                order = partial_shuffle(tree, self.SHUFFLE, rng)
                for _ in range(self.DESCENT_PASSES):
                    for node, board in order:
                        machine.load(node, 0, 8)  # visit count / win rate
                        machine.load(node, 40, 8)  # child pointer
                        machine.load(board, 0, 8)  # board hash
                        machine.work(self.work_per_access * 3)

            # Game over: the search tree is released, except the root
            # node, which survives for post-game analysis — the sliver of
            # live grouped data behind Table 1's 99.99 %.
            roots.append(tree[0][0])
            machine.free(tree[0][1])
            for node, board in tree[1:]:
                machine.free(node)
                machine.free(board)

        # Final scoring: history is replayed while fresh scoring buffers
        # drive total memory usage to its peak — with the group chunks
        # resident but almost empty (Table 1's 99.99 %).
        buffers = []
        with machine.call(self.s_main_score):
            for _ in range(self.scaled(self.BASE_SCORE_BUFFERS, factor)):
                buffers.append(self._new(machine, [self.s_score_new], 64 * 1024))
        for record in history:
            machine.load(record, 0, 8)
            machine.load(record, 24, 8)
            machine.work(self.work_per_access * 2)
        free_all(machine, history + buffers + roots)

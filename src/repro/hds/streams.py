"""Minimal hot data stream extraction (Chilimbi, PLDI'01; §5.1 replication).

A *data stream* is a repeated subsequence of the object-level reference
trace; its *heat* is ``frequency x length``.  Following the HALO paper's
replication setup, we "detect minimal hot data streams that contain between
2 and 20 elements, with the stream threshold set to account for 90 % of all
heap accesses":

* candidate streams are the expansions of SEQUITUR grammar rules (the
  grammar's hierarchy is exactly the repetition structure of the trace, as
  in Larus's whole-program-paths);
* rule frequency is the number of times the rule occurs in the full
  expansion of the start rule;
* candidates are ranked by heat, and selected hottest-first until the
  selected streams account for the target fraction of the trace; a
  candidate whose expansion contains an already-selected stream (as a
  descendant rule) is skipped, keeping the selected streams *minimal*;
* the number of streams needed to reach the target is the statistic the
  paper uses to show the representation blowing up on roms (">150,000
  streams" where HALO's graph needs 31 nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from ..columnar import kernel
from .sequitur import Rule, Sequitur


@dataclass(frozen=True)
class HotStream:
    """One selected hot data stream."""

    elements: tuple[Hashable, ...]
    frequency: int

    @property
    def heat(self) -> int:
        return self.frequency * len(self.elements)


@dataclass
class StreamAnalysis:
    """Result of hot-stream extraction over one trace."""

    streams: list[HotStream]
    trace_length: int
    grammar_rules: int
    candidate_count: int
    coverage_achieved: float

    @property
    def stream_count(self) -> int:
        return len(self.streams)


@dataclass(frozen=True)
class StreamParams:
    """Extraction parameters (paper Section 5.1 defaults)."""

    min_elements: int = 2
    max_elements: int = 20
    coverage: float = 0.90

    def __post_init__(self) -> None:
        if not 2 <= self.min_elements <= self.max_elements:
            raise ValueError(
                f"need 2 <= min <= max, got [{self.min_elements}, {self.max_elements}]"
            )
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError(f"coverage must be in (0, 1], got {self.coverage}")


def intern_terminals(values: Iterable[Hashable]) -> tuple[np.ndarray, tuple]:
    """Dense int32 codes for *values*, plus the code -> terminal table.

    Codes follow first appearance.  Equal terminals share a code, and
    equality is all SEQUITUR looks at.
    """
    table: dict[Hashable, int] = {}
    codes = [table.setdefault(value, len(table)) for value in values]
    return np.asarray(codes, dtype=np.int32), tuple(table)


@dataclass(frozen=True, eq=False)
class FlatGrammar:
    """A SEQUITUR grammar as flat arrays: the one form both backends emit.

    Rules are numbered by *position* in preorder: 0 is the start rule,
    and a rule's position is where a depth-first walk of the bodies first
    meets it (:attr:`Sequitur.rules` order).  Rule ``i`` has id
    ``rule_ids[i]`` and body ``body[offsets[i]:offsets[i + 1]]``, in
    which a symbol ``s >= 0`` is the terminal ``terminals[s]`` and
    ``s < 0`` refers to the rule at position ``~s``.  Every walker below
    keeps its own stack, so grammar depth is unbounded.
    """

    terminals: tuple
    rule_ids: np.ndarray
    offsets: np.ndarray
    body: np.ndarray

    @classmethod
    def from_sequence(cls, values: Iterable[Hashable]) -> "FlatGrammar":
        """Compress *values*: compiled SEQUITUR, else the Python one."""
        codes, terminals = intern_terminals(values)
        flat = kernel.sequitur(codes)
        if flat is None:
            return cls.from_sequitur(Sequitur.from_sequence(codes.tolist()), terminals)
        return cls(terminals, *flat)

    @classmethod
    def from_sequitur(cls, grammar: Sequitur, terminals: tuple) -> "FlatGrammar":
        """Flatten a :class:`Sequitur` built over the codes of *terminals*."""
        rules = grammar.rules
        position = {rule.rid: i for i, rule in enumerate(rules)}
        body: list[int] = []
        offsets = [0]
        for rule in rules:
            body.extend(
                ~position[value.rid] if isinstance(value, Rule) else value
                for value in rule.body()
            )
            offsets.append(len(body))
        return cls(
            terminals,
            np.asarray([rule.rid for rule in rules], dtype=np.int32),
            np.asarray(offsets, dtype=np.int32),
            np.asarray(body, dtype=np.int32),
        )

    def __len__(self) -> int:
        return int(self.rule_ids.shape[0])

    @cached_property
    def _lists(self) -> tuple[list[int], list[int]]:
        return self.offsets.tolist(), self.body.tolist()

    @cached_property
    def children(self) -> list[list[int]]:
        """Positions each rule's body refers to, in body order, with repeats."""
        refs = self.body < 0
        owners = np.repeat(np.arange(len(self)), np.diff(self.offsets))[refs]
        children: list[list[int]] = [[] for _ in range(len(self))]
        for owner, child in zip(owners.tolist(), (~self.body[refs]).tolist()):
            children[owner].append(child)
        return children

    @cached_property
    def topological(self) -> list[int]:
        """Positions ordered so every rule comes before the rules it uses."""
        children = self.children
        indegree = [0] * len(self)
        for kids in children:
            for child in kids:
                indegree[child] += 1
        order: list[int] = []
        ready = [0]
        while ready:
            position = ready.pop()
            order.append(position)
            for child in children[position]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        return order

    @cached_property
    def lengths(self) -> list[int]:
        """Expansion length of each rule."""
        lengths = np.diff(self.offsets).tolist()
        children = self.children
        for position in reversed(self.topological):
            kids = children[position]
            lengths[position] += sum(lengths[child] for child in kids) - len(kids)
        return lengths

    def expand_codes(self, position: int = 0) -> list[int]:
        """Terminal codes of rule *position*'s expansion."""
        offsets, body = self._lists
        out: list[int] = []
        stack = [(offsets[position], offsets[position + 1])]
        while stack:
            at, end = stack.pop()
            while at < end:
                symbol = body[at]
                at += 1
                if symbol >= 0:
                    out.append(symbol)
                else:
                    stack.append((at, end))
                    at, end = offsets[~symbol], offsets[~symbol + 1]
        return out

    def expand(self, position: int = 0) -> list[Hashable]:
        """Expand rule *position* (default: the whole sequence) to terminals."""
        terminals = self.terminals
        return [terminals[code] for code in self.expand_codes(position)]


def rule_frequencies(grammar: FlatGrammar) -> list[int]:
    """Occurrences of each rule (by position) in the start rule's full expansion."""
    frequency = [0] * len(grammar)
    frequency[0] = 1
    children = grammar.children
    for position in grammar.topological:
        count = frequency[position]
        for child in children[position]:
            frequency[child] += count
    return frequency


def extract_hot_streams(
    trace: Sequence[Hashable],
    params: StreamParams | None = None,
    grammar: Optional[FlatGrammar] = None,
) -> StreamAnalysis:
    """Compress *trace* and select minimal hot data streams."""
    params = params or StreamParams()
    if grammar is None:
        grammar = FlatGrammar.from_sequence(trace)
    frequency = rule_frequencies(grammar)
    lengths = grammar.lengths
    rule_ids = grammar.rule_ids.tolist()
    terminals = grammar.terminals

    # Candidates: whole rules within the length bounds; longer rules are
    # chopped into consecutive max-length windows.  The chopping reproduces
    # the truncation behaviour Section 5.2 discusses — long regular access
    # sequences become many bounded streams whose co-allocation sets are
    # fragments of the real pattern.
    width = params.max_elements
    candidates: list[tuple[int, int, tuple]] = []  # (heat, position or -1, window)
    for position in range(1, len(grammar)):
        length = lengths[position]
        freq = frequency[position]
        if freq <= 0 or length < params.min_elements:
            continue
        if length <= width:
            candidates.append((freq * length, position, ()))
        else:
            expansion = grammar.expand_codes(position)
            for start in range(0, length, width):
                window = tuple(terminals[code] for code in expansion[start : start + width])
                if len(window) >= params.min_elements:
                    candidates.append((freq * len(window), -1, window))
    # Tie-break on (heat, rid) only: the window tuples hold arbitrary trace
    # symbols, which need not be mutually comparable (mixed ints and strings
    # raise TypeError).  Candidate construction order is deterministic and
    # the sort is stable, so equal-key windows keep their insertion order.
    candidates.sort(key=lambda item: (-item[0], rule_ids[item[1]] if item[1] >= 0 else -1))

    # Select hottest-first until the target coverage of the trace is
    # accounted for; enforce minimality against already-selected rules.
    target = params.coverage * len(trace)
    selected: list[HotStream] = []
    selected_rules: set[int] = set()
    seen_windows: set[tuple] = set()
    covered = 0.0
    for heat, position, window in candidates:
        if covered >= target:
            break
        if position >= 0:
            if _contains_selected(grammar, position, selected_rules):
                continue
            elements = tuple(grammar.expand(position))
            freq = frequency[position]
            selected_rules.add(position)
        else:
            if window in seen_windows:
                continue
            elements = window
            freq = heat // len(window)
            seen_windows.add(window)
        selected.append(HotStream(elements, freq))
        covered += heat

    coverage_achieved = covered / len(trace) if trace else 0.0
    return StreamAnalysis(
        streams=selected,
        trace_length=len(trace),
        grammar_rules=len(grammar),
        candidate_count=len(candidates),
        coverage_achieved=min(coverage_achieved, 1.0),
    )


def _contains_selected(grammar: FlatGrammar, position: int, selected: set[int]) -> bool:
    """Whether any (transitive) sub-rule of rule *position* is already selected."""
    if not selected:
        return False
    children = grammar.children
    stack = [position]
    visited: set[int] = set()
    while stack:
        for child in children[stack.pop()]:
            if child not in visited:
                if child in selected:
                    return True
                visited.add(child)
                stack.append(child)
    return False

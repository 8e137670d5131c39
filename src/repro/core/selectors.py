"""Runtime representation of group selectors (paper Section 4.3).

A *selector* is a logical expression in disjunctive normal form over call
sites: an allocation belongs to a group when, for at least one conjunction,
control has passed through every call site in it.  At runtime the rewritten
binary keeps one bit per monitored site in the group state vector, so each
conjunction compiles to a bit mask and evaluation is a handful of AND/CMP
operations — the "extremely low overhead" identification the paper claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class GroupSelector:
    """DNF selector for one group.

    Attributes:
        gid: Group id this selector identifies.
        conjunctions: Each a frozenset of call-site addresses that must all
            be live on the control-flow path for the disjunct to match.
    """

    gid: int
    conjunctions: tuple[frozenset[int], ...]

    def matches_chain(self, chain: Sequence[int]) -> bool:
        """Would this selector match an allocation whose context is *chain*?"""
        sites = set(chain)
        return any(conj <= sites for conj in self.conjunctions)

    @property
    def sites(self) -> frozenset[int]:
        """All call sites this selector consults."""
        result: set[int] = set()
        for conj in self.conjunctions:
            result |= conj
        return frozenset(result)


def monitored_sites(selectors: Iterable[GroupSelector]) -> frozenset[int]:
    """Union of call sites across *selectors* — what BOLT must instrument."""
    result: set[int] = set()
    for selector in selectors:
        result |= selector.sites
    return frozenset(result)


class SelectorMatchError(Exception):
    """Raised when selectors reference sites missing from the plan."""


class CompiledMatcher:
    """Bit-mask evaluator of a prioritised selector list.

    Selectors are evaluated in the given order (synthesis emits them most
    popular first); the first matching group wins.
    """

    def __init__(self, selectors: Sequence[GroupSelector], bit_for_site: dict[int, int]) -> None:
        self._table: list[tuple[int, tuple[int, ...]]] = []
        for selector in selectors:
            masks = []
            for conj in selector.conjunctions:
                mask = 0
                for site in conj:
                    bit = bit_for_site.get(site)
                    if bit is None:
                        raise SelectorMatchError(
                            f"selector for group {selector.gid} uses "
                            f"uninstrumented site {site:#x}"
                        )
                    mask |= 1 << bit
                masks.append(mask)
            self._table.append((selector.gid, tuple(masks)))

    def match(self, state: int) -> Optional[int]:
        """Group id for state-vector value *state*, or None."""
        for gid, masks in self._table:
            for mask in masks:
                if state & mask == mask:
                    return gid
        return None


class NeverMatch:
    """A matcher that groups nothing (useful for baselines and tests)."""

    def match(self, state: int) -> Optional[int]:
        """Always None: every allocation goes to the fallback allocator."""
        return None

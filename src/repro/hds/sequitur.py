"""SEQUITUR grammar inference (Nevill-Manning & Witten, 1997).

The hot-data-streams comparison technique (Chilimbi & Shaham, PLDI'06 —
replicated in Section 5.1 of the HALO paper) compresses the profiling run's
data-reference trace with SEQUITUR and mines the resulting grammar for
frequently repeated subsequences.

This is a from-scratch implementation of the classic linear-time, online
algorithm maintaining its two invariants:

* **digram uniqueness** — no pair of adjacent symbols appears more than
  once in the grammar; a repeated digram is replaced by a (possibly new)
  rule;
* **rule utility** — every rule is used at least twice; a rule whose use
  count drops to one is inlined and removed.

Terminals are arbitrary hashable values (the trace uses object ids).
Hot-stream analysis runs the compiled replica in
:mod:`repro.columnar.kernel` when it is available; this implementation is
its fallback and its differential oracle.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Optional, Union

Terminal = Hashable


class _Symbol:
    """A doubly-linked grammar symbol: a terminal or a rule reference."""

    __slots__ = ("value", "prev", "next")

    def __init__(self, value: Union[Terminal, "Rule"]) -> None:
        self.value = value
        self.prev: Optional[_Symbol] = None
        self.next: Optional[_Symbol] = None

    @property
    def is_guard(self) -> bool:
        return isinstance(self.value, Rule) and self.value.guard is self

    @property
    def rule(self) -> Optional["Rule"]:
        """The rule this symbol references (None for terminals/guards)."""
        if isinstance(self.value, Rule) and not self.is_guard:
            return self.value
        return None


class Rule:
    """A grammar production.  The body is a circular list around a guard."""

    def __init__(self, rid: int) -> None:
        self.rid = rid
        self.refcount = 0
        #: Live referencing symbols (kept in sync so the single remaining
        #: use can be found in O(1) when rule utility forces an inline).
        self.uses: set[_Symbol] = set()
        self.guard = _Symbol(self)
        self.guard.prev = self.guard
        self.guard.next = self.guard

    # -- structural helpers -------------------------------------------------

    @property
    def first(self) -> _Symbol:
        return self.guard.next  # type: ignore[return-value]

    @property
    def last(self) -> _Symbol:
        return self.guard.prev  # type: ignore[return-value]

    def symbols(self) -> Iterator[_Symbol]:
        """Iterate the body symbols left to right."""
        symbol = self.guard.next
        while symbol is not self.guard:
            yield symbol  # type: ignore[misc]
            symbol = symbol.next  # type: ignore[union-attr]

    def body(self) -> list[Union[Terminal, "Rule"]]:
        """The body as a list of terminals and Rule references."""
        return [s.value for s in self.symbols()]

    def __len__(self) -> int:
        return sum(1 for _ in self.symbols())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"R{v.rid}" if isinstance(v, Rule) else repr(v) for v in self.body()
        ]
        return f"R{self.rid} -> {' '.join(parts)}"


Digram = tuple[object, object]


def _digram_key(a: _Symbol, b: _Symbol) -> Digram:
    ka = ("r", a.value.rid) if isinstance(a.value, Rule) else ("t", a.value)
    kb = ("r", b.value.rid) if isinstance(b.value, Rule) else ("t", b.value)
    return (ka, kb)


class Sequitur:
    """Online SEQUITUR compressor.

    Feed terminals with :meth:`push` (or build in one go with
    :meth:`from_sequence`); read the grammar through :attr:`start` and
    :attr:`rules`, or expand it back with :meth:`expand` to verify the
    losslessness invariant.
    """

    def __init__(self) -> None:
        self._next_rid = 0
        self.start = self._new_rule()
        self._index: dict[Digram, _Symbol] = {}

    # -- public API -------------------------------------------------------

    @classmethod
    def from_sequence(cls, values: Iterable[Terminal]) -> "Sequitur":
        grammar = cls()
        for value in values:
            grammar.push(value)
        return grammar

    def push(self, value: Terminal) -> None:
        """Append one terminal to the sequence."""
        if isinstance(value, Rule):
            raise TypeError("terminals may not be Rule objects")
        symbol = _Symbol(value)
        self._link(self.start.last, symbol)
        self._link(symbol, self.start.guard)
        if symbol.prev is not self.start.guard:
            self._check_digram(symbol.prev)  # type: ignore[arg-type]

    @property
    def rules(self) -> list[Rule]:
        """All live rules in preorder from the start rule (ids are not contiguous).

        A rule's place is where a depth-first walk of the bodies first
        meets it.  The walk keeps its own stack, so grammar depth is
        unbounded.
        """
        found: dict[int, Rule] = {self.start.rid: self.start}
        stack = [self.start.symbols()]
        while stack:
            for symbol in stack[-1]:
                child = symbol.rule
                if child is not None and child.rid not in found:
                    found[child.rid] = child
                    stack.append(child.symbols())
                    break
            else:
                stack.pop()
        return list(found.values())

    def expand(self, rule: Optional[Rule] = None, limit: Optional[int] = None) -> list[Terminal]:
        """Expand *rule* (default: the whole sequence) back to terminals."""
        out: list[Terminal] = []
        stack = [(rule if rule is not None else self.start).symbols()]
        while stack:
            for symbol in stack[-1]:
                if limit is not None and len(out) >= limit:
                    return out
                child = symbol.rule
                if child is not None:
                    stack.append(child.symbols())
                    break
                out.append(symbol.value)
            else:
                stack.pop()
        return out

    def check_invariants(self) -> None:
        """Assert digram uniqueness and rule utility (for tests).

        Digrams of two identical symbols are exempt from the uniqueness
        check: the canonical algorithm deliberately skips overlapping
        occurrences in runs like ``aaa``, and deleting a neighbour can
        leave such a digram unindexed.  This mirrors the reference
        implementation's behaviour.
        """
        seen: dict[Digram, tuple[int, int]] = {}
        for position, rule in enumerate(self.rules):
            if rule is not self.start and rule.refcount < 2:
                raise AssertionError(f"rule utility violated for R{rule.rid}")
            symbols = list(rule.symbols())
            for i in range(len(symbols) - 1):
                key = _digram_key(symbols[i], symbols[i + 1])
                if key[0] == key[1]:
                    continue  # overlap quirk: see docstring
                if key in seen:
                    raise AssertionError(f"digram {key} repeated")
                seen[key] = (position, i)

    # -- internals -----------------------------------------------------------

    def _new_rule(self) -> Rule:
        rule = Rule(self._next_rid)
        self._next_rid += 1
        return rule

    @staticmethod
    def _link(left: _Symbol, right: _Symbol) -> None:
        left.next = right
        right.prev = left

    def _remove_digram(self, first: _Symbol) -> None:
        """Drop the digram starting at *first* from the index (if it owns it)."""
        second = first.next
        if second is None or second.is_guard or first.is_guard:
            return
        key = _digram_key(first, second)
        if self._index.get(key) is first:
            del self._index[key]

    def _check_digram(self, first: _Symbol) -> None:
        """Enforce digram uniqueness for the digram starting at *first*."""
        second = first.next
        if first.is_guard or second is None or second.is_guard:
            return
        key = _digram_key(first, second)
        match = self._index.get(key)
        if match is None:
            self._index[key] = first
            return
        if match is first or match.next is first:
            # Same digram object, or overlapping occurrence (aaa): ignore.
            return
        self._handle_match(first, match)

    def _handle_match(self, newer: _Symbol, older: _Symbol) -> None:
        older_rule = self._owning_full_rule(older)
        if older_rule is not None:
            # The matching digram is the entire body of an existing rule:
            # substitute the new occurrence with that rule.
            self._substitute(newer, older_rule)
        else:
            rule = self._new_rule()
            a_value, b_value = older.value, older.next.value  # type: ignore[union-attr]
            self._append_to_rule(rule, a_value)
            self._append_to_rule(rule, b_value)
            # Index the rule's own body digram *before* substituting: the
            # substitutions may trigger rule-utility inlining that rewrites
            # this rule's body, after which (first, last) would be stale.
            self._index[_digram_key(rule.first, rule.last)] = rule.first
            # Replace the older occurrence first, then the newer one.
            self._substitute(older, rule)
            self._substitute(newer, rule)

    @staticmethod
    def _owning_full_rule(first: _Symbol) -> Optional[Rule]:
        """If digram (first, first.next) is a complete rule body, return it."""
        second = first.next
        if (
            first.prev is not None
            and second is not None
            and second.next is not None
            and first.prev.is_guard
            and second.next.is_guard
        ):
            return first.prev.value  # type: ignore[return-value]
        return None

    def _append_to_rule(self, rule: Rule, value: Union[Terminal, Rule]) -> None:
        symbol = _Symbol(value)
        if isinstance(value, Rule):
            value.refcount += 1
            value.uses.add(symbol)
        self._link(rule.last, symbol)
        self._link(symbol, rule.guard)

    def _substitute(self, first: _Symbol, rule: Rule) -> None:
        """Replace digram (first, first.next) with a reference to *rule*."""
        second = first.next
        assert second is not None and not second.is_guard
        left = first.prev
        right = second.next
        assert left is not None and right is not None

        # Un-index digrams that are about to disappear.
        if not left.is_guard:
            self._remove_digram(left)
        if not right.is_guard:
            self._remove_digram(second)
        self._remove_digram(first)

        for symbol in (first, second):
            child = symbol.rule
            if child is not None:
                child.refcount -= 1
                child.uses.discard(symbol)

        replacement = _Symbol(rule)
        rule.refcount += 1
        rule.uses.add(replacement)
        self._link(left, replacement)
        self._link(replacement, right)

        # Rule utility: inline children that fell to a single use.
        for symbol in (first, second):
            child = symbol.rule
            if child is not None and child.refcount == 1:
                self._inline_only_use(child)

        # Restore digram uniqueness around the replacement.
        if not left.is_guard:
            self._check_digram(left)
        if not right.is_guard and replacement.next is right:
            self._check_digram(replacement)

    def _inline_only_use(self, rule: Rule) -> None:
        """Expand the single remaining use of *rule* in place."""
        use = self._find_use(rule)
        if use is None:  # pragma: no cover - defensive
            return
        left = use.prev
        right = use.next
        assert left is not None and right is not None
        if not left.is_guard:
            self._remove_digram(left)
        if not right.is_guard:
            self._remove_digram(use)

        first = rule.first
        last = rule.last
        if first is rule.guard:  # empty rule body; just drop the use
            self._link(left, right)
        else:
            self._link(left, first)
            self._link(last, right)
        rule.refcount -= 1
        rule.uses.discard(use)

        # Only the two seam digrams are new; index entries for digrams
        # inside the spliced body still point at the same (moved, not
        # copied) symbols and remain valid.  Touching only the seams keeps
        # inlining O(1), as in the reference implementation.
        for seam in (left, last if first is not rule.guard else None):
            if seam is None or seam.is_guard:
                continue
            follower = seam.next
            if follower is None or follower.is_guard:
                continue
            key = _digram_key(seam, follower)
            self._index.setdefault(key, seam)

    @staticmethod
    def _find_use(rule: Rule) -> Optional[_Symbol]:
        for symbol in rule.uses:
            return symbol
        return None

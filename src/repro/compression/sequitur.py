"""Sequitur grammar inference.

TADOC "extends Sequitur as its core algorithm" (paper section II-A).
This module implements the classic online Sequitur algorithm
(Nevill-Manning & Witten) over integer token streams.  The algorithm
maintains two invariants while consuming the input one symbol at a
time:

* **digram uniqueness** — no pair of adjacent symbols appears more than
  once in the grammar; a repeated digram is replaced by a rule, and
* **rule utility** — every rule (other than the start rule) is used at
  least twice; a rule that drops to a single use is inlined again.

The output is converted into the immutable
:class:`~repro.compression.grammar.Grammar` representation used by the
rest of the library (rule 0 = root).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.compression.grammar import Grammar, Rule, make_rule_ref

__all__ = ["SequiturEncoder"]

#: A digram-index key component: a terminal's token id (``>= 0``), a rule
#: reference's ``make_rule_ref(rule number)`` (``< 0``), or ``None`` for a
#: guard.  Equal keys mean equal symbols, exactly as Sequitur requires.
SymbolKey = Optional[int]


class _SequiturRule:
    """Internal mutable rule: a circular doubly-linked list with a guard node."""

    __slots__ = ("number", "key", "reference_count", "guard")

    def __init__(self, encoder: "SequiturEncoder") -> None:
        self.number = encoder._next_rule_number()
        #: Key of every symbol that references this rule.
        self.key = make_rule_ref(self.number)
        self.reference_count = 0
        self.guard = _SequiturSymbol(encoder, None, rule=self, is_guard=True)
        self.guard.next = self.guard
        self.guard.prev = self.guard

    def first(self) -> "_SequiturSymbol":
        return self.guard.next

    def last(self) -> "_SequiturSymbol":
        return self.guard.prev


class _SequiturSymbol:
    """A node in a rule body: a terminal, a reference to a rule, or a guard.

    ``key`` is fixed when the symbol is created, so digram keys are plain
    pairs of ints.  ``rule`` is the referenced rule for a non-terminal,
    the owning rule for a guard and ``None`` for a terminal.
    """

    __slots__ = ("encoder", "next", "prev", "key", "rule", "is_guard")

    def __init__(
        self,
        encoder: "SequiturEncoder",
        key: SymbolKey,
        rule: Optional[_SequiturRule] = None,
        is_guard: bool = False,
    ) -> None:
        self.encoder = encoder
        self.next: Optional[_SequiturSymbol] = None
        self.prev: Optional[_SequiturSymbol] = None
        self.key = key
        self.rule = rule
        self.is_guard = is_guard
        if rule is not None and not is_guard:
            rule.reference_count += 1

    @property
    def is_nonterminal(self) -> bool:
        return self.rule is not None and not self.is_guard

    def digram_key(self) -> Tuple[SymbolKey, SymbolKey]:
        return (self.key, self.next.key)

    # -- linked-list operations ---------------------------------------------------
    def join(self, right: "_SequiturSymbol") -> None:
        """Link ``self -> right`` and keep the digram index consistent."""
        if self.next is not None:
            self.delete_digram()
            # Triple handling (e.g. "a a a"): re-register the digrams that
            # the unlink may have invalidated, as in the reference code.
            # Guards are excluded explicitly: two guards share the key None.
            digrams = self.encoder._digrams
            neighbour = right.prev
            after = right.next
            if (
                neighbour is not None
                and after is not None
                and not right.is_guard
                and not after.is_guard
                and right.key == neighbour.key == after.key
            ):
                digrams[(right.key, right.key)] = right
            neighbour = self.prev
            if (
                neighbour is not None
                and not self.is_guard
                and not neighbour.is_guard
                and self.key == self.next.key == neighbour.key
            ):
                digrams[(self.key, self.key)] = neighbour
        self.next = right
        right.prev = self

    def insert_after(self, symbol: "_SequiturSymbol") -> None:
        symbol.join(self.next)
        self.join(symbol)

    def unlink(self) -> None:
        """Remove this symbol from its rule body."""
        self.prev.join(self.next)
        if not self.is_guard:
            self.delete_digram()
            if self.rule is not None:
                self.rule.reference_count -= 1

    def delete_digram(self) -> None:
        """Remove the digram starting at this symbol from the index."""
        right = self.next
        if self.is_guard or right is None or right.is_guard:
            return
        digrams = self.encoder._digrams
        key = (self.key, right.key)
        if digrams.get(key) is self:
            del digrams[key]

    # -- the Sequitur invariants ---------------------------------------------------
    def check(self) -> bool:
        """Enforce digram uniqueness for the digram starting at ``self``.

        Returns ``True`` whenever the digram was already present in the
        index (including the self-match and overlapping cases), matching
        the reference implementation's semantics, which
        :meth:`substitute` relies on to decide whether the follow-up
        digram still needs checking.
        """
        right = self.next
        if self.is_guard or right is None or right.is_guard:
            return False
        digrams = self.encoder._digrams
        key = (self.key, right.key)
        match = digrams.get(key)
        if match is None:
            digrams[key] = self
            return False
        if match is not self and match.next is not self:
            self._process_match(match)
        return True

    def _process_match(self, match: "_SequiturSymbol") -> None:
        """Replace both occurrences of a repeated digram by a rule."""
        encoder = self.encoder
        if match.prev.is_guard and match.next.next.is_guard:
            # The earlier occurrence is exactly an existing rule's body.
            rule = match.prev.rule
            self.substitute(rule)
        else:
            rule = _SequiturRule(encoder)
            # Copies of the digram's two symbols become the new body; linking
            # them into an empty rule touches no digram.
            first = _SequiturSymbol(encoder, match.key, match.rule)
            second = _SequiturSymbol(encoder, match.next.key, match.next.rule)
            guard = rule.guard
            guard.next = first
            first.prev = guard
            first.next = second
            second.prev = first
            second.next = guard
            guard.prev = second
            match.substitute(rule)
            self.substitute(rule)
            # Register the new rule body's single digram last, as in the
            # reference implementation.
            encoder._digrams[rule.first().digram_key()] = rule.first()
            encoder._rules[rule.number] = rule
        # Rule utility: inline a sub-rule that is now used only once.
        first = rule.first()
        if first.is_nonterminal and first.rule.reference_count == 1:
            first.expand()

    def substitute(self, rule: _SequiturRule) -> None:
        """Replace the digram starting at ``self`` with a reference to ``rule``."""
        prev = self.prev
        prev.next.unlink()
        prev.next.unlink()
        prev.insert_after(_SequiturSymbol(self.encoder, rule.key, rule))
        if not prev.check():
            prev.next.check()

    def expand(self) -> None:
        """Inline this non-terminal's rule (rule utility enforcement)."""
        left = self.prev
        right = self.next
        dead_rule = self.rule
        body_first = dead_rule.first()
        body_last = dead_rule.last()
        self.delete_digram()
        left.join(body_first)
        body_last.join(right)
        self.encoder._digrams[(body_last.key, right.key)] = body_last
        dead_rule.reference_count = 0
        # Forget inlined rules, so a long-lived stream holds only live ones.
        del self.encoder._rules[dead_rule.number]


class SequiturEncoder:
    """Build a Sequitur grammar from an integer token stream.

    Example
    -------
    >>> grammar = SequiturEncoder().encode([1, 2, 3, 1, 2, 3, 1, 2])
    >>> grammar.expand_root()
    [1, 2, 3, 1, 2, 3, 1, 2]
    """

    def __init__(self) -> None:
        self._digrams: Dict[Tuple[SymbolKey, SymbolKey], _SequiturSymbol] = {}
        #: Non-start rules by number, until rule utility inlines them.
        self._rules: Dict[int, _SequiturRule] = {}
        self._rule_counter = 0
        self._start: Optional[_SequiturRule] = None

    def _next_rule_number(self) -> int:
        number = self._rule_counter
        self._rule_counter += 1
        return number

    # -- public API --------------------------------------------------------------
    def encode(self, tokens: Iterable[int]) -> Grammar:
        """Consume ``tokens`` and return the resulting grammar.

        The encoder is single-use per *stream*: ``encode`` starts the
        stream, so it can only be called once.  Incremental callers use
        :meth:`begin` / :meth:`extend` / :meth:`snapshot` instead and
        may keep extending the same stream after snapshotting.
        """
        self.begin()
        self.extend(tokens)
        return self._build_grammar()

    def begin(self) -> "SequiturEncoder":
        """Start an (initially empty) stream; returns ``self`` for chaining."""
        if self._start is not None:
            raise RuntimeError("SequiturEncoder instances are single-use")
        self._start = _SequiturRule(self)
        return self

    def extend(self, tokens: Iterable[int]) -> None:
        """Append ``tokens`` to the live stream, maintaining both invariants.

        Because Sequitur is an online algorithm, extending a stream
        yields exactly the grammar that encoding the concatenated stream
        in one call would have produced.
        """
        if self._start is None:
            raise RuntimeError("call begin() (or encode()) before extend()")
        guard = self._start.guard
        for token in tokens:
            if token < 0:
                raise ValueError("input tokens must be non-negative integers")
            # Appending at the end of the root body touches no digram but
            # the one it completes, so link directly and check that one.
            symbol = _SequiturSymbol(self, int(token))
            last = guard.prev
            last.next = symbol
            symbol.prev = last
            symbol.next = guard
            guard.prev = symbol
            last.check()

    def snapshot(self, terminal_map: Optional[Mapping[int, int]] = None) -> Grammar:
        """An immutable :class:`Grammar` of the stream consumed so far.

        Non-destructive: the encoder stays live and :meth:`extend` may
        keep appending afterwards.  ``terminal_map`` relabels the listed
        terminals on the way out (terminals not in it keep their id), so a
        caller renaming a few symbols builds and validates one grammar.
        """
        if self._start is None:
            raise RuntimeError("call begin() (or encode()) before snapshot()")
        return self._build_grammar(terminal_map)

    # -- invariant inspection (used by tests) -----------------------------------------
    def check_digram_uniqueness(self) -> bool:
        """True if no digram occurs twice across all live rule bodies.

        Overlapping occurrences (``a a a`` -> digram ``(a, a)`` at two
        positions sharing the middle symbol) are exempt, exactly as in
        the reference Sequitur implementation, because replacing them
        with a rule would be ambiguous.
        """
        occurrences: Dict[Tuple[SymbolKey, SymbolKey], List[Tuple[int, int]]] = {}
        for rule in self._live_rules():
            symbol = rule.first()
            position = 0
            while not symbol.is_guard and not symbol.next.is_guard:
                occurrences.setdefault(symbol.digram_key(), []).append(
                    (rule.number, position)
                )
                symbol = symbol.next
                position += 1
        for places in occurrences.values():
            if len(places) == 1:
                continue
            if len(places) > 2:
                return False
            (rule_a, pos_a), (rule_b, pos_b) = places
            if rule_a != rule_b or abs(pos_a - pos_b) != 1:
                return False
        return True

    def check_rule_utility(self) -> bool:
        """True if every non-start rule is referenced at least twice."""
        return all(rule.reference_count >= 2 for rule in self._live_rules() if rule is not self._start)

    def _live_rules(self) -> List[_SequiturRule]:
        assert self._start is not None
        live = [self._start]
        live.extend(r for r in self._rules.values() if r.reference_count > 0)
        return live

    # -- conversion to the immutable Grammar -------------------------------------------
    def _build_grammar(self, terminal_map: Optional[Mapping[int, int]] = None) -> Grammar:
        assert self._start is not None
        # Assign dense ids in discovery (DFS preorder) order starting at the
        # root.  A body's references all get their ids while that body is
        # scanned, so each body is encoded in the same pass.
        id_of: Dict[int, int] = {self._start.number: 0}
        bodies: List[List[int]] = [[]]
        stack: List[_SequiturRule] = [self._start]
        while stack:
            rule = stack.pop()
            body = bodies[id_of[rule.number]]
            symbol = rule.guard.next
            while not symbol.is_guard:
                child = symbol.rule
                if child is None:
                    key = symbol.key
                    body.append(terminal_map.get(key, key) if terminal_map else key)
                else:
                    dense_id = id_of.get(child.number)
                    if dense_id is None:
                        dense_id = id_of[child.number] = len(bodies)
                        bodies.append([])
                        stack.append(child)
                    body.append(make_rule_ref(dense_id))
                symbol = symbol.next
        return Grammar([Rule(rule_id=dense_id, symbols=body) for dense_id, body in enumerate(bodies)])

"""Tests for the grammar/rule representation and symbol encoding."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.compression.grammar import (
    Grammar,
    Rule,
    is_rule_ref,
    make_rule_ref,
    rule_ref_id,
)


def build_example_grammar() -> Grammar:
    """The Figure 1 grammar: R0 -> R1 R1 spt R2 w1, R1 -> R2 w3 R2 w4, R2 -> w1 w2.

    Word ids: w1=0, w2=1, w3=2, w4=3, splitter=4.
    """
    return Grammar(
        [
            Rule(0, [make_rule_ref(1), make_rule_ref(1), 4, make_rule_ref(2), 0]),
            Rule(1, [make_rule_ref(2), 2, make_rule_ref(2), 3]),
            Rule(2, [0, 1]),
        ]
    )


class TestSymbolEncoding:
    def test_rule_ref_roundtrip(self):
        for rule_id in (0, 1, 5, 1000):
            assert rule_ref_id(make_rule_ref(rule_id)) == rule_id

    def test_rule_refs_are_negative(self):
        assert make_rule_ref(0) == -1
        assert is_rule_ref(make_rule_ref(0))

    def test_terminals_are_not_rule_refs(self):
        assert not is_rule_ref(0)
        assert not is_rule_ref(42)

    def test_negative_rule_id_rejected(self):
        with pytest.raises(ValueError):
            make_rule_ref(-1)

    def test_rule_ref_id_of_terminal_rejected(self):
        with pytest.raises(ValueError):
            rule_ref_id(3)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_encoding_is_injective(self, rule_id):
        encoded = make_rule_ref(rule_id)
        assert is_rule_ref(encoded)
        assert rule_ref_id(encoded) == rule_id


class TestRule:
    def test_terminals_and_subrules(self):
        rule = Rule(1, [make_rule_ref(2), 2, make_rule_ref(2), 3])
        assert rule.terminals() == [2, 3]
        assert rule.subrule_ids() == [2, 2]

    def test_subrule_frequencies(self):
        rule = Rule(1, [make_rule_ref(2), 2, make_rule_ref(2), 3])
        assert rule.subrule_frequencies() == {2: 2}

    def test_terminal_frequencies(self):
        rule = Rule(0, [0, 1, 0, make_rule_ref(1)])
        assert rule.terminal_frequencies() == {0: 2, 1: 1}

    def test_len(self):
        assert len(Rule(0, [1, 2, 3])) == 3


class TestGrammar:
    def test_requires_root(self):
        with pytest.raises(ValueError):
            Grammar([])

    def test_rule_ids_must_be_dense(self):
        with pytest.raises(ValueError):
            Grammar([Rule(0, []), Rule(2, [])])

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError):
            Grammar([Rule(0, [make_rule_ref(3)])])

    def test_self_reference_rejected(self):
        with pytest.raises(ValueError):
            Grammar([Rule(0, [make_rule_ref(0)])])

    def test_expand_root_matches_manual_expansion(self):
        grammar = build_example_grammar()
        # R2 = w1 w2 ; R1 = R2 w3 R2 w4 = w1 w2 w3 w1 w2 w4
        # R0 = R1 R1 spt R2 w1
        expected = [0, 1, 2, 0, 1, 3] * 2 + [4, 0, 1, 0]
        assert grammar.expand_root() == expected

    def test_expansion_lengths(self):
        grammar = build_example_grammar()
        lengths = grammar.expansion_lengths()
        assert lengths[2] == 2
        assert lengths[1] == 6
        assert lengths[0] == 16

    def test_total_symbols(self):
        grammar = build_example_grammar()
        assert grammar.total_symbols() == 5 + 4 + 2

    def test_expand_rule_single(self):
        grammar = build_example_grammar()
        assert grammar.expand_rule(2) == [0, 1]

    def test_cycle_detected_in_bottom_up_order(self):
        # A cycle cannot be constructed through the validated constructor,
        # so build rules that reference forward and then mutate.
        grammar = build_example_grammar()
        grammar.rules[2].symbols.append(make_rule_ref(1))
        with pytest.raises(ValueError):
            grammar.expansion_lengths()

    def test_expansion_lengths_scan_each_rule_once(self, monkeypatch):
        # A root body of ~50k references (a large corpus's root rule) over a
        # chain of shared rules: ordering must list each body's children
        # once, not once per DFS step.
        num_shared = 200
        rules = [Rule(0, [make_rule_ref(1 + i % num_shared) for i in range(50_000)])]
        for rule_id in range(1, num_shared + 1):
            body = [2 * rule_id, 2 * rule_id + 1]
            if rule_id < num_shared:
                body.append(make_rule_ref(rule_id + 1))
            rules.append(Rule(rule_id, body))
        grammar = Grammar(rules)
        calls = {}
        original = Rule.subrule_ids

        def counting(rule):
            calls[rule.rule_id] = calls.get(rule.rule_id, 0) + 1
            # Fail on the first repeat: a quadratic order would run for minutes.
            assert calls[rule.rule_id] == 1, f"rule {rule.rule_id} listed twice"
            return original(rule)

        monkeypatch.setattr(Rule, "subrule_ids", counting)
        lengths = grammar.expansion_lengths()
        assert len(calls) == len(grammar)
        assert lengths[num_shared] == 2
        assert lengths[1] == 2 * num_shared

    def test_equality(self):
        assert build_example_grammar() == build_example_grammar()

    def test_root_property(self):
        assert build_example_grammar().root.rule_id == 0

    def test_iteration_order(self):
        grammar = build_example_grammar()
        assert [rule.rule_id for rule in grammar] == [0, 1, 2]

"""Tests for the Sequitur grammar-inference algorithm.

The two core invariants (digram uniqueness and rule utility) plus exact
round-trip reconstruction are checked on hand-picked sequences and with
property-based testing over random token streams.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compression.grammar import is_rule_ref
from repro.compression.sequitur import SequiturEncoder


def encode(sequence):
    encoder = SequiturEncoder()
    grammar = encoder.encode(sequence)
    return encoder, grammar


class TestBasics:
    def test_empty_sequence(self):
        _encoder, grammar = encode([])
        assert grammar.expand_root() == []
        assert len(grammar) == 1

    def test_single_token(self):
        _encoder, grammar = encode([7])
        assert grammar.expand_root() == [7]

    def test_no_repetition_creates_no_rules(self):
        _encoder, grammar = encode([1, 2, 3, 4, 5])
        assert len(grammar) == 1

    def test_simple_repetition_creates_rule(self):
        _encoder, grammar = encode([1, 2, 1, 2])
        assert len(grammar) == 2
        assert grammar.expand_root() == [1, 2, 1, 2]

    def test_classic_abcabc(self):
        _encoder, grammar = encode([1, 2, 3, 1, 2, 3])
        assert grammar.expand_root() == [1, 2, 3, 1, 2, 3]
        # One rule for "1 2 3" (possibly built from a nested "1 2" rule).
        assert len(grammar) >= 2

    def test_rule_reuse_across_occurrences(self):
        sequence = [1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3]
        _encoder, grammar = encode(sequence)
        assert grammar.expand_root() == sequence

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            SequiturEncoder().encode([1, -2, 3])

    def test_encoder_single_use(self):
        encoder = SequiturEncoder()
        encoder.encode([1, 2, 1, 2])
        with pytest.raises(RuntimeError):
            encoder.encode([3, 4])

    def test_runs_of_identical_tokens(self):
        for length in range(1, 12):
            sequence = [5] * length
            _encoder, grammar = encode(sequence)
            assert grammar.expand_root() == sequence

    def test_rule_bodies_have_at_least_two_symbols(self):
        _encoder, grammar = encode([1, 2, 3, 1, 2, 3, 4, 1, 2])
        for rule in grammar.rules[1:]:
            assert len(rule) >= 2

    def test_every_non_root_rule_is_referenced(self):
        _encoder, grammar = encode([1, 2, 3, 1, 2, 3, 4, 1, 2, 4, 1, 2])
        referenced = set()
        for rule in grammar:
            referenced.update(rule.subrule_ids())
        for rule in grammar.rules[1:]:
            assert rule.rule_id in referenced


class TestInvariants:
    def test_digram_uniqueness_on_example(self):
        encoder, _grammar = encode([1, 2, 3, 1, 2, 3, 1, 2, 4, 5, 1, 2, 3])
        assert encoder.check_digram_uniqueness()

    def test_rule_utility_on_example(self):
        encoder, _grammar = encode([1, 2, 3, 1, 2, 3, 1, 2, 4, 5, 1, 2, 3])
        assert encoder.check_rule_utility()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=120))
    def test_roundtrip_small_alphabet(self, sequence):
        encoder, grammar = encode(sequence)
        assert grammar.expand_root() == sequence
        assert encoder.check_digram_uniqueness()
        assert encoder.check_rule_utility()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=200))
    def test_roundtrip_larger_alphabet(self, sequence):
        encoder, grammar = encode(sequence)
        assert grammar.expand_root() == sequence
        assert encoder.check_digram_uniqueness()
        assert encoder.check_rule_utility()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
        st.integers(min_value=2, max_value=6),
    )
    def test_periodic_sequences_compress(self, period, repeats):
        sequence = period * repeats
        _encoder, grammar = encode(sequence)
        assert grammar.expand_root() == sequence
        if len(sequence) >= 8 and len(set(period)) > 1:
            # Repetition should fold into at least one shared rule.
            assert len(grammar) >= 2

    def test_compression_is_effective_on_redundant_input(self):
        sequence = [1, 2, 3, 4, 5] * 50
        _encoder, grammar = encode(sequence)
        assert grammar.total_symbols() < len(sequence) / 3

    def test_grammar_symbols_reference_valid_rules(self):
        _encoder, grammar = encode([1, 2, 3, 4, 1, 2, 3, 4, 5, 1, 2])
        for rule in grammar:
            for symbol in rule.symbols:
                if is_rule_ref(symbol):
                    assert 0 <= -symbol - 1 < len(grammar)


# ----------------------------------------------------------------------------------------
# Golden grammars: the encoder's exact output on seeded streams
# ----------------------------------------------------------------------------------------


def _grammar_digest(grammar) -> str:
    payload = json.dumps([rule.symbols for rule in grammar], separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def _phrase_stream(seed: int, length: int, vocab: int):
    """A phrase-heavy stream: repeated phrases nest into multi-level rules."""
    rng = random.Random(seed)
    phrases = [
        [rng.randrange(vocab) for _ in range(rng.randint(2, 9))] for _ in range(40)
    ]
    stream = []
    while len(stream) < length:
        if rng.random() < 0.7:
            stream.extend(rng.choice(phrases))
        else:
            stream.append(rng.randrange(vocab))
    return stream[:length]


def _runs_stream(seed: int, length: int):
    """Runs of identical tokens: the overlapping-digram (triple) cases."""
    rng = random.Random(seed)
    stream = []
    while len(stream) < length:
        stream.extend([rng.randrange(3)] * rng.randint(1, 7))
    return stream[:length]


GOLDEN_STREAMS = {
    "phrases-s1": _phrase_stream(1, 3000, 60),
    "phrases-s2": _phrase_stream(2, 5000, 200),
    "phrases-s3": _phrase_stream(3, 2000, 12),
    "runs-s4": _runs_stream(4, 2000),
    "periodic": [1, 2, 3, 1, 2, 3, 1, 2, 4] * 40 + [5] * 33,
}

#: ``stream name -> (digest of every rule body, rule count)``, recorded
#: from the reference encoder.  Any change to the digram bookkeeping that
#: alters a single rule shows up here as a changed digest.
GOLDEN_GRAMMARS = {
    "periodic": ("8813e208063029d3", 13),
    "phrases-s1": ("36bf0a7396621f62", 100),
    "phrases-s2": ("87362b44b39b6696", 148),
    "phrases-s3": ("3c362ac33d922a14", 165),
    "runs-s4": ("51da4402715ca03a", 105),
}


class TestGoldenGrammars:
    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAMMARS))
    def test_encoder_output_is_pinned(self, name):
        stream = GOLDEN_STREAMS[name]
        _encoder, grammar = encode(stream)
        assert grammar.expand_root() == stream
        assert (_grammar_digest(grammar), len(grammar)) == GOLDEN_GRAMMARS[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAMMARS))
    def test_extend_in_chunks_matches_one_shot(self, name):
        stream = GOLDEN_STREAMS[name]
        encoder = SequiturEncoder().begin()
        snapshots = []
        for start in range(0, len(stream), 700):
            encoder.extend(stream[start:start + 700])
            snapshots.append(encoder.snapshot())
        assert _grammar_digest(snapshots[-1]) == GOLDEN_GRAMMARS[name][0]
        assert snapshots[0].expand_root() == stream[:700]

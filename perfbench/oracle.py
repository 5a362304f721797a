"""Independent answer checker.

The checker keeps its own copy of every corpus's token streams, applies
each mutation to that copy, and recomputes the six tasks and relational
queries with plain ``collections.Counter`` code.  It imports nothing
from ``repro``, so a fault shared by every engine of the library cannot
hide from it.

An unfiltered answer must equal the recomputed one exactly.  Filtered
answers are checked against properties the method must have, whatever
order it breaks ties in:

* ``files``/``terms`` restrict the answer exactly: every entry lies in
  the requested files and terms and carries its true value, and no
  qualifying entry is missing;
* ``top_k`` keeps ``min(k, n)`` entries of the ranked axis, each with
  its true value, and no entry left out ranks strictly above one kept;
* relational answers carry the true aggregates of every group they
  list, in group order or in ``order_by`` order, cut to ``top_k``.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.inputs import FIELDS, QuerySpec

__all__ = ["Mismatch", "Oracle"]

_DEFAULT_SEQUENCE_LENGTH = 3


class Mismatch(AssertionError):
    """An engine answer that disagrees with the independent recomputation."""


def _fail(spec: QuerySpec, message: str) -> None:
    raise Mismatch(f"{spec.task} {spec}: {message}")


class Oracle:
    """Reference answers for one corpus, kept in step with its mutations."""

    def __init__(self, files: Dict[str, Sequence[str]]) -> None:
        self.files: Dict[str, List[str]] = {name: list(tokens) for name, tokens in files.items()}
        self._counts: Dict[str, Counter] = {}
        self._grams: Dict[Tuple[str, int], Counter] = {}

    # -- mutations -----------------------------------------------------------------
    def append(self, new_files: Dict[str, Sequence[str]]) -> None:
        for name, tokens in new_files.items():
            if name in self.files:
                raise ValueError(f"oracle already has file {name!r}")
            self.files[name] = list(tokens)

    def replace(self, name: str, tokens: Sequence[str]) -> None:
        if name not in self.files:
            raise KeyError(name)
        self.files[name] = list(tokens)
        self._forget(name)

    def remove(self, name: str) -> None:
        del self.files[name]
        self._forget(name)

    def _forget(self, name: str) -> None:
        self._counts.pop(name, None)
        for key in [key for key in self._grams if key[0] == name]:
            del self._grams[key]

    # -- per-file primitives -------------------------------------------------------
    def _file_counts(self, name: str) -> Counter:
        counts = self._counts.get(name)
        if counts is None:
            counts = self._counts[name] = Counter(self.files[name])
        return counts

    def _file_grams(self, name: str, length: int) -> Counter:
        grams = self._grams.get((name, length))
        if grams is None:
            tokens = self.files[name]
            grams = Counter(
                tuple(tokens[start:start + length]) for start in range(len(tokens) - length + 1)
            )
            self._grams[(name, length)] = grams
        return grams

    def _selected(self, spec: QuerySpec) -> List[str]:
        if spec.files is None:
            return list(self.files)
        missing = [name for name in spec.files if name not in self.files]
        if missing:
            raise KeyError(f"query names unknown files {missing}")
        wanted = set(spec.files)
        return [name for name in self.files if name in wanted]

    # -- checking ------------------------------------------------------------------
    def check(self, spec: QuerySpec, result: Any) -> None:
        """Raise :class:`Mismatch` unless ``result`` answers ``spec`` correctly."""
        if spec.task == "relational":
            self._check_relational(spec, result)
            return
        files = self._selected(spec)
        allowed = set(spec.terms) if spec.terms is not None else None
        if spec.task in ("word_count", "sort"):
            totals: Counter = Counter()
            for name in files:
                totals.update(self._file_counts(name))
            expected = _restrict(totals, allowed)
            if spec.task == "word_count":
                _check_ranked_map(spec, result, expected)
            else:
                _check_sort(spec, result, expected)
        elif spec.task == "sequence_count":
            length = spec.sequence_length or _DEFAULT_SEQUENCE_LENGTH
            totals = Counter()
            for name in files:
                totals.update(self._file_grams(name, length))
            if allowed is not None:
                totals = Counter(
                    {gram: n for gram, n in totals.items() if all(w in allowed for w in gram)}
                )
            _check_ranked_map(spec, result, dict(totals))
        elif spec.task == "term_vector":
            if not isinstance(result, dict) or set(result) != set(files):
                _fail(spec, f"term vector covers files {sorted(result)[:5]}..., expected {files[:5]}...")
            for name in files:
                expected = _restrict(self._file_counts(name), allowed)
                _check_ranked_map(spec, result[name], expected, where=f"file {name}")
        elif spec.task in ("inverted_index", "ranked_inverted_index"):
            postings: Dict[str, List[Tuple[str, int]]] = {}
            for name in sorted(files):
                for word, count in _restrict(self._file_counts(name), allowed).items():
                    postings.setdefault(word, []).append((name, count))
            if not isinstance(result, dict) or set(result) != set(postings):
                _fail(spec, f"indexes {len(result)} words, expected {len(postings)}")
            for word, entries in postings.items():
                if spec.task == "inverted_index":
                    expected_files = [name for name, _count in entries]
                    if spec.top_k is not None:
                        expected_files = expected_files[: spec.top_k]
                    if list(result[word]) != expected_files:
                        _fail(spec, f"posting list of {word!r} is {result[word]}, expected {expected_files}")
                else:
                    _check_ranked_list(spec, result[word], dict(entries), where=f"word {word!r}")
        else:
            _fail(spec, "unknown task")

    def _check_relational(self, spec: QuerySpec, result: Any) -> None:
        predicate, group_by, aggregates, order_by = spec.relational
        groups: Dict[Any, List[List[Any]]] = {}
        for name in self._selected(spec):
            row = _parse_row(self.files[name])
            if not all(_matches(row[field], op, value) for field, op, value in predicate):
                continue
            group = None if group_by is None else row[group_by]
            if group_by is not None and group is None:
                continue
            buckets = groups.setdefault(group, [[] for _ in aggregates])
            for slot, (op, field) in enumerate(aggregates):
                if field is None:
                    buckets[slot].append(1)
                elif row[field] is not None:
                    buckets[slot].append(row[field])
        if group_by is None:
            groups.setdefault(None, [[] for _ in aggregates])
        expected = {
            group: tuple(_aggregate(op, field, values) for (op, field), values in zip(aggregates, buckets))
            for group, buckets in groups.items()
        }
        if not isinstance(result, list):
            _fail(spec, f"relational answer is a {type(result).__name__}")
        seen = set()
        for entry in result:
            group, values = entry
            if group in seen or group not in expected:
                _fail(spec, f"unexpected or repeated group {group!r}")
            seen.add(group)
            if not _same_values(tuple(values), expected[group]):
                _fail(spec, f"group {group!r} has {values}, expected {expected[group]}")
        wanted = len(expected) if spec.top_k is None else min(spec.top_k, len(expected))
        if len(result) != wanted:
            _fail(spec, f"{len(result)} groups, expected {wanted}")
        if order_by is None:
            ordered = sorted(expected, key=lambda group: (group is not None, group))
            if [entry[0] for entry in result] != ordered[:wanted]:
                _fail(spec, "groups are not the first groups in ascending order")
            return
        slot = [op if field is None else f"{op}({field})" for op, field in aggregates].index(order_by)
        rank = [_order_key(entry[1][slot]) for entry in result]
        if any(later > earlier for earlier, later in zip(rank, rank[1:])):
            _fail(spec, f"groups are not in descending {order_by} order")
        if rank:
            left_out = [_order_key(expected[group][slot]) for group in expected if group not in seen]
            if left_out and max(left_out) > rank[-1]:
                _fail(spec, f"a group left out ranks above the last one kept by {order_by}")


def _restrict(counts: Dict[str, int], allowed: Optional[set]) -> Dict[str, int]:
    if allowed is None:
        return dict(counts)
    return {word: count for word, count in counts.items() if word in allowed}


def _check_ranked_map(spec: QuerySpec, result: Any, expected: Dict[Any, int], where: str = "") -> None:
    """A ``{key: count}`` answer, exact or cut to ``top_k`` by count."""
    if not isinstance(result, dict):
        _fail(spec, f"{where} answer is a {type(result).__name__}, expected a dict")
    if spec.top_k is None:
        if result != expected:
            _fail(spec, f"{where} differs: {_diff(result, expected)}")
        return
    _check_top(spec, result.items(), expected, where)


def _check_sort(spec: QuerySpec, result: Any, expected: Dict[str, int]) -> None:
    entries = [tuple(entry) for entry in result]
    ordered = sorted(expected.items(), key=lambda item: (-item[1], item[0]))
    if spec.top_k is None:
        if entries != ordered:
            _fail(spec, "sorted list differs from count-descending, word-ascending order")
        return
    if any(later[1] > earlier[1] for earlier, later in zip(entries, entries[1:])):
        _fail(spec, "top-k sort is not in descending count order")
    _check_top(spec, entries, expected, "")


def _check_ranked_list(spec: QuerySpec, result: Any, expected: Dict[str, int], where: str) -> None:
    """A ranked posting list ``[(file, count), ...]``: descending counts."""
    entries = [tuple(entry) for entry in result]
    if spec.top_k is None:
        ordered = sorted(expected.items(), key=lambda item: (-item[1], item[0]))
        if entries != ordered:
            _fail(spec, f"{where} ranked postings {entries[:4]}..., expected {ordered[:4]}...")
        return
    if any(later[1] > earlier[1] for earlier, later in zip(entries, entries[1:])):
        _fail(spec, f"{where} postings are not in descending count order")
    _check_top(spec, entries, expected, where)


def _check_top(spec: QuerySpec, entries: Iterable[Tuple[Any, int]], expected: Dict[Any, int], where: str) -> None:
    kept = dict(entries)
    wanted = min(spec.top_k, len(expected))
    if len(kept) != wanted:
        _fail(spec, f"{where} keeps {len(kept)} entries, expected {wanted}")
    for key, count in kept.items():
        if expected.get(key) != count:
            _fail(spec, f"{where} entry {key!r} has {count}, true count {expected.get(key)}")
    if kept:
        floor = min(kept.values())
        for key, count in expected.items():
            if key not in kept and count > floor:
                _fail(spec, f"{where} left out {key!r} ({count}) but kept a count of {floor}")


def _diff(result: Dict[Any, Any], expected: Dict[Any, Any]) -> str:
    extra = [key for key in result if key not in expected][:3]
    missing = [key for key in expected if key not in result][:3]
    wrong = [key for key in expected if key in result and result[key] != expected[key]][:3]
    return f"extra {extra}, missing {missing}, wrong {[(k, result[k], expected[k]) for k in wrong]}"


# -- relational helpers ------------------------------------------------------------
def _parse_row(tokens: Sequence[str]) -> Dict[str, Any]:
    """Keyed fields: the token after the first occurrence of each key."""
    row: Dict[str, Any] = {}
    for field, (key, kind) in FIELDS.items():
        try:
            word = tokens[tokens.index(key) + 1]
        except (ValueError, IndexError):
            row[field] = None
            continue
        row[field] = _typed(word, kind)
    return row


def _typed(word: str, kind: str) -> Any:
    if kind == "str":
        return word
    try:
        value = int(word) if kind == "int" else float(word)
    except ValueError:
        return None
    return None if value != value else value


def _matches(value: Any, op: str, literal: Any) -> bool:
    if value is None:
        return False
    try:
        return bool(getattr(operator, op)(value, literal))
    except TypeError:
        return False


def _aggregate(op: str, field: Optional[str], values: List[Any]) -> Any:
    if op == "count":
        return len(values)
    if op == "sum":
        return sum(values) if FIELDS[field][1] == "int" else math.fsum(values)
    if not values:
        return None
    if op == "min":
        return min(values)
    if op == "max":
        return max(values)
    return math.fsum(values) / len(values)


def _same_values(got: Tuple[Any, ...], want: Tuple[Any, ...]) -> bool:
    if len(got) != len(want):
        return False
    for left, right in zip(got, want):
        if isinstance(left, float) or isinstance(right, float):
            if left is None or right is None or not math.isclose(left, right, rel_tol=1e-12, abs_tol=1e-12):
                return False
        elif left != right:
            return False
    return True


def _order_key(value: Any) -> Tuple[int, Any]:
    """Descending-order key with ``None`` ranked below every value."""
    return (0, 0) if value is None else (1, value)

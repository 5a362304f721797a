"""Incremental session maintenance across corpus epochs.

When a live :class:`~repro.compression.compressor.CompressedCorpus` is
appended to, most of the grammar survives verbatim: Sequitur is online,
so the old root body becomes a prefix of the new one and every old rule
keeps its exact subtree — only the dense rule *ids* move (the grammar
conversion re-discovers rules in DFS order, and the appended tail's
rules are discovered before old interior rules).  This module

1. diffs the old session layout against the new grammar
   (:func:`compute_grammar_delta`) using *structural interning*: digram
   uniqueness guarantees rule bodies are unique within a grammar, so
   matching bodies (with child references replaced by their intern ids)
   identifies old and new rules exactly, with no collisions; and
2. rebuilds only the changed rules' cached state
   (``delta_*`` builders), one kernel launch per state family instead
   of one launch per DAG wavefront level — the changed set is processed
   children-first inside a single launch, which is what makes a warm
   append strictly cheaper than a cold rebuild.

The diff is *empirical*, not assumed: appended content can in principle
restructure old rules (a new digram matching one inside old content, or
rule-utility inlining), and any such restructuring breaks the prefix
check, in which case the caller falls back to a full rebuild.  Weights
are salvaged additively — rule occurrence counts are linear in the root
body's references, so the new tail's contribution propagates down the
touched sub-DAG and adds onto the old values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.compression.grammar import is_rule_ref, rule_ref_id
from repro.core.layout import DeviceRuleLayout
from repro.core.sequence import (
    SequenceBuffers,
    _gather_prefix,
    _gather_suffix,
)
from repro.gpusim.device import GPUDevice
from repro.perf import workcosts as wc

__all__ = [
    "GrammarDelta",
    "compute_grammar_delta",
    "delta_prep",
    "delta_bounds",
    "delta_local_tables",
    "delta_rule_weights",
    "delta_file_weights",
    "delta_sequence_buffers",
    "delta_relational_tables",
]


@dataclass
class GrammarDelta:
    """Exact correspondence between two epochs of one corpus's grammar."""

    #: Layout of the new epoch (the session adopts it wholesale).
    new_layout: DeviceRuleLayout
    #: Old rule id -> new rule id for every structurally-surviving rule
    #: (root included as ``0 -> 0``).  Covers *all* old rules — partial
    #: survival falls back to a rebuild before a delta is ever built.
    id_map: Dict[int, int]
    #: New rule id -> old rule id (inverse of :attr:`id_map`).
    reverse_map: Dict[int, int]
    #: New rule ids with no old counterpart, children-first, so a single
    #: sequential launch can build each one from ready inputs.
    changed: List[int]
    old_num_files: int
    old_vocabulary_size: int
    #: Per new rule id: ``{file index: occurrences}`` contributed by the
    #: appended part of the root body (all file indices are new files).
    tail_sources: Dict[int, Dict[int, int]]
    #: Rules (new ids) reachable from :attr:`tail_sources`, in top-down
    #: order — the only rules whose weights change.
    touched_topdown: List[int]

    @property
    def changed_fraction(self) -> float:
        return len(self.changed) / max(1, self.new_layout.num_rules)


def _intern_rules(
    rule_bodies: List[List[int]],
    bottom_up: List[int],
    intern: Dict[Tuple, int],
) -> Dict[int, int]:
    """Intern id of every non-root rule's body, children-first.

    Child references are replaced by the child's intern id, so equal
    intern ids mean structurally identical subtrees — across grammars
    sharing the ``intern`` dict.
    """
    intern_of: Dict[int, int] = {}
    for rule_id in bottom_up:
        if rule_id == 0:
            continue
        key = tuple(
            ("r", intern_of[rule_ref_id(symbol)]) if is_rule_ref(symbol) else ("t", symbol)
            for symbol in rule_bodies[rule_id]
        )
        intern_id = intern.get(key)
        if intern_id is None:
            intern_id = len(intern)
            intern[key] = intern_id
        intern_of[rule_id] = intern_id
    return intern_of


def _grammar_bottom_up(rule_bodies: List[List[int]]) -> List[int]:
    """Children-before-parents order via an iterative DFS from the root."""
    order: List[int] = []
    visited = [False] * len(rule_bodies)
    stack: List[Tuple[int, bool]] = [(0, False)]
    while stack:
        rule_id, expanded = stack.pop()
        if expanded:
            order.append(rule_id)
            continue
        if visited[rule_id]:
            continue
        visited[rule_id] = True
        stack.append((rule_id, True))
        for symbol in rule_bodies[rule_id]:
            if is_rule_ref(symbol):
                child = rule_ref_id(symbol)
                if not visited[child]:
                    stack.append((child, False))
    return order


def compute_grammar_delta(
    old_layout: DeviceRuleLayout, new_layout: DeviceRuleLayout
) -> Optional[GrammarDelta]:
    """Diff ``old_layout`` against the new epoch's layout.

    Returns ``None`` when the old epoch did not survive as a stable
    prefix of the new one (any restructuring of old rules, a changed old
    root segment, a removed file): the caller must rebuild, and can keep
    ``new_layout`` for it.
    """
    if old_layout.num_files == 0 or old_layout.num_rules == 0:
        return None
    if new_layout.num_files < old_layout.num_files:
        return None
    old_root = old_layout.root_symbols
    new_root = new_layout.root_symbols
    if len(new_root) < len(old_root):
        return None

    intern: Dict[Tuple, int] = {}
    old_intern = _intern_rules(
        old_layout.rule_bodies, _grammar_bottom_up(old_layout.rule_bodies), intern
    )
    new_bottom_up = _grammar_bottom_up(new_layout.rule_bodies)
    new_intern = _intern_rules(new_layout.rule_bodies, new_bottom_up, intern)

    old_by_intern: Dict[int, int] = {}
    for old_id, intern_id in old_intern.items():
        if intern_id in old_by_intern:
            return None  # duplicate bodies: digram uniqueness violated upstream
        old_by_intern[intern_id] = old_id
    id_map: Dict[int, int] = {0: 0}
    reverse_map: Dict[int, int] = {0: 0}
    for new_id, intern_id in new_intern.items():
        old_id = old_by_intern.get(intern_id)
        if old_id is not None:
            id_map[old_id] = new_id
            reverse_map[new_id] = old_id
    if len(id_map) != old_layout.num_rules:
        return None  # some old rule was restructured or dropped

    # Root-prefix stability: position by position, old words stay, old
    # rule refs map to their structural match, and old splitters sit at
    # the same boundaries with the same boundary index (their ids move —
    # splitters renumber past the grown vocabulary).
    new_num_words = new_layout.vocabulary_size
    old_boundary_index = {
        segment_end: boundary
        for boundary, (_start, segment_end) in enumerate(old_layout.root_segments[:-1])
    }
    for position in range(len(old_root)):
        old_symbol = old_root[position]
        new_symbol = new_root[position]
        boundary = old_boundary_index.get(position)
        if boundary is not None:
            if is_rule_ref(new_symbol) or new_symbol != new_num_words + boundary:
                return None
            continue
        if is_rule_ref(old_symbol):
            if not is_rule_ref(new_symbol):
                return None
            if id_map[rule_ref_id(old_symbol)] != rule_ref_id(new_symbol):
                return None
        elif new_symbol != old_symbol:
            return None
    if len(new_root) > len(old_root):
        # The appended tail must open with the next boundary's splitter,
        # so every old file segment is exactly preserved.
        if new_layout.num_files <= old_layout.num_files:
            return None
        if new_root[len(old_root)] != new_num_words + (old_layout.num_files - 1):
            return None

    changed = [
        rule_id
        for rule_id in new_bottom_up
        if rule_id != 0 and rule_id not in reverse_map
    ]

    tail_sources: Dict[int, Dict[int, int]] = {}
    for element in new_layout.root_elements:
        if element.position < len(old_root) or not element.is_rule:
            continue
        if element.file_index < old_layout.num_files:
            return None  # tail content attributed to an old file: not an append
        child = rule_ref_id(element.symbol)
        per_file = tail_sources.setdefault(child, {})
        per_file[element.file_index] = per_file.get(element.file_index, 0) + 1

    # Weight-touched rules: everything reachable from the tail's direct
    # references, visited top-down so one sequential pass can propagate.
    touched = set(tail_sources)
    for rule_id in reversed(new_bottom_up):
        if rule_id in touched:
            for child, _frequency in new_layout.subrules[rule_id]:
                touched.add(child)
    touched_topdown = [
        rule_id for rule_id in reversed(new_bottom_up) if rule_id in touched and rule_id != 0
    ]

    return GrammarDelta(
        new_layout=new_layout,
        id_map=id_map,
        reverse_map=reverse_map,
        changed=changed,
        old_num_files=old_layout.num_files,
        old_vocabulary_size=old_layout.vocabulary_size,
        tail_sources=tail_sources,
        touched_topdown=touched_topdown,
    )


# ----------------------------------------------------------------------------------------
# Delta state builders: one launch each, changed rules only
# ----------------------------------------------------------------------------------------

def delta_prep(delta: GrammarDelta, device: GPUDevice) -> bool:
    """Re-run data-structure preparation for the changed rules only."""
    layout = delta.new_layout
    changed = delta.changed
    device.record.host_counter.charge(
        compute_ops=4.0 * len(changed), memory_bytes=8.0 * len(changed)
    )

    def prep_kernel(tid: int, ctx) -> None:
        if tid >= len(changed):
            return
        length = layout.rule_lengths[changed[tid]]
        ctx.charge(
            ops=wc.SYMBOL_VISIT_OPS * length + wc.MASK_CHECK_OPS,
            memory_bytes=wc.SYMBOL_VISIT_BYTES * length,
        )

    device.launch("deltaPrepKernel", prep_kernel, max(1, len(changed)))
    return True


def delta_bounds(
    delta: GrammarDelta, old_bounds: List[int], device: GPUDevice
) -> List[int]:
    """Local-table bounds for the new epoch: salvage matched, size changed."""
    layout = delta.new_layout
    bounds = [0] * layout.num_rules
    for old_id, new_id in delta.id_map.items():
        bounds[new_id] = old_bounds[old_id]
    changed = delta.changed

    def bound_kernel(tid: int, ctx) -> None:
        if tid >= len(changed):
            return
        rule_id = changed[tid]
        bound = len(layout.local_words[rule_id])
        ctx.charge(ops=wc.SYMBOL_VISIT_OPS, memory_bytes=8.0)
        for child, _frequency in layout.subrules[rule_id]:
            ctx.charge(ops=wc.EDGE_VISIT_OPS, memory_bytes=wc.EDGE_VISIT_BYTES)
            bound += bounds[child]
        bounds[rule_id] = min(bound, layout.vocabulary_size)

    device.launch("deltaBoundKernel", bound_kernel, max(1, len(changed)))
    return bounds


def delta_local_tables(
    delta: GrammarDelta, old_tables: List[Dict[int, int]], device: GPUDevice
) -> List[Dict[int, int]]:
    """Subtree-complete word tables: matched subtrees are identical, reuse."""
    layout = delta.new_layout
    tables: List[Dict[int, int]] = [dict() for _ in range(layout.num_rules)]
    for old_id, new_id in delta.id_map.items():
        if new_id != 0:
            tables[new_id] = old_tables[old_id]
    changed = delta.changed

    def loc_tbl_kernel(tid: int, ctx) -> None:
        if tid >= len(changed):
            return
        rule_id = changed[tid]
        table = tables[rule_id]
        for word_id, count in layout.local_words[rule_id]:
            ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
            table[word_id] = table.get(word_id, 0) + count
        for child, frequency in layout.subrules[rule_id]:
            ctx.charge(ops=wc.EDGE_VISIT_OPS, memory_bytes=wc.EDGE_VISIT_BYTES)
            for word_id, count in tables[child].items():
                ctx.charge(ops=wc.HASH_UPDATE_OPS, memory_bytes=wc.HASH_UPDATE_BYTES)
                table[word_id] = table.get(word_id, 0) + count * frequency

    device.launch("deltaLocTblKernel", loc_tbl_kernel, max(1, len(changed)))
    return tables


def delta_rule_weights(
    delta: GrammarDelta, old_weights: List[int], device: GPUDevice
) -> List[int]:
    """Occurrence weights: old values plus the appended tail's contribution."""
    layout = delta.new_layout
    weights = [0] * layout.num_rules
    weights[0] = 1
    for old_id, new_id in delta.id_map.items():
        if new_id != 0:
            weights[new_id] = old_weights[old_id]
    order = delta.touched_topdown
    increments: Dict[int, int] = {}
    for rule_id, per_file in delta.tail_sources.items():
        increments[rule_id] = sum(per_file.values())

    def topdown_kernel(tid: int, ctx) -> None:
        if tid >= len(order):
            return
        rule_id = order[tid]
        ctx.charge(ops=wc.MASK_CHECK_OPS + wc.WEIGHT_UPDATE_OPS, memory_bytes=16.0)
        increment = increments.get(rule_id, 0)
        if increment == 0:
            return
        weights[rule_id] += increment
        for child, frequency in layout.subrules[rule_id]:
            ctx.charge(ops=wc.EDGE_VISIT_OPS, memory_bytes=wc.EDGE_VISIT_BYTES)
            increments[child] = increments.get(child, 0) + frequency * increment

    device.launch("deltaTopDownKernel", topdown_kernel, max(1, len(order)))
    return weights


def delta_file_weights(
    delta: GrammarDelta, old_file_weights: List[Dict[int, int]], device: GPUDevice
) -> List[Dict[int, int]]:
    """Per-file weights: old files' tables survive, new files propagate down."""
    layout = delta.new_layout
    file_weights: List[Dict[int, int]] = [dict() for _ in range(layout.num_rules)]
    for old_id, new_id in delta.id_map.items():
        if new_id != 0:
            file_weights[new_id] = dict(old_file_weights[old_id])
    order = delta.touched_topdown
    increments: Dict[int, Dict[int, int]] = {
        rule_id: dict(per_file) for rule_id, per_file in delta.tail_sources.items()
    }

    def topdown_kernel(tid: int, ctx) -> None:
        if tid >= len(order):
            return
        rule_id = order[tid]
        ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=16.0)
        own = increments.get(rule_id)
        if not own:
            return
        table = file_weights[rule_id]
        for file_index, weight in own.items():
            ctx.charge(ops=wc.WEIGHT_UPDATE_OPS, memory_bytes=8.0)
            table[file_index] = table.get(file_index, 0) + weight
        for child, frequency in layout.subrules[rule_id]:
            ctx.charge(ops=wc.EDGE_VISIT_OPS, memory_bytes=wc.EDGE_VISIT_BYTES)
            child_increments = increments.setdefault(child, {})
            for file_index, weight in own.items():
                ctx.charge(ops=wc.WEIGHT_UPDATE_OPS + 1.0, memory_bytes=wc.SYMBOL_VISIT_BYTES)
                ctx.atomic_ops += 1.0
                child_increments[file_index] = (
                    child_increments.get(file_index, 0) + frequency * weight
                )

    device.launch("deltaTopDownFileKernel", topdown_kernel, max(1, len(order)))
    return file_weights


def delta_sequence_buffers(
    delta: GrammarDelta, old_buffers: SequenceBuffers, device: GPUDevice
) -> SequenceBuffers:
    """Head/tail buffers for one length: fill only the changed rules."""
    layout = delta.new_layout
    sequence_length = old_buffers.sequence_length
    limit = max(0, sequence_length - 1)
    short_limit = 2 * limit
    num_rules = layout.num_rules
    heads: List[Optional[List[int]]] = [None] * num_rules
    tails: List[Optional[List[int]]] = [None] * num_rules
    short_expansions: List[Optional[List[int]]] = [None] * num_rules
    ready = [False] * num_rules
    ready[0] = True
    heads[0] = []
    tails[0] = []
    for old_id, new_id in delta.id_map.items():
        if new_id == 0:
            continue
        heads[new_id] = old_buffers.heads[old_id]
        tails[new_id] = old_buffers.tails[old_id]
        short_expansions[new_id] = old_buffers.short_expansions[old_id]
        ready[new_id] = True
    changed = delta.changed

    def head_tail_kernel(tid: int, ctx) -> None:
        if tid >= len(changed):
            return
        rule_id = changed[tid]
        ctx.charge(ops=wc.MASK_CHECK_OPS, memory_bytes=4.0)
        head = _gather_prefix(layout, rule_id, limit, heads, short_expansions, ready, ctx)
        tail = _gather_suffix(layout, rule_id, limit, tails, short_expansions, ready, ctx)
        if head is None or tail is None:
            # changed is children-first, so every input is ready by now.
            return
        short: Optional[List[int]] = None
        if layout.expansion_lengths[rule_id] <= short_limit:
            short = _gather_prefix(
                layout,
                rule_id,
                layout.expansion_lengths[rule_id],
                heads,
                short_expansions,
                ready,
                ctx,
            )
        heads[rule_id] = head
        tails[rule_id] = tail
        short_expansions[rule_id] = short
        ready[rule_id] = True

    device.launch("deltaHeadTailKernel", head_tail_kernel, max(1, len(changed)))
    if not all(ready):
        raise RuntimeError("delta head/tail fill left rules unready")
    return SequenceBuffers(
        sequence_length=sequence_length,
        heads=[head if head is not None else [] for head in heads],
        tails=[tail if tail is not None else [] for tail in tails],
        short_expansions=short_expansions,
        rounds=old_buffers.rounds,
    )


def delta_relational_tables(
    delta: GrammarDelta, old_states: List[Any], schema, dictionary, device: GPUDevice
) -> Optional[List[Any]]:
    """Per-rule relational parse states, or ``None`` when they cannot survive.

    A schema key word first appearing in appended content grows the
    anchor set, changing every state's arity — detected by an anchor id
    beyond the old vocabulary — and the schema's states are dropped for
    a lazy rebuild instead.
    """
    from repro.relational import compute as rc

    anchors = rc.anchor_ids(schema, dictionary)
    if any(anchor >= delta.old_vocabulary_size for anchor in anchors):
        return None
    caps = rc.schema_caps(schema)
    layout = delta.new_layout
    num_rules = layout.num_rules
    states: List[Any] = [rc.empty_state(len(anchors)) for _ in range(num_rules)]
    for old_id, new_id in delta.id_map.items():
        if new_id != 0:
            states[new_id] = old_states[old_id]
    changed = delta.changed

    def parse_kernel(tid: int, ctx) -> None:
        if tid >= len(changed):
            return
        rule_id = changed[tid]
        body = layout.rule_bodies[rule_id]
        ctx.charge(
            ops=wc.SYMBOL_VISIT_OPS * len(body),
            memory_bytes=wc.SYMBOL_VISIT_BYTES * len(body),
        )
        states[rule_id] = rc.fold_symbol_states(body, states, anchors, caps)

    device.launch("deltaRelParseKernel", parse_kernel, max(1, len(changed)))
    return states

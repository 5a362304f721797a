"""DAG view of a TADOC grammar.

The CFG produced by Sequitur can be viewed as a directed acyclic graph
(Figure 1(e)): nodes are rules, and an edge ``parent -> child`` exists
when the parent's body references the child, weighted by how many times
it does.  All TADOC analytics are DAG traversals, and G-TADOC's
fine-grained scheduling, masks and memory-pool sizing are all driven by
the DAG structure, so this module precomputes everything the engines
need: in/out edges, parents, per-rule occurrence weights, topological
layers and summary statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

from repro.compression.grammar import Grammar

__all__ = ["GrammarDAG", "DagStatistics"]


@dataclass(frozen=True)
class DagStatistics:
    """Summary statistics of a grammar DAG (reported in Table II style)."""

    num_rules: int
    num_edges: int
    total_symbols: int
    num_terminal_symbols: int
    depth: int
    max_rule_length: int
    avg_rule_length: float
    middle_layer_nodes: int


class GrammarDAG:
    """Precomputed adjacency and traversal metadata for a grammar."""

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        num_rules = len(grammar)
        # child -> list of (parent, multiplicity); parent -> list of (child, multiplicity)
        self.children: List[List[Tuple[int, int]]] = [[] for _ in range(num_rules)]
        self.parents: List[List[Tuple[int, int]]] = [[] for _ in range(num_rules)]
        for rule in grammar:
            for child, count in sorted(rule.subrule_frequencies().items()):
                self.children[rule.rule_id].append((child, count))
                self.parents[child].append((rule.rule_id, count))
        # Number of distinct in/out edges (multiplicities collapsed).
        self.num_in_edges: List[int] = [len(self.parents[r]) for r in range(num_rules)]
        self.num_out_edges: List[int] = [len(self.children[r]) for r in range(num_rules)]
        self._layers: List[List[int]] = self._compute_layers()
        self._weights: List[int] = self._compute_weights()
        self._expansion_lengths: List[int] = self._compute_expansion_lengths()

    # -- structural helpers --------------------------------------------------------
    def _compute_layers(self) -> List[List[int]]:
        """Topological layers from the root (layer 0 = root)."""
        num_rules = len(self.grammar)
        depth = [0] * num_rules
        indegree = list(self.num_in_edges)
        queue = deque(r for r in range(num_rules) if indegree[r] == 0)
        order: List[int] = []
        while queue:
            rule_id = queue.popleft()
            order.append(rule_id)
            for child, _count in self.children[rule_id]:
                depth[child] = max(depth[child], depth[rule_id] + 1)
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        if len(order) != num_rules:
            raise ValueError("grammar DAG contains a cycle")
        max_depth = max(depth) if depth else 0
        layers: List[List[int]] = [[] for _ in range(max_depth + 1)]
        for rule_id, rule_depth in enumerate(depth):
            layers[rule_depth].append(rule_id)
        return layers

    def _compute_weights(self) -> List[int]:
        """Occurrence weight of each rule in the full expansion (root = 1)."""
        weights = [0] * len(self.grammar)
        weights[Grammar.ROOT_ID] = 1
        for layer in self._layers:
            for rule_id in layer:
                for child, count in self.children[rule_id]:
                    weights[child] += weights[rule_id] * count
        return weights

    def _compute_expansion_lengths(self) -> List[int]:
        """Terminals each rule expands to, folded leaves-first over the layers.

        Reuses the Kahn layers, so one topological pass per grammar serves
        layers, weights and lengths alike.
        """
        lengths = [0] * len(self.grammar)
        for layer in reversed(self._layers):
            for rule_id in layer:
                # Each reference swaps one body symbol for its child's expansion.
                total = len(self.grammar.rules[rule_id])
                for child, count in self.children[rule_id]:
                    total += count * (lengths[child] - 1)
                lengths[rule_id] = total
        return lengths

    # -- public accessors --------------------------------------------------------------
    @property
    def layers(self) -> List[List[int]]:
        """Topological layers (layer 0 contains the root)."""
        return self._layers

    @property
    def depth(self) -> int:
        """Number of layers in the DAG."""
        return len(self._layers)

    @property
    def weights(self) -> List[int]:
        """``weights[r]`` = number of times rule ``r`` occurs in the expansion."""
        return self._weights

    @property
    def expansion_lengths(self) -> List[int]:
        """``expansion_lengths[r]`` = number of terminals rule ``r`` expands to."""
        return self._expansion_lengths

    def topological_order(self) -> List[int]:
        """Rule ids in root-first topological order."""
        return [rule_id for layer in self._layers for rule_id in layer]

    def bottom_up_order(self) -> List[int]:
        """Rule ids in leaves-first topological order."""
        return list(reversed(self.topological_order()))

    def statistics(self) -> DagStatistics:
        grammar = self.grammar
        lengths = [len(rule) for rule in grammar]
        num_edges = sum(self.num_out_edges)
        terminal_symbols = sum(len(rule.terminals()) for rule in grammar)
        middle = sum(
            1
            for rule in grammar
            if rule.rule_id != Grammar.ROOT_ID and self.num_out_edges[rule.rule_id] > 0
        )
        return DagStatistics(
            num_rules=len(grammar),
            num_edges=num_edges,
            total_symbols=grammar.total_symbols(),
            num_terminal_symbols=terminal_symbols,
            depth=self.depth,
            max_rule_length=max(lengths) if lengths else 0,
            avg_rule_length=(sum(lengths) / len(lengths)) if lengths else 0.0,
            middle_layer_nodes=middle,
        )

    def subrule_frequency_lists(self) -> List[List[Tuple[int, int]]]:
        """Per-rule ``[(child id, multiplicity), ...]`` lists (device layout input)."""
        return [list(self.children[rule_id]) for rule_id in range(len(self.grammar))]

    def parent_lists(self) -> List[List[int]]:
        """Per-rule parent id lists (ignoring multiplicity)."""
        return [[parent for parent, _count in self.parents[rule_id]] for rule_id in range(len(self.grammar))]

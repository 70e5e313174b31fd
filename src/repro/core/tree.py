"""Steiner tree result objects.

A :class:`SteinerTree` is an immutable set of weighted edges forming a
tree (or a single node, for queries satisfiable at one vertex).  It is
the value every solver and baseline returns, and the thing the keyword
search / team formation applications render back into domain objects.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Set, Tuple

from ..errors import GraphError
from ..graph.graph import Graph
from ..graph.mst import is_tree

__all__ = ["SteinerTree"]

EdgeTuple = Tuple[int, int, float]


class SteinerTree:
    """Immutable weighted tree over graph node ids.

    ``edges`` are normalized (``u < v``) and sorted; ``nodes`` always
    contains at least one node (single-node trees have no edges but a
    non-empty node set).
    """

    __slots__ = ("edges", "nodes", "weight")

    def __init__(self, edges: Iterable[EdgeTuple], nodes: Iterable[int] = ()) -> None:
        normalized = sorted(
            (min(u, v), max(u, v), w) for u, v, w in edges
        )
        self.edges: Tuple[EdgeTuple, ...] = tuple(normalized)
        node_set: Set[int] = set(nodes)
        for u, v, _ in self.edges:
            node_set.add(u)
            node_set.add(v)
        if not node_set:
            raise ValueError("a SteinerTree must contain at least one node")
        self.nodes: FrozenSet[int] = frozenset(node_set)
        # A 0.0 start keeps an edgeless tree's weight a float, as the
        # wire decodes every weight.
        self.weight: float = sum((w for _, _, w in self.edges), 0.0)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def single_node(cls, node: int) -> "SteinerTree":
        """Weight-zero tree consisting of one node."""
        return cls((), nodes=(node,))

    @classmethod
    def from_edge_pairs(
        cls, graph: Graph, pairs: Iterable[Tuple[int, int]]
    ) -> "SteinerTree":
        """Build from ``(u, v)`` pairs, reading weights off the graph."""
        return cls((u, v, graph.edge_weight(u, v)) for u, v in pairs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def covers(self, graph: Graph, labels: Iterable[Hashable]) -> bool:
        """Whether every label occurs on at least one tree node."""
        remaining = set(labels)
        for node in self.nodes:
            if not remaining:
                break
            remaining -= graph.labels_of(node)
        return not remaining

    def degree_map(self) -> Dict[int, int]:
        """Node → degree within the tree."""
        degree: Dict[int, int] = {node: 0 for node in self.nodes}
        for u, v, _ in self.edges:
            degree[u] += 1
            degree[v] += 1
        return degree

    def validate(
        self,
        graph: Graph,
        labels: Iterable[Hashable] = (),
    ) -> None:
        """Assert this is a real tree of ``graph`` covering ``labels``.

        Checks: every edge exists in the graph with the stored weight,
        the edge set is connected and acyclic, and the label coverage
        holds.  Raises ``GraphError`` on any violation — used heavily by
        the test suite and available to applications as a safety net.
        """
        for u, v, w in self.edges:
            actual = graph.edge_weight(u, v)  # raises if absent
            if abs(actual - w) > 1e-9:
                raise GraphError(
                    f"tree edge ({u},{v}) weight {w} != graph weight {actual}"
                )
        if not is_tree(self.edges):
            raise GraphError("edge set is not a tree (cycle or disconnected)")
        if self.edges:
            touched = {u for u, _, _ in self.edges} | {v for _, v, _ in self.edges}
            if touched != set(self.nodes):
                raise GraphError("node set inconsistent with edge set")
        labels = list(labels)
        if labels and not self.covers(graph, labels):
            missing = [
                label
                for label in labels
                if not any(graph.has_label(n, label) for n in self.nodes)
            ]
            raise GraphError(f"tree does not cover labels: {missing!r}")

    # ------------------------------------------------------------------
    # Rendering (used by the case studies)
    # ------------------------------------------------------------------
    def render(self, graph: Graph, root: int = -1) -> str:
        """ASCII rendering of the tree with node names and labels.

        ``root`` picks the display root (default: the highest-degree
        node, which matches how the paper draws its case-study figures).
        """
        if not self.edges:
            (node,) = self.nodes
            return f"* {self._describe(graph, node)}"
        adjacency: Dict[int, List[Tuple[int, float]]] = {n: [] for n in self.nodes}
        for u, v, w in self.edges:
            adjacency[u].append((v, w))
            adjacency[v].append((u, w))
        if root < 0 or root not in self.nodes:
            root = max(self.nodes, key=lambda n: len(adjacency[n]))
        lines: List[str] = [f"* {self._describe(graph, root)}"]
        seen = {root}

        def _walk(node: int, prefix: str) -> None:
            children = [(v, w) for v, w in adjacency[node] if v not in seen]
            for i, (child, weight) in enumerate(children):
                seen.add(child)
                last = i == len(children) - 1
                branch = "`-" if last else "|-"
                lines.append(
                    f"{prefix}{branch}[{weight:g}] {self._describe(graph, child)}"
                )
                _walk(child, prefix + ("  " if last else "| "))

        _walk(root, "")
        return "\n".join(lines)

    def to_dot(self, graph: Graph, name: str = "gst") -> str:
        """Graphviz DOT rendering (for papers/slides).

        Node labels come from the graph's external names (falling back
        to ids); edge labels show weights.
        """
        lines = [f"graph {name} {{", "  node [shape=box];"]
        for node in sorted(self.nodes):
            display = graph.name_of(node)
            display = node if display is None else display
            labels = ",".join(sorted(str(x) for x in graph.labels_of(node))[:3])
            text = f"{display}" + (f"\\n{labels}" if labels else "")
            lines.append(f'  n{node} [label="{text}"];')
        for u, v, w in self.edges:
            lines.append(f'  n{u} -- n{v} [label="{w:g}"];')
        lines.append("}")
        return "\n".join(lines)

    @staticmethod
    def _describe(graph: Graph, node: int) -> str:
        name = graph.name_of(node)
        label_text = ",".join(sorted(str(x) for x in graph.labels_of(node))[:4])
        shown = name if name is not None else node
        return f"{shown} ({label_text})" if label_text else f"{shown}"

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SteinerTree)
            and self.edges == other.edges
            and self.nodes == other.nodes
        )

    def __hash__(self) -> int:
        return hash((self.edges, self.nodes))

    def __repr__(self) -> str:
        return (
            f"SteinerTree(weight={self.weight:g}, nodes={len(self.nodes)}, "
            f"edges={len(self.edges)})"
        )

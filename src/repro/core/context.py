"""Per-query preprocessing shared by every solver.

Section 3.1 of the paper: for each query label ``p`` create a virtual
node ``ṽ_p`` attached by zero-weight edges to the group ``V_p`` and run
single-source Dijkstra from it.  The resulting distance arrays
``dist(v, ṽ_p)`` power

* the feasible-solution construction (shortest path from ``v`` to each
  missing label, Algorithms 1/2/4 lines 10-13),
* the one-label lower bound ``π₁``, and
* the entry/exit legs of the tour-based bounds.

:class:`QueryContext` computes and owns those arrays (plus the shortest
path *trees* needed to materialize the actual paths), and records how
long preprocessing took — the paper includes this in every reported
query time.

Building a context freezes the graph (``Graph.freeze()``): the first
query on a graph pays the O(n + m) CSR snapshot build, later ones reuse
the cached snapshot until a mutation drops it.  Every Dijkstra and the
search loop itself run over that snapshot.
"""

from __future__ import annotations

import time
from array import array
from typing import List, Optional, Sequence, Tuple

from ..errors import GraphError, InfeasibleQueryError
from ..graph.graph import Graph
from ..graph.shortest_paths import multi_source_dijkstra
from .query import GSTQuery

__all__ = ["QueryContext"]

INF = float("inf")


class QueryContext:
    """Distances from every node to each query label's virtual node."""

    __slots__ = (
        "graph",
        "query",
        "groups",
        "dist",
        "parent",
        "node_masks",
        "build_seconds",
        "snapshot",
    )

    def __init__(
        self,
        graph: Graph,
        query: GSTQuery,
        groups: Sequence[Sequence[int]],
        dist: List[array],
        parent: List[array],
        node_masks: List[int],
        build_seconds: float,
        snapshot,
    ) -> None:
        self.graph = graph
        self.query = query
        self.groups = groups
        # One array('d') / array('i') per label, shared with the label
        # cache: read them by index, never write to them.
        self.dist = dist            # dist[i][v] = dist(v, ṽ_{p_i})
        self.parent = parent        # parent[i][v] = next hop toward V_{p_i}
        self.node_masks = node_masks  # query-label bitmask per node
        self.build_seconds = build_seconds
        # The frozen CSRGraph the context was built on; the search loop
        # iterates its adjacency views.
        self.snapshot = snapshot

    @classmethod
    def build(
        cls, graph: Graph, query: GSTQuery, cache=None
    ) -> "QueryContext":
        """Run the ``k`` virtual-node Dijkstras (``O(k(m + n log n))``).

        ``cache`` is an optional
        :class:`~repro.core.cache.LabelDistanceCache` bound to the same
        graph; cached labels skip their Dijkstra entirely (the
        multi-query amortization of :class:`~repro.service.GraphIndex`).  A cache
        built for a *different* graph object is rejected — its arrays
        would silently index the wrong nodes.  The graph is frozen on
        first use (cached thereafter) and the time counts towards
        ``build_seconds``.
        """
        if cache is not None and cache.graph is not graph:
            raise ValueError(
                "distance cache was built for a different graph; "
                "caches cannot be shared across graphs (or components)"
            )
        started = time.perf_counter()
        snapshot = graph.freeze()
        groups = query.groups(graph)
        dist: List[array] = []
        parent: List[array] = []
        for label, members in zip(query.labels, groups):
            if cache is not None:
                d, p = cache.distances(label)
            else:
                d, p = multi_source_dijkstra(graph, members)
            dist.append(d)
            parent.append(p)
        node_masks = [0] * graph.num_nodes
        for i, members in enumerate(groups):
            bit = 1 << i
            for node in members:
                node_masks[node] |= bit
        return cls(
            graph,
            query,
            groups,
            dist,
            parent,
            node_masks,
            time.perf_counter() - started,
            snapshot,
        )

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self.query.k

    @property
    def full_mask(self) -> int:
        return self.query.full_mask

    def check_feasible_from(self, node: int) -> bool:
        """Whether every query label is reachable from ``node``."""
        return all(d[node] < INF for d in self.dist)

    def any_feasible_root(self) -> Optional[int]:
        """Some node from which all labels are reachable, else ``None``.

        Every node of a group of the first label is a candidate; since
        reachability is symmetric in an undirected graph, checking those
        suffices (a covering component contains a node of every group).
        """
        for node in self.groups[0]:
            if self.check_feasible_from(node):
                return node
        return None

    def require_feasible(self) -> None:
        """Raise :class:`InfeasibleQueryError` if no component covers P."""
        if self.any_feasible_root() is None:
            raise InfeasibleQueryError(
                "no connected component covers every query label "
                f"{list(self.query.labels)!r}"
            )

    def shortest_path_edges(
        self, label_index: int, node: int
    ) -> List[Tuple[int, int, float]]:
        """Edges of the shortest path from ``node`` to group ``label_index``.

        Walks the multi-source Dijkstra parent pointers; the path ends at
        a node carrying the label (distance 0 from the virtual node).
        Returns ``[]`` when ``node`` itself carries the label.  Raises
        ``ValueError`` if the label is unreachable from ``node``, and
        ``GraphError`` if a parent hop is not an edge of the graph.
        """
        if self.dist[label_index][node] == INF:
            raise ValueError(
                f"label index {label_index} unreachable from node {node}"
            )
        parents = self.parent[label_index]
        # Parent pointers hold this graph's own node ids, so each hop
        # reads its weight with one dict lookup and no id validation.
        weight_of = self.graph._edge_weight
        edges: List[Tuple[int, int, float]] = []
        current = node
        while parents[current] != -1:
            nxt = parents[current]
            weight = weight_of(current, nxt)
            if weight is None:
                raise GraphError(f"no edge between {current} and {nxt}")
            edges.append((current, nxt, weight))
            current = nxt
        return edges

    def nearest_label_distance(self, node: int) -> float:
        """``min_i dist(v, ṽ_i)`` — the exit leg of the π_t2 bound."""
        return min(d[node] for d in self.dist)

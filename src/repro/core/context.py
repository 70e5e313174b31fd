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

The Dijkstras of labels the cache does not hold run round-robin, one
bucket of each per round, so a covering tree with proven bounds exists
long before the last of them ends (:mod:`repro.core.early`); the
context keeps it as :attr:`QueryContext.early`.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import GraphError, InfeasibleQueryError
from ..graph.graph import Graph
from ..graph.shortest_paths import DialSweep
from .query import GSTQuery
from .result import ProgressPoint

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
        "early",
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
        # cache (during build, a running sweep's lists): read them by
        # index, never write to them.
        self.dist = dist            # dist[i][v] = dist(v, ṽ_{p_i})
        self.parent = parent        # parent[i][v] = next hop toward V_{p_i}
        self.node_masks = node_masks  # query-label bitmask per node
        self.build_seconds = build_seconds
        # The frozen CSRGraph the context was built on; the search loop
        # iterates its adjacency views.
        self.snapshot = snapshot
        # The EarlyAnswer found while cold labels' Dijkstras ran, if any.
        self.early = None

    @classmethod
    def build(
        cls,
        graph: Graph,
        query: GSTQuery,
        cache=None,
        on_progress: Optional[Callable[[ProgressPoint], None]] = None,
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

        The other labels' Dijkstras advance round-robin, one bucket
        each per round, and each finished table goes into the cache.
        After every round :class:`~repro.core.early.EarlyBounds` looks
        for a covering tree and a lower bound; each improvement is
        passed to ``on_progress`` as it is found, in seconds since this
        call started, and the last is kept as :attr:`early`.  Once the
        bounds are final the sweeps left run to their end one by one.
        """
        if cache is not None and cache.graph is not graph:
            raise ValueError(
                "distance cache was built for a different graph; "
                "caches cannot be shared across graphs (or components)"
            )
        started = time.perf_counter()
        snapshot = graph.freeze()
        groups = query.groups(graph)
        k = len(groups)
        node_masks = [0] * graph.num_nodes
        for i, members in enumerate(groups):
            bit = 1 << i
            for node in members:
                node_masks[node] |= bit
        dist: List = [None] * k
        parent: List = [None] * k
        sweeps: List[Optional[DialSweep]] = [None] * k
        for i, (label, members) in enumerate(zip(query.labels, groups)):
            entry = cache.lookup(label) if cache is not None else None
            if entry is None:
                sweep = sweeps[i] = DialSweep(snapshot, members)
                entry = (sweep.dist, sweep.parent)
            dist[i], parent[i] = entry
        context = cls(
            graph, query, groups, dist, parent, node_masks, 0.0, snapshot
        )
        running = [i for i in range(k) if sweeps[i] is not None]
        if running:
            # Imported here: early.py builds trees with feasible.py,
            # which imports this module.
            from .early import EarlyBounds

            bounds = EarlyBounds(context, sweeps, started, on_progress)
            while running:
                buckets: List[Sequence[int]] = [()] * k
                for i in running:
                    sweep = sweeps[i]
                    if bounds.final:
                        # Nothing left to learn: one sweep at a time
                        # keeps the working set of one label hot.
                        sweep.finish()
                    else:
                        buckets[i] = sweep.advance()
                    if sweep.done:
                        entry = sweep.tables()
                        if cache is not None:
                            entry = cache.insert(query.labels[i], entry)
                        dist[i], parent[i] = entry
                        # Its table is whole now, like a cached one;
                        # dropping the sweep frees its working lists.
                        sweeps[i] = None
                running = [i for i in running if sweeps[i] is not None]
                bounds.after_round(buckets)
            context.early = bounds.answer()
        context.build_seconds = time.perf_counter() - started
        return context

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

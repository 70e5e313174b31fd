"""BANKS-I — backward expanding search (Bhalotia et al., ICDE 2002).

The original keyword-search heuristic: run one Dijkstra *iterator* per
query group, all growing backward simultaneously (cheapest frontier
first across iterators).  Whenever some node has been reached by every
group it becomes a candidate *connection node*; the candidate answer is
the union of the shortest paths from that node to each group, collapsed
to a tree.

This is an ``O(k)``-approximation (each of the ``k`` paths is no longer
than the optimal tree), used here as the weaker of the two approximate
comparators.  The search stops once ``max_candidates`` connection nodes
have been found (BANKS's heuristic stopping rule) or the iterators are
exhausted.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Hashable, Iterable, List, Optional, Tuple, Union

from ..core.budget import Budget
from ..core.context import QueryContext
from ..core.feasible import steiner_tree_from_edges, prune_redundant_leaves
from ..core.query import GSTQuery
from ..core.result import GSTResult, ProgressPoint, SearchStats
from ..graph.graph import Graph

__all__ = ["Banks1Solver"]

INF = float("inf")


class Banks1Solver:
    """Backward expanding search; returns an approximate GST."""

    algorithm_name = "BANKS-I"

    def __init__(
        self,
        graph: Graph,
        query: Union[GSTQuery, Iterable[Hashable]],
        *,
        max_candidates: int = 32,
        budget: Optional[Budget] = None,
    ) -> None:
        self.graph = graph
        self.query = query if isinstance(query, GSTQuery) else GSTQuery(query)
        self.max_candidates = max_candidates
        self.budget = budget if budget is not None else Budget()

    def solve(self) -> GSTResult:
        started = time.perf_counter()
        time_limit = self.budget.effective_time_limit()
        context = QueryContext.build(self.graph, self.query)
        context.require_feasible()
        stats = SearchStats(init_seconds=context.build_seconds)
        k = context.k
        n = self.graph.num_nodes
        adjacency = self.graph.adjacency()

        # One backward Dijkstra per group, interleaved by a global heap
        # keyed (distance, group, node).  dist[i][v] mirrors the
        # per-group settled distances; `hit_count` tracks how many
        # groups reached each node.
        dist: List[List[float]] = [[INF] * n for _ in range(k)]
        parent: List[List[int]] = [[-1] * n for _ in range(k)]
        hits: List[int] = [0] * n
        settled: List[List[bool]] = [[False] * n for _ in range(k)]

        heap: List[Tuple[float, int, int]] = []
        for i, members in enumerate(context.groups):
            for node in members:
                if dist[i][node] > 0.0:
                    dist[i][node] = 0.0
                    heappush(heap, (0.0, i, node))

        best_tree = None
        best_weight = INF
        candidates = 0
        trace: List[ProgressPoint] = []

        while heap and candidates < self.max_candidates:
            if (
                time_limit is not None
                and time.perf_counter() - started >= time_limit
            ):
                break
            d, i, node = heappop(heap)
            if settled[i][node] or d > dist[i][node]:
                continue
            settled[i][node] = True
            stats.states_popped += 1
            hits[node] += 1
            if hits[node] == k:
                candidates += 1
                tree = self._candidate_tree(context, dist, parent, node)
                if tree is not None and tree.weight < best_weight:
                    best_weight = tree.weight
                    best_tree = tree
                    trace.append(
                        ProgressPoint(
                            time.perf_counter() - started, best_weight, 0.0
                        )
                    )
            for neighbor, weight in adjacency[node]:
                nd = d + weight
                if nd < dist[i][neighbor]:
                    dist[i][neighbor] = nd
                    parent[i][neighbor] = node
                    heappush(heap, (nd, i, neighbor))
            stats.peak_live_states = max(stats.peak_live_states, len(heap))

        stats.total_seconds = time.perf_counter() - started
        return GSTResult(
            algorithm=self.algorithm_name,
            labels=self.query.labels,
            tree=best_tree,
            weight=best_weight,
            lower_bound=0.0,
            optimal=False,
            stats=stats,
            trace=trace,
        )

    def _candidate_tree(self, context, dist, parent, root):
        """Union of per-group shortest paths from the connection node."""
        edges = []
        for i in range(context.k):
            if dist[i][root] == INF:
                return None
            current = root
            while parent[i][current] != -1:
                nxt = parent[i][current]
                edges.append((current, nxt, self.graph.edge_weight(current, nxt)))
                current = nxt
        tree = steiner_tree_from_edges(edges, anchor=root)
        return prune_redundant_leaves(context, tree)

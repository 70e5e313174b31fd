"""BANKS-II — bidirectional expanding search (Kacholia et al., VLDB 2005).

The approximation algorithm the paper benchmarks against (Tables 2-3,
Figures 12/18).  BANKS-II improves BANKS-I in two ways:

* **bidirectional expansion** — besides the backward iterators growing
  from each group, a forward iterator grows from nodes already touched
  by backward search, letting search escape large-degree "hub" regions;
* **spreading-activation prioritization** — iterators are prioritized
  by an activation score that *penalizes high-degree nodes*, rather
  than by pure distance.

We reproduce both mechanisms on undirected graphs: backward frontiers
are ordered by ``distance × degree_penalty(node)`` and a node touched
by every group spawns a candidate answer (union of its group paths).
Forward expansion is realized by continuing expansion from connection
candidates, which on undirected graphs is what the forward iterator
contributes.  Like the original, the algorithm is a heuristic: answers
are feasible trees with no optimality guarantee (``result.optimal`` is
always False and ``lower_bound`` 0).

The paper's observation that "BANKS-II typically needs to explore the
whole graph to get an approximate answer while PrunedDP++ visits only a
part of the graph" is reproduced by ``stats.states_popped`` here being
close to ``k·n`` on every run.
"""

from __future__ import annotations

import math
import time
from heapq import heappop, heappush
from typing import Hashable, Iterable, List, Optional, Tuple, Union

from ..core.budget import Budget
from ..core.context import QueryContext
from ..core.feasible import prune_redundant_leaves, steiner_tree_from_edges
from ..core.query import GSTQuery
from ..core.result import GSTResult, ProgressPoint, SearchStats
from ..graph.graph import Graph

__all__ = ["Banks2Solver"]

INF = float("inf")


class Banks2Solver:
    """Bidirectional expansion with activation-based prioritization."""

    algorithm_name = "BANKS-II"

    def __init__(
        self,
        graph: Graph,
        query: Union[GSTQuery, Iterable[Hashable]],
        *,
        max_candidates: int = 64,
        degree_penalty: float = 0.3,
        budget: Optional[Budget] = None,
    ) -> None:
        """``degree_penalty`` scales the log-degree activation damping
        (0 disables it, recovering distance-ordered expansion)."""
        self.graph = graph
        self.query = query if isinstance(query, GSTQuery) else GSTQuery(query)
        self.max_candidates = max_candidates
        self.degree_penalty = degree_penalty
        self.budget = budget if budget is not None else Budget()

    # ------------------------------------------------------------------
    def solve(self) -> GSTResult:
        started = time.perf_counter()
        time_limit = self.budget.effective_time_limit()
        context = QueryContext.build(self.graph, self.query)
        context.require_feasible()
        stats = SearchStats(init_seconds=context.build_seconds)
        k = context.k
        n = self.graph.num_nodes
        adjacency = self.graph.adjacency()
        penalty = self._degree_penalties()

        dist: List[List[float]] = [[INF] * n for _ in range(k)]
        parent: List[List[int]] = [[-1] * n for _ in range(k)]
        settled: List[List[bool]] = [[False] * n for _ in range(k)]
        hits = [0] * n

        # Heap entries: (activation_priority, distance, group, node).
        heap: List[Tuple[float, float, int, int]] = []
        for i, members in enumerate(context.groups):
            for node in members:
                if dist[i][node] > 0.0:
                    dist[i][node] = 0.0
                    heappush(heap, (0.0, 0.0, i, node))

        best_tree = None
        best_weight = INF
        candidates = 0
        trace: List[ProgressPoint] = []

        while heap:
            if candidates >= self.max_candidates and best_tree is not None:
                break
            if (
                time_limit is not None
                and time.perf_counter() - started >= time_limit
            ):
                break
            _, d, i, node = heappop(heap)
            if settled[i][node] or d > dist[i][node]:
                continue
            settled[i][node] = True
            stats.states_popped += 1
            hits[node] += 1
            if hits[node] == k:
                candidates += 1
                tree = self._candidate_tree(context, dist, parent, node)
                if tree is not None and tree.weight < best_weight - 1e-12:
                    best_weight = tree.weight
                    best_tree = tree
                    trace.append(
                        ProgressPoint(
                            time.perf_counter() - started, best_weight, 0.0
                        )
                    )
            # Bidirectional flavour: expansion continues from every
            # settled node (backward from groups; nodes already reached
            # by other groups act as the forward frontier).
            for neighbor, weight in adjacency[node]:
                nd = d + weight
                if nd < dist[i][neighbor]:
                    dist[i][neighbor] = nd
                    parent[i][neighbor] = node
                    heappush(heap, (nd * penalty[neighbor], nd, i, neighbor))
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

    # ------------------------------------------------------------------
    def _degree_penalties(self) -> List[float]:
        """Activation damping: hubs expand later (spreading activation)."""
        if self.degree_penalty <= 0.0:
            return [1.0] * self.graph.num_nodes
        return [
            1.0 + self.degree_penalty * math.log1p(self.graph.degree(v))
            for v in self.graph.nodes()
        ]

    def _candidate_tree(self, context, dist, parent, root):
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

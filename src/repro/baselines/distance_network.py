"""Distance-network heuristic — the classic GST k-approximation.

The textbook approximation (the seed step of STAR-style systems and the
guarantee behind BANKS's candidate answers): pick the *connection node*
``v*`` minimizing the sum of virtual-node distances

    v* = argmin_v  Σ_i dist(v, ṽ_i)

and answer with the union of the shortest paths from ``v*`` to every
group, collapsed to a tree (MST + label-aware pruning).

Guarantee: for any node ``v`` on the optimal tree ``T*``, each
``dist(v, ṽ_i) <= w(T*)`` (walk within ``T*``), so the chosen union
weighs at most ``k · w(T*)`` — a provable ``k``-approximation, which
the test suite asserts.  Runtime is the ``k`` Dijkstras of the shared
preprocessing plus an ``O(n k)`` scan: by far the fastest baseline,
with the weakest answers.  The scan has no anytime point to stop at,
so it reads no limit from its ``budget``.
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, List, Optional, Union

from ..core.budget import Budget
from ..core.context import QueryContext
from ..core.feasible import prune_redundant_leaves, steiner_tree_from_edges
from ..core.query import GSTQuery
from ..core.result import GSTResult, ProgressPoint, SearchStats

from ..graph.graph import Graph

__all__ = ["DistanceNetworkSolver"]

INF = float("inf")


class DistanceNetworkSolver:
    """One-shot k-approximation via the best connection node."""

    algorithm_name = "DistanceNetwork"

    def __init__(
        self,
        graph: Graph,
        query: Union[GSTQuery, Iterable[Hashable]],
        *,
        budget: Optional[Budget] = None,
        num_roots: int = 1,
    ) -> None:
        """``num_roots`` > 1 tries the that many best connection nodes
        and keeps the lightest answer (a cheap quality knob).

        ``budget`` is taken like every other solver class takes it, so
        one set of keywords runs any of them; the one-shot scan reads
        none of its limits.
        """
        if num_roots < 1:
            raise ValueError("num_roots must be >= 1")
        self.graph = graph
        self.query = query if isinstance(query, GSTQuery) else GSTQuery(query)
        self.budget = budget
        self.num_roots = num_roots

    def solve(self) -> GSTResult:
        started = time.perf_counter()
        context = QueryContext.build(self.graph, self.query)
        context.require_feasible()
        stats = SearchStats(init_seconds=context.build_seconds)
        k = context.k
        dist = context.dist

        # Score every node by its distance sum; unreachable -> inf.
        scores: List[float] = []
        for node in self.graph.nodes():
            total = 0.0
            for i in range(k):
                d = dist[i][node]
                if d == INF:
                    total = INF
                    break
                total += d
            scores.append(total)
        stats.states_popped = self.graph.num_nodes  # scan accounting
        stats.peak_live_states = self.graph.num_nodes  # the score array

        candidates = sorted(
            (node for node in self.graph.nodes() if scores[node] < INF),
            key=lambda node: scores[node],
        )[: self.num_roots]

        best_tree = None
        best_weight = INF
        for root in candidates:
            edges = []
            for i in range(k):
                edges.extend(context.shortest_path_edges(i, root))
            tree = steiner_tree_from_edges(edges, anchor=root)
            tree = prune_redundant_leaves(context, tree)
            if tree.weight < best_weight:
                best_weight = tree.weight
                best_tree = tree

        stats.total_seconds = time.perf_counter() - started
        trace = (
            [ProgressPoint(stats.total_seconds, best_weight, 0.0)]
            if best_tree is not None
            else []
        )
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

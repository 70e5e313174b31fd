"""DPBF — the state-of-the-art parameterized DP of Ding et al. (ICDE'07).

This is the algorithm the paper improves on (Section 2): best-first
dynamic programming over states ``(v, X)`` with the transition

    f*(v, X) = min(  min_{(v,u)∈E}  f*(u, X)  + w(v, u),
                     min_{X = X₁ ⊎ X₂} f*(v, X₁) + f*(v, X₂) )

It finds the optimum in ``O(3^k n + 2^k (n log n + m))`` time and
``O(2^k n)`` space but — the paper's two complaints — produces *no*
answer until it terminates, and prunes nothing.

Kept as an independent implementation (no shared engine) so the test
suite can cross-check the progressive solvers against genuinely
separate code.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, Iterable, Optional, Tuple, Union

from ..graph.graph import Graph
from ..graph.heap import IndexedHeap
from .budget import Budget
from .context import QueryContext
from .feasible import steiner_tree_from_edges
from .query import GSTQuery
from .result import GSTResult, ProgressPoint, SearchStats
from .state import StateStore

__all__ = ["DPBFSolver", "dpbf_optimal_weight"]

INF = float("inf")


class DPBFSolver:
    """Plain best-first parameterized DP; exact, non-progressive."""

    algorithm_name = "DPBF"

    def __init__(
        self,
        graph: Graph,
        query: Union[GSTQuery, Iterable[Hashable]],
        *,
        budget: Optional[Budget] = None,
        distance_cache=None,
        on_event=None,
        on_progress=None,
    ) -> None:
        self.graph = graph
        self.query = query if isinstance(query, GSTQuery) else GSTQuery(query)
        # DPBF is non-progressive: the budget's epsilon is meaningless
        # here and simply ignored; its time limit and state cap apply.
        self.budget = budget if budget is not None else Budget()
        self.distance_cache = distance_cache
        self.on_event = on_event
        # DPBF has no incumbent stream; the callback is accepted for
        # interface parity (callers need not care which algorithm runs)
        # and fired once with the terminal exact answer.
        self.on_progress = on_progress

    # Staged execution, mirroring the progressive solver protocol so
    # the service layer can time DPBF's stages the same way.
    def build_context(self) -> QueryContext:
        context = QueryContext.build(
            self.graph, self.query, cache=self.distance_cache
        )
        context.require_feasible()
        return context

    def prepare(self, context: QueryContext):
        return None

    def solve(self) -> GSTResult:
        return self.run_search(self.build_context())

    def run_search(self, context: QueryContext, prepared=None) -> GSTResult:
        time_limit = self.budget.effective_time_limit()
        max_states = self.budget.max_states
        if self.on_event is not None:
            self.on_event("search_started", {"algorithm": self.algorithm_name})
        started = time.perf_counter() - context.build_seconds
        stats = SearchStats(init_seconds=context.build_seconds)

        full = context.full_mask
        # Queue/pending keys are packed ``node << k | mask`` ints (the
        # same scheme as repro.core.state.pack_state), kept inline here
        # so DPBF stays a genuinely independent cross-check of the
        # progressive engine.
        kb = context.k
        mask_filter = (1 << kb) - 1
        adjacency = self.graph.adjacency()
        queue = IndexedHeap()
        pending: Dict[int, tuple] = {}
        store = StateStore(self.graph.num_nodes, kb)

        def push(node: int, mask: int, cost: float, backpointer: tuple) -> None:
            if store.contains(node, mask):
                return
            key = (node << kb) | mask
            old = pending.get(key)
            if old is not None and old[0] <= cost:
                return
            if old is None:
                stats.states_pushed += 1
            pending[key] = (cost, backpointer)
            queue.update(key, cost)

        for label_index, members in enumerate(context.groups):
            bit = 1 << label_index
            for node in members:
                push(node, bit, 0.0, ("seed", label_index))

        goal: Optional[Tuple[int, float, tuple]] = None
        interrupted = False
        while queue:
            if max_states is not None and stats.states_popped >= max_states:
                interrupted = True
                break
            if (
                time_limit is not None
                and stats.states_popped % 256 == 0
                and time.perf_counter() - started >= time_limit
            ):
                interrupted = True
                break
            key, cost = queue.pop()
            node = key >> kb
            mask = key & mask_filter
            backpointer = pending.pop(key)[1]
            stats.states_popped += 1
            if mask == full:
                goal = (node, cost, backpointer)
                break
            store.settle(node, mask, cost, backpointer)
            live = len(queue) + len(store)
            if live > stats.peak_live_states:
                stats.peak_live_states = live
            stats.peak_queue_size = max(stats.peak_queue_size, len(queue))
            stats.peak_store_size = max(stats.peak_store_size, len(store))
            stats.states_expanded += 1
            for neighbor, weight in adjacency[node]:
                stats.edges_grown += 1
                push(neighbor, mask, cost + weight, ("grow", node, weight))
            for other_mask, other_cost in list(store.masks_at(node).items()):
                if other_mask & mask:
                    continue
                stats.merges_performed += 1
                push(node, mask | other_mask, cost + other_cost, ("merge", mask, other_mask))

        stats.total_seconds = time.perf_counter() - started
        if self.on_event is not None:
            self.on_event(
                "search_finished",
                {
                    "optimal": goal is not None or not interrupted,
                    "elapsed": stats.total_seconds,
                    "states_popped": stats.states_popped,
                },
            )
        if goal is None:
            # Interrupted or (with a feasible query) impossible.
            return GSTResult(
                algorithm=self.algorithm_name,
                labels=self.query.labels,
                tree=None,
                weight=INF,
                lower_bound=0.0,
                optimal=not interrupted,
                stats=stats,
                trace=[],
            )
        node, cost, backpointer = goal
        edges = store.tree_edges(node, full, override=(node, full, backpointer))
        tree = steiner_tree_from_edges(edges, anchor=node)
        weight = min(cost, tree.weight)
        trace = [ProgressPoint(stats.total_seconds, weight, weight)]
        if self.on_progress is not None:
            self.on_progress(trace[0])
        return GSTResult(
            algorithm=self.algorithm_name,
            labels=self.query.labels,
            tree=tree,
            weight=weight,
            lower_bound=weight,
            optimal=True,
            stats=stats,
            trace=trace,
        )


def dpbf_optimal_weight(
    graph: Graph, labels: Iterable[Hashable]
) -> float:
    """Convenience: the exact optimal GST weight via DPBF."""
    return DPBFSolver(graph, labels).solve().weight

"""Directed Group Steiner Trees (the DPBF / keyword-search setting).

The paper's GST is undirected, but the algorithm it parameterizes —
DPBF (Ding et al., ICDE'07) — was formulated on *directed* graphs:
an answer is an **out-arborescence** rooted at ``r`` with a directed
path from ``r`` to at least one node of every keyword group, minimizing
total edge weight.  This module carries the package's progressive
machinery over to that setting:

* :class:`DirectedSteinerTree` — the arborescence answer type;
* :class:`DirectedGSTSolver` — progressive best-first DP with the
  directed state transition

      f(v, X) = min( min_{(v→u)∈E} w(v,u) + f(u, X),
                     min_{X=X1⊎X2} f(v, X1) + f(v, X2) )

  best-solution pruning (the directed analogue of Algorithm 1).  There
  is deliberately **no directed A\\* bound and no directed PrunedDP**:
  the paper's techniques all assume rootedness is free.  A bound built
  from ``dist(v → V_i)`` is *inadmissible* here — a state ``(v, X)``
  can complete by re-rooting, so a node unable to reach a group itself
  may still sit inside an optimal answer (see
  ``DirectedGSTSolver``'s docstring and the regression test
  ``test_rerooting_makes_distance_bounds_inadmissible``) — and
  Theorems 1-2 re-root the tree in their proofs, which edge directions
  forbid.
* :func:`brute_force_directed_gst` — an exhaustive fixpoint evaluation
  of the same recurrence (Bellman-Ford style), used as the independent
  test oracle.

Feasible solutions: the union of directed shortest paths from the root
to every missing group, reduced to an arborescence by keeping one
in-edge per node (reachability from the root survives dropping extra
in-edges) and pruning label-free leaves.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple, Union

from ..errors import InfeasibleQueryError
from ..graph.digraph import DiGraph
from ..graph.heap import IndexedHeap
from .budget import Budget
from .query import GSTQuery
from .result import GSTResult, ProgressPoint, SearchStats
from .state import StateStore, iter_bits

__all__ = [
    "DirectedSteinerTree",
    "DirectedGSTSolver",
    "brute_force_directed_gst",
]

INF = float("inf")
_COST_EPS = 1e-12


class DirectedSteinerTree:
    """An out-arborescence: edges ``(parent, child, weight)``, one root."""

    __slots__ = ("root", "edges", "nodes", "weight")

    def __init__(
        self, root: int, edges: Iterable[Tuple[int, int, float]]
    ) -> None:
        self.root = root
        self.edges: Tuple[Tuple[int, int, float], ...] = tuple(sorted(edges))
        nodes: Set[int] = {root}
        for parent, child, _ in self.edges:
            nodes.add(parent)
            nodes.add(child)
        self.nodes: FrozenSet[int] = frozenset(nodes)
        self.weight = sum(w for _, _, w in self.edges)

    def covers(self, graph: DiGraph, labels: Iterable[Hashable]) -> bool:
        remaining = set(labels)
        for node in self.nodes:
            if not remaining:
                break
            remaining -= graph.labels_of(node)
        return not remaining

    def validate(self, graph: DiGraph, labels: Iterable[Hashable] = ()) -> None:
        """Assert arborescence shape, edge existence, and coverage."""
        from ..errors import GraphError

        in_degree: Dict[int, int] = {}
        children: Dict[int, List[int]] = {}
        for parent, child, weight in self.edges:
            actual = graph.edge_weight(parent, child)  # raises if absent
            if abs(actual - weight) > 1e-9:
                raise GraphError(
                    f"edge ({parent}->{child}) weight {weight} != {actual}"
                )
            in_degree[child] = in_degree.get(child, 0) + 1
            children.setdefault(parent, []).append(child)
        if in_degree.get(self.root, 0) != 0:
            raise GraphError("root has an incoming tree edge")
        for node in self.nodes:
            if node != self.root and in_degree.get(node, 0) != 1:
                raise GraphError(f"node {node} has in-degree != 1")
        # Reachability from the root covers every node (no cycles).
        seen = {self.root}
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in children.get(node, ()):
                if child in seen:
                    raise GraphError("cycle in arborescence")
                seen.add(child)
                stack.append(child)
        if seen != set(self.nodes):
            raise GraphError("arborescence is not connected from the root")
        labels = list(labels)
        if labels and not self.covers(graph, labels):
            raise GraphError("arborescence does not cover the query labels")

    def render(self, graph: DiGraph) -> str:
        """ASCII rendering rooted at the arborescence root."""
        children: Dict[int, List[Tuple[int, float]]] = {}
        for parent, child, weight in self.edges:
            children.setdefault(parent, []).append((child, weight))

        def describe(node: int) -> str:
            name = graph.name_of(node)
            labels = ",".join(sorted(str(x) for x in graph.labels_of(node))[:4])
            shown = name if name is not None else node
            return f"{shown} ({labels})" if labels else f"{shown}"

        lines = [f"* {describe(self.root)}"]

        def walk(node: int, prefix: str) -> None:
            kids = sorted(children.get(node, ()))
            for i, (child, weight) in enumerate(kids):
                last = i == len(kids) - 1
                branch = "`-" if last else "|-"
                lines.append(f"{prefix}{branch}[{weight:g}] {describe(child)}")
                walk(child, prefix + ("  " if last else "| "))

        walk(self.root, "")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DirectedSteinerTree(root={self.root}, weight={self.weight:g}, "
            f"nodes={len(self.nodes)})"
        )


# ----------------------------------------------------------------------
# Preprocessing: forward distances to each group (reverse Dijkstra)
# ----------------------------------------------------------------------
def _forward_distances(
    graph: DiGraph, members: List[int]
) -> Tuple[List[float], List[int]]:
    """``dist[v] = min_{u∈members} d(v → u)`` plus next-hop pointers.

    One Dijkstra over the *reversed* graph from the group members;
    ``next_hop[v]`` is the first edge of an optimal v→group path.
    """
    n = graph.num_nodes
    dist = [INF] * n
    next_hop = [-1] * n
    in_adjacency = graph.in_adjacency()
    heap: List[Tuple[float, int]] = []
    for node in members:
        if dist[node] > 0.0:
            dist[node] = 0.0
            heappush(heap, (0.0, node))
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for v, weight in in_adjacency[u]:  # edge v -> u in the original
            nd = d + weight
            if nd < dist[v]:
                dist[v] = nd
                next_hop[v] = u
                heappush(heap, (nd, v))
    return dist, next_hop


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------
class DirectedGSTSolver:
    """Progressive directed GST: best-first DP with best-solution pruning.

    No A* bound is offered, deliberately.  The undirected bounds of
    Section 4.1 estimate "cover the missing labels *from this node*" —
    valid there because rootedness is free in an undirected tree.  A
    directed state ``(v, X)`` can complete by *re-rooting* (the final
    root reaches ``v`` and the missing groups by its own paths), so any
    bound built from ``dist(v → V_i)`` over-estimates the completion
    (it is infinite for nodes that cannot reach a group themselves yet
    sit inside perfectly good answers) — i.e. it is inadmissible, and
    an A* search over it returns wrong answers.  Plain best-first cost
    order is exact (Ding et al.) and keeps every progressive property.
    """

    algorithm_name = "DirectedGST"

    def __init__(
        self,
        graph: DiGraph,
        query: Union[GSTQuery, Iterable[Hashable]],
        *,
        budget: Optional[Budget] = None,
    ) -> None:
        self.graph = graph
        self.query = query if isinstance(query, GSTQuery) else GSTQuery(query)
        self.budget = budget if budget is not None else Budget()

    # ------------------------------------------------------------------
    def solve(self) -> GSTResult:
        started = time.perf_counter()
        time_limit = self.budget.effective_time_limit()
        epsilon = self.budget.epsilon
        max_states = self.budget.max_states
        graph = self.graph
        query = self.query
        groups = query.groups(graph)
        k = query.k
        full = query.full_mask

        dist: List[List[float]] = []
        next_hop: List[List[int]] = []
        for members in groups:
            d, nh = _forward_distances(graph, members)
            dist.append(d)
            next_hop.append(nh)
        init_seconds = time.perf_counter() - started

        if not any(
            all(dist[i][v] < INF for i in range(k)) for v in graph.nodes()
        ):
            raise InfeasibleQueryError(
                f"no root reaches every group {list(query.labels)!r}"
            )

        stats = SearchStats(init_seconds=init_seconds)
        trace: List[ProgressPoint] = []
        queue = IndexedHeap()
        pending: Dict[Tuple[int, int], Tuple[float, tuple]] = {}
        store = StateStore(graph.num_nodes, k)
        in_adjacency = graph.in_adjacency()

        best = INF
        best_tree: Optional[DirectedSteinerTree] = None
        global_lb = 0.0

        def record_progress(force: bool = False) -> None:
            point = ProgressPoint(
                elapsed=time.perf_counter() - started,
                best_weight=best,
                lower_bound=min(global_lb, best),
            )
            if trace and not force:
                last = trace[-1]
                if (
                    point.best_weight >= last.best_weight - _COST_EPS
                    and point.ratio >= last.ratio * 0.999
                ):
                    return
            trace.append(point)

        def build_feasible(node: int, mask: int, cost: float) -> None:
            nonlocal best, best_tree
            if best <= cost:
                return
            missing = full & ~mask
            for i in iter_bits(missing):
                if dist[i][node] == INF:
                    return
            # Store edges are (new_root, old_root, w); the directed edge
            # runs new_root -> old_root, i.e. parent -> child already.
            directed = list(store.tree_edges(node, mask))
            for i in iter_bits(missing):
                current = node
                while next_hop[i][current] != -1:
                    nxt = next_hop[i][current]
                    directed.append(
                        (current, nxt, graph.edge_weight(current, nxt))
                    )
                    current = nxt
            tree = _reduce_to_arborescence(graph, node, directed, query)
            stats.feasible_built += 1
            if tree is not None and tree.weight < best - _COST_EPS:
                best = tree.weight
                best_tree = tree
                record_progress()

        def update(node: int, mask: int, cost: float, backpointer: tuple) -> None:
            settled = store.cost_or_none(node, mask)
            if settled is not None:
                if cost >= settled - _COST_EPS:
                    return
                store.reopen(node, mask)
                stats.reopened += 1
            f_value = cost
            if f_value >= best:
                return
            if mask == full and cost < best - _COST_EPS:
                adopt_goal(node, mask, cost, backpointer)
            key = (node, mask)
            existing = pending.get(key)
            if existing is not None and existing[0] <= cost + _COST_EPS:
                return
            if existing is None:
                stats.states_pushed += 1
            pending[key] = (cost, backpointer)
            queue.update(key, f_value)
            live = len(queue) + len(store)
            if live > stats.peak_live_states:
                stats.peak_live_states = live

        def adopt_goal(node: int, mask: int, cost: float, backpointer: tuple) -> None:
            nonlocal best, best_tree
            directed = list(
                store.tree_edges(node, mask, override=(node, mask, backpointer))
            )
            tree = _reduce_to_arborescence(graph, node, directed, query)
            if tree is not None:
                best = min(cost, tree.weight)
                best_tree = tree
                record_progress()

        for label_index, members in enumerate(groups):
            bit = 1 << label_index
            for node in members:
                update(node, bit, 0.0, ("seed", label_index))

        optimal = False
        pops = 0
        while queue:
            pops += 1
            if pops % 256 == 0:
                if (
                    time_limit is not None
                    and time.perf_counter() - started >= time_limit
                ):
                    break
                if max_states is not None and pops >= max_states:
                    break
            if (
                best < INF
                and global_lb > 0.0
                and best <= (1.0 + epsilon) * global_lb + _COST_EPS
            ):
                optimal = epsilon == 0.0
                break

            key, f_value = queue.pop()
            node, mask = key
            cost, backpointer = pending.pop(key)
            stats.states_popped += 1
            # Best-first pop order: the popped cost is a monotone lower
            # bound on the optimum.
            if f_value > global_lb:
                global_lb = min(f_value, best)
                record_progress()

            if mask == full:
                # Monotone pop order: this goal is provably optimal.
                if cost < best - _COST_EPS:
                    adopt_goal(node, mask, cost, backpointer)
                store.settle(node, mask, cost, backpointer)
                global_lb = best
                optimal = True
                break

            store.settle(node, mask, cost, backpointer)
            build_feasible(node, mask, cost)

            stats.states_expanded += 1
            # Edge growing: the root moves backward along v2 -> node.
            for v2, weight in in_adjacency[node]:
                stats.edges_grown += 1
                update(v2, mask, cost + weight, ("grow", node, weight))
            # Tree merging at the same root.
            for other_mask, other_cost in list(store.masks_at(node).items()):
                if other_mask & mask:
                    continue
                stats.merges_performed += 1
                update(
                    node,
                    mask | other_mask,
                    cost + other_cost,
                    ("merge", mask, other_mask),
                )
        else:
            if best < INF:
                optimal = True
                global_lb = best

        if best < INF and global_lb >= best - _COST_EPS:
            optimal = True
        stats.total_seconds = time.perf_counter() - started
        record_progress(force=True)
        return GSTResult(
            algorithm=self.algorithm_name,
            labels=query.labels,
            tree=best_tree,  # type: ignore[arg-type]
            weight=best,
            lower_bound=best if optimal else min(global_lb, best),
            optimal=optimal,
            stats=stats,
            trace=trace,
        )


def _reduce_to_arborescence(
    graph: DiGraph,
    root: int,
    directed_edges: List[Tuple[int, int, float]],
    query: GSTQuery,
) -> Optional[DirectedSteinerTree]:
    """Collapse a parent→child edge multiset into a pruned arborescence.

    Keeps, per node, the in-edge discovered on the cheapest BFS layer
    from the root (any single in-edge preserves reachability since all
    edges originate from root-reachable paths), then strips childless
    nodes carrying no needed query label.
    """
    children: Dict[int, List[Tuple[int, float]]] = {}
    for parent, child, weight in directed_edges:
        children.setdefault(parent, []).append((child, weight))
    chosen_parent: Dict[int, Tuple[int, float]] = {}
    seen = {root}
    queue = [root]
    while queue:
        node = queue.pop()
        for child, weight in children.get(node, ()):
            if child not in seen:
                seen.add(child)
                chosen_parent[child] = (node, weight)
                queue.append(child)
    edges = [
        (parent, child, weight)
        for child, (parent, weight) in chosen_parent.items()
    ]
    tree = DirectedSteinerTree(root, edges)
    return _prune_directed_leaves(graph, tree, query)


def _prune_directed_leaves(
    graph: DiGraph, tree: DirectedSteinerTree, query: GSTQuery
) -> DirectedSteinerTree:
    """Drop childless non-root nodes whose labels stay covered."""
    label_carriers = [0] * query.k
    node_masks: Dict[int, int] = {}
    for node in tree.nodes:
        mask = 0
        node_labels = graph.labels_of(node)
        for i, label in enumerate(query.labels):
            if label in node_labels:
                mask |= 1 << i
        node_masks[node] = mask
        for bit in iter_bits(mask):
            label_carriers[bit] += 1

    child_count: Dict[int, int] = {}
    parent_of: Dict[int, Tuple[int, float]] = {}
    for parent, child, weight in tree.edges:
        child_count[parent] = child_count.get(parent, 0) + 1
        parent_of[child] = (parent, weight)

    removed: Set[int] = set()
    frontier = [
        n for n in tree.nodes
        if n != tree.root and child_count.get(n, 0) == 0
    ]
    while frontier:
        node = frontier.pop()
        if node in removed or node == tree.root:
            continue
        if child_count.get(node, 0) != 0:
            continue
        mask = node_masks[node]
        if any(label_carriers[bit] <= 1 for bit in iter_bits(mask)):
            continue
        removed.add(node)
        for bit in iter_bits(mask):
            label_carriers[bit] -= 1
        parent, _ = parent_of[node]
        child_count[parent] -= 1
        if child_count[parent] == 0 and parent != tree.root:
            frontier.append(parent)
    if not removed:
        return tree
    kept = [
        (parent, child, weight)
        for parent, child, weight in tree.edges
        if child not in removed
    ]
    return DirectedSteinerTree(tree.root, kept)


# ----------------------------------------------------------------------
# Exhaustive oracle
# ----------------------------------------------------------------------
def brute_force_directed_gst(
    graph: DiGraph, labels: Iterable[Hashable]
) -> float:
    """Fixpoint evaluation of the directed DP recurrence (test oracle).

    Bellman-Ford-style relaxation of every edge-growth and merge until
    nothing changes — exact, independent of the best-first search
    order, and exponential in memory (``n · 2^k`` floats): tiny
    instances only.
    """
    query = labels if isinstance(labels, GSTQuery) else GSTQuery(labels)
    groups = query.groups(graph)
    k = query.k
    full = query.full_mask
    n = graph.num_nodes

    f = [[INF] * (full + 1) for _ in range(n)]
    for i, members in enumerate(groups):
        for node in members:
            f[node][1 << i] = 0.0

    edges = list(graph.edges())
    changed = True
    while changed:
        changed = False
        for source, target, weight in edges:
            row_t = f[target]
            row_s = f[source]
            for mask in range(1, full + 1):
                candidate = weight + row_t[mask]
                if candidate < row_s[mask] - _COST_EPS:
                    row_s[mask] = candidate
                    changed = True
        for node in range(n):
            row = f[node]
            for mask in range(1, full + 1):
                sub = (mask - 1) & mask
                while sub:
                    other = mask ^ sub
                    if sub < other:  # each split once
                        candidate = row[sub] + row[other]
                        if candidate < row[mask] - _COST_EPS:
                            row[mask] = candidate
                            changed = True
                    sub = (sub - 1) & mask
    return min(f[node][full] for node in range(n))

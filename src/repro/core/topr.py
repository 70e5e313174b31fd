"""Top-r GST search: the paper's approximate remark, plus an exact mode.

**Approximate** (:func:`top_r_trees`) — the paper's Section 4.2 remark:
its progressive algorithms "report many near-optimal solutions during
execution, and thus we can select the best r results among them as the
approximate top-r results".  We run any progressive solver with a
feasible-tree collector installed and return the ``r`` lightest
distinct covering trees it materialized.  The first is the exact top-1
(when the solve completed); the rest are near-optimal candidates.

**Exact** (:func:`exact_top_r_trees`) — the paper points at Kimelfeld &
Sagiv's enumeration framework ([21]) without spelling it out; we
implement the classic Lawler-style *exclusion branching* instead, which
is exact for distinct trees: maintain a priority queue of subproblems,
each defined by a set of forbidden edges (and, for single-node answers,
forbidden nodes).  Popping the lightest subproblem winner yields the
next result; it then spawns one child subproblem per element of the
winner (forbid that element too).  Correctness invariant: any tree not
yet emitted differs from each emitted tree in at least one edge (or is
a different single node), so it survives in some queued subproblem;
subproblem winners are true minima of their subspaces, hence the
global pop order is the true top-r order.  Cost: one full GST solve
per generated subproblem — ``O(r · |T*|)`` solves.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple, Type

from ..errors import InfeasibleQueryError
from ..graph.graph import Graph
from .algorithms import PrunedDPPlusPlusSolver, _ProgressiveSolverBase
from .tree import SteinerTree

__all__ = ["top_r_trees", "exact_top_r_trees"]


def top_r_trees(
    graph: Graph,
    labels: Iterable[Hashable],
    r: int,
    *,
    solver_cls: Type[_ProgressiveSolverBase] = PrunedDPPlusPlusSolver,
    **solver_kwargs,
) -> List[SteinerTree]:
    """The ``r`` lightest distinct covering trees seen during a solve.

    Sorted by weight; the first is the proven optimum when the solve
    completed.  Fewer than ``r`` trees are returned if the search did
    not encounter that many distinct feasible solutions.  Extra keyword
    arguments are forwarded to the solver (e.g. ``budget``).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    collected: Dict[Tuple, SteinerTree] = {}

    def collect(tree: SteinerTree) -> None:
        key = (tree.edges, tree.nodes)
        if key not in collected:
            collected[key] = tree

    solver = solver_cls(graph, labels, on_feasible=collect, **solver_kwargs)
    result = solver.solve()
    if result.tree is not None:
        collect(result.tree)
    trees = sorted(collected.values(), key=lambda t: (t.weight, t.edges))
    return trees[:r]


# ----------------------------------------------------------------------
# Exact top-r via exclusion branching
# ----------------------------------------------------------------------
EdgeKey = Tuple[int, int]


def _restricted_graph(
    graph: Graph,
    forbidden_edges: FrozenSet[EdgeKey],
    forbidden_nodes: FrozenSet[int],
) -> Graph:
    """Copy of ``graph`` without the forbidden elements.

    Node ids stay stable: a forbidden node keeps its slot but loses its
    labels and edges, so trees of the restricted graph map back 1:1.
    """
    restricted = Graph()
    for node in graph.nodes():
        labels = () if node in forbidden_nodes else graph.labels_of(node)
        restricted.add_node(labels=labels)
    for u, v, w in graph.edges():
        if u in forbidden_nodes or v in forbidden_nodes:
            continue
        if (u, v) in forbidden_edges:
            continue
        restricted.add_edge(u, v, w)
    return restricted


def exact_top_r_trees(
    graph: Graph,
    labels: Iterable[Hashable],
    r: int,
    *,
    solver_cls: Optional[Type[_ProgressiveSolverBase]] = None,
    max_subproblems: int = 10_000,
    **solver_kwargs,
) -> List[SteinerTree]:
    """The true ``r`` lightest distinct *minimal* covering trees.

    Semantics: answers are **reduced** trees — no proper subtree covers
    the query (standard keyword-search semantics: a tree carrying a
    redundant branch is a worse duplicate of a smaller answer, not a
    new answer).  Under strictly positive edge weights every subspace
    optimum is automatically reduced, and the exclusion branching
    enumerates exactly the reduced covering trees in non-decreasing
    weight order (see the module docstring for the invariant).

    Each emitted tree is the proven optimum of its subspace, so the
    sequence is globally correct — unlike :func:`top_r_trees`, at the
    price of up to ``r · |T|`` full solves.  ``max_subproblems`` bounds
    the enumeration as a safety valve (raising it is safe, just
    slower).  Prefer solvers that require positive weights (the default
    does): zero-weight edges would let non-reduced optima slip in.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    labels = tuple(labels)
    if solver_cls is None:
        # PrunedDP+ by default: each subproblem runs on a *different*
        # restricted graph, so PrunedDP++'s 2^k route tables cannot be
        # reused across solves and their rebuild cost dominates (~3x
        # slower end-to-end in the top-r benchmark).
        from .algorithms import PrunedDPPlusSolver

        solver_cls = PrunedDPPlusSolver

    def solve_subspace(
        forbidden_edges: FrozenSet[EdgeKey], forbidden_nodes: FrozenSet[int]
    ) -> Optional[SteinerTree]:
        restricted = _restricted_graph(graph, forbidden_edges, forbidden_nodes)
        try:
            result = solver_cls(restricted, labels, **solver_kwargs).solve()
        except InfeasibleQueryError:
            return None
        if result.tree is None or not result.optimal:
            return None
        # Re-weight edges against the original graph (weights are equal
        # by construction; this also validates the mapping).
        return result.tree

    results: List[SteinerTree] = []
    emitted: Set[Tuple] = set()
    explored: Set[Tuple[FrozenSet[EdgeKey], FrozenSet[int]]] = set()
    counter = 0  # heap tiebreaker
    queue: List[Tuple[float, int, SteinerTree, FrozenSet[EdgeKey], FrozenSet[int]]] = []

    first = solve_subspace(frozenset(), frozenset())
    if first is None:
        raise InfeasibleQueryError(
            f"no connected tree covers labels {list(labels)!r}"
        )
    heapq.heappush(queue, (first.weight, counter, first, frozenset(), frozenset()))
    subproblems = 1

    while queue and len(results) < r and subproblems < max_subproblems:
        weight, _, tree, forbidden_edges, forbidden_nodes = heapq.heappop(queue)
        key = (tree.edges, tree.nodes)
        is_new = key not in emitted
        if is_new:
            emitted.add(key)
            results.append(tree)
            if len(results) >= r:
                break
        # Spawn children: exclude each element of this winner in turn.
        # (Also done for duplicate winners — the next-best tree of this
        # subspace hides behind the duplicate.)
        children: List[Tuple[FrozenSet[EdgeKey], FrozenSet[int]]] = []
        if tree.edges:
            for u, v, _ in tree.edges:
                children.append(
                    (forbidden_edges | {(u, v)}, forbidden_nodes)
                )
        else:
            (node,) = tree.nodes
            children.append((forbidden_edges, forbidden_nodes | {node}))
        for child in children:
            if child in explored:
                continue
            explored.add(child)
            subproblems += 1
            winner = solve_subspace(*child)
            if winner is not None:
                counter += 1
                heapq.heappush(
                    queue, (winner.weight, counter, winner, child[0], child[1])
                )
            if subproblems >= max_subproblems:
                break

    return results

"""Feasible-solution construction (Algorithms 1/2/4, lines 10-15).

Given a popped DP state ``(v, X)`` whose tree ``T(v, X)`` is known, the
paper builds a full feasible solution by

1. uniting ``T(v, X)`` with the shortest path from ``v`` to the virtual
   node of every *missing* label ``p ∈ X̄`` (giving ``T'(v, X̄)``),
2. taking the MST of the united edge set, and
3. (implicitly, by taking a *tree*) dropping redundancy.

We additionally prune leaf branches that cover no needed label — a
strictly-improving post-pass that keeps the feasible tree (and therefore
the paper's upper-bound curves) tight.  The result is always a valid
covering tree, so its weight is a sound upper bound on ``f*(P)``.

:func:`kept_core_weight` bounds that refinement from below without
running it, so the search can skip unions that cannot beat its
incumbent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..graph.mst import minimum_spanning_forest
from .context import QueryContext
from .state import iter_bits
from .tree import SteinerTree

__all__ = ["build_feasible_tree", "steiner_tree_from_edges"]

INF = float("inf")
EdgeTuple = Tuple[int, int, float]


def build_feasible_tree(
    context: QueryContext,
    state_edges: List[EdgeTuple],
    root: int,
    covered_mask: int,
) -> Optional[SteinerTree]:
    """Feasible tree for state ``(root, covered_mask)``, or ``None``.

    ``state_edges`` is the (possibly empty) edge set of ``T(v, X)``.
    Returns ``None`` when some missing label is unreachable from the
    root (disconnected graph) — the state simply yields no feasible
    solution, mirroring the paper's connected-graph assumption.
    """
    missing = context.full_mask & ~covered_mask
    edges: List[EdgeTuple] = list(state_edges)
    for label_index in iter_bits(missing):
        if context.dist[label_index][root] == INF:
            return None
        edges.extend(context.shortest_path_edges(label_index, root))
    tree = steiner_tree_from_edges(edges, anchor=root)
    return prune_redundant_leaves(context, tree)


def steiner_tree_from_edges(
    edges: List[EdgeTuple], anchor: int
) -> SteinerTree:
    """Collapse an edge multiset into a tree: dedupe + MST.

    Union of shortest paths and a DP tree can contain duplicate edges
    and cycles; ``minimum_spanning_forest`` resolves both.  If the union
    is (unexpectedly) disconnected only the component containing
    ``anchor`` is kept — the other fragments cannot contribute coverage
    reachable from the anchor anyway.
    """
    if not edges:
        return SteinerTree.single_node(anchor)
    forest = minimum_spanning_forest(edges)
    # Split into components and keep the anchor's.
    adjacency: Dict[int, List[EdgeTuple]] = {}
    for u, v, w in forest:
        adjacency.setdefault(u, []).append((u, v, w))
        adjacency.setdefault(v, []).append((u, v, w))
    if anchor not in adjacency:
        return SteinerTree.single_node(anchor)
    component: Set[int] = {anchor}
    stack = [anchor]
    kept: List[EdgeTuple] = []
    seen_edges: Set[Tuple[int, int]] = set()
    while stack:
        node = stack.pop()
        for u, v, w in adjacency.get(node, ()):
            key = (min(u, v), max(u, v))
            if key in seen_edges:
                continue
            seen_edges.add(key)
            kept.append((u, v, w))
            other = v if node == u else u
            if other not in component:
                component.add(other)
                stack.append(other)
    return SteinerTree(kept, nodes=(anchor,))


def prune_redundant_leaves(
    context: QueryContext, tree: SteinerTree
) -> SteinerTree:
    """Iteratively strip leaves whose removal keeps all labels covered.

    A leaf is removable when it is not the sole tree node carrying some
    query label.  Strictly decreases weight, never breaks feasibility;
    fixpoint is reached in ``O(|tree|)`` rounds (each removes >= 1 node).
    """
    if not tree.edges:
        return tree
    node_masks = context.node_masks
    degree: Dict[int, int] = tree.degree_map()
    adjacency: Dict[int, List[Tuple[int, float]]] = {n: [] for n in tree.nodes}
    for u, v, w in tree.edges:
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))

    # How many remaining tree nodes carry each query label.
    carriers = [0] * context.k
    for node in tree.nodes:
        for bit in iter_bits(node_masks[node]):
            carriers[bit] += 1

    removed: Set[int] = set()
    removed_edges: Set[Tuple[int, int]] = set()
    frontier = [n for n, d in degree.items() if d == 1]
    while frontier:
        node = frontier.pop()
        if node in removed or degree[node] != 1:
            continue
        mask = node_masks[node]
        if any(carriers[bit] <= 1 for bit in iter_bits(mask)):
            continue  # sole carrier of a needed label: keep
        if len(removed) == len(tree.nodes) - 1:
            break  # never remove the final node
        removed.add(node)
        for bit in iter_bits(mask):
            carriers[bit] -= 1
        for neighbor, _ in adjacency[node]:
            if neighbor in removed:
                continue
            removed_edges.add((min(node, neighbor), max(node, neighbor)))
            degree[neighbor] -= 1
            degree[node] -= 1
            if degree[neighbor] == 1:
                frontier.append(neighbor)
            break  # a leaf has exactly one live neighbor

    if not removed:
        return tree
    kept_edges = [
        (u, v, w)
        for u, v, w in tree.edges
        if (u, v) not in removed_edges
    ]
    kept_nodes = [n for n in tree.nodes if n not in removed]
    if not kept_edges:
        # Tree collapsed to one node; pick any survivor (there is
        # exactly one, by the degree bookkeeping).
        return SteinerTree.single_node(kept_nodes[0])
    return SteinerTree(kept_edges)


def kept_core_weight(
    context: QueryContext, pairs: Dict[Tuple[int, int], float]
) -> Optional[float]:
    """Lower bound on the refined tree of a union, or ``None``.

    ``pairs`` maps each pair ``(u, v)``, ``u < v``, of a connected union
    with at least one edge to its weight.  Returns ``None`` when the
    union is not a tree.  Otherwise returns the weight of its *kept
    core*: the subtree spanning the *unique carriers*, the nodes that
    alone carry some query label within the union.

    :func:`prune_redundant_leaves` never strips the last carrier of a
    label, and the MST of a tree is the tree itself.  So whatever order
    the prune strips leaves in, ``prune_redundant_leaves(context,
    steiner_tree_from_edges(union, anchor))`` is a connected subtree of
    the union that holds every unique carrier, and weighs at least this.
    """
    degree: Dict[int, int] = {}
    # XOR of each node's live neighbours: a leaf's one neighbour is its
    # entry, without adjacency lists.
    link: Dict[int, int] = {}
    for u, v in pairs:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        link[u] = link.get(u, 0) ^ v
        link[v] = link.get(v, 0) ^ u
    if len(degree) != len(pairs) + 1:
        return None  # connected with a cycle
    node_masks = context.node_masks
    seen = shared = 0
    for node in degree:
        mask = node_masks[node]
        shared |= seen & mask
        seen |= mask
    unique = seen & ~shared  # labels with exactly one carrier
    carriers = 0
    frontier: List[int] = []
    for node, d in degree.items():
        if node_masks[node] & unique:
            carriers += 1
        elif d == 1:
            frontier.append(node)
    if carriers < 2:
        return 0.0  # the core is one node, or none
    # Strip leaves that are not unique carriers.  The core always keeps
    # the >= 2 carriers and the paths between them, so no node left in
    # it drops to degree 0.
    while frontier:
        leaf = frontier.pop()
        degree[leaf] = 0
        other = link[leaf]
        link[other] ^= leaf
        degree[other] -= 1
        if degree[other] == 1 and not node_masks[other] & unique:
            frontier.append(other)
    return sum(w for (u, v), w in pairs.items() if degree[u] and degree[v])

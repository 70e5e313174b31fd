"""Feasible-solution construction tests (Algorithms 1/2/4, lines 10-15)."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest

from repro import Graph, GSTQuery
from repro.core.context import QueryContext
from repro.core.feasible import (
    build_feasible_tree,
    kept_core_weight,
    prune_redundant_leaves,
    steiner_tree_from_edges,
)
from repro.core.tree import SteinerTree
from repro.graph import generators


def ctx_for(graph, labels):
    return QueryContext.build(graph, GSTQuery(labels))


class TestSteinerTreeFromEdges:
    def test_empty_edges(self):
        t = steiner_tree_from_edges([], anchor=5)
        assert t.nodes == frozenset({5})
        assert t.weight == 0.0

    def test_duplicates_collapsed(self):
        t = steiner_tree_from_edges(
            [(0, 1, 2.0), (1, 0, 2.0), (0, 1, 2.0)], anchor=0
        )
        assert t.weight == 2.0
        assert t.num_edges == 1

    def test_cycle_resolved_by_mst(self):
        t = steiner_tree_from_edges(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)], anchor=0
        )
        assert t.weight == 2.0

    def test_disconnected_fragment_dropped(self):
        t = steiner_tree_from_edges(
            [(0, 1, 1.0), (5, 6, 1.0)], anchor=0
        )
        assert t.nodes == frozenset({0, 1})

    def test_anchor_isolated(self):
        t = steiner_tree_from_edges([(5, 6, 1.0)], anchor=0)
        assert t.nodes == frozenset({0})


class TestBuildFeasibleTree:
    def test_from_seed_state(self, star_graph):
        """State (a, {x}) at leaf a: feasible tree must cover y and z too."""
        ctx = ctx_for(star_graph, ["x", "y", "z"])
        tree = build_feasible_tree(ctx, [], root=1, covered_mask=0b001)
        assert tree is not None
        tree.validate(star_graph, ["x", "y", "z"])
        # Optimal is the star (weight 6); the construction from 'a'
        # unions the shortest paths a-h-b and a-h-c -> also weight 6.
        assert tree.weight == pytest.approx(6.0)

    def test_full_mask_returns_state_tree(self, path_graph):
        ctx = ctx_for(path_graph, ["x", "y"])
        state_edges = [(0, 1, 1.0), (1, 2, 2.0)]
        tree = build_feasible_tree(ctx, state_edges, root=0, covered_mask=0b11)
        assert tree.weight == pytest.approx(3.0)

    def test_unreachable_label_returns_none(self):
        g = Graph()
        a = g.add_node(labels=["x"])
        g.add_node(labels=["y"])  # disconnected
        c = g.add_node()
        g.add_edge(a, c, 1.0)
        ctx = ctx_for(g, ["x", "y"])
        assert build_feasible_tree(ctx, [], root=a, covered_mask=0b01) is None

    def test_always_feasible_and_above_optimum(self):
        """Property: the constructed tree is feasible and its weight is
        an upper bound on (>= ) the optimum."""
        from repro.core import brute_force_gst

        for seed in range(10):
            g = generators.random_graph(
                10, 16, num_query_labels=3, label_frequency=2, seed=seed
            )
            labels = ["q0", "q1", "q2"]
            optimum, _ = brute_force_gst(g, labels)
            ctx = ctx_for(g, labels)
            for root in g.nodes():
                for mask in (0b001, 0b010, 0b100):
                    # Simulate the seed state at a group member.
                    label_index = mask.bit_length() - 1
                    if not g.has_label(root, f"q{label_index}"):
                        continue
                    tree = build_feasible_tree(ctx, [], root, mask)
                    assert tree is not None
                    tree.validate(g, labels)
                    assert tree.weight >= optimum - 1e-9


class TestPruneRedundantLeaves:
    def test_prunes_uncovering_branch(self):
        """A dangling connector path is stripped after the MST union."""
        g = Graph()
        a = g.add_node(labels=["x"])
        b = g.add_node(labels=["y"])
        c = g.add_node()  # dead-end connector
        g.add_edge(a, b, 1.0)
        g.add_edge(b, c, 5.0)
        ctx = ctx_for(g, ["x", "y"])
        bloated = SteinerTree([(0, 1, 1.0), (1, 2, 5.0)])
        pruned = prune_redundant_leaves(ctx, bloated)
        assert pruned.weight == 1.0
        assert pruned.nodes == frozenset({0, 1})

    def test_keeps_sole_carriers(self, star_graph):
        ctx = ctx_for(star_graph, ["x", "y", "z"])
        star = SteinerTree.from_edge_pairs(star_graph, [(0, 1), (0, 2), (0, 3)])
        pruned = prune_redundant_leaves(ctx, star)
        assert pruned == star  # every leaf is a sole label carrier

    def test_prunes_duplicate_carrier(self):
        g = Graph()
        a = g.add_node(labels=["x"])
        b = g.add_node(labels=["y", "x"])
        c = g.add_node(labels=["x"])  # redundant second x
        g.add_edge(a, b, 1.0)
        g.add_edge(b, c, 2.0)
        ctx = ctx_for(g, ["x", "y"])
        tree = SteinerTree([(0, 1, 1.0), (1, 2, 2.0)])
        pruned = prune_redundant_leaves(ctx, tree)
        # Both a and c are removable; pruning both leaves just b, which
        # carries x and y itself.  Pruning must keep feasibility.
        assert pruned.covers(g, ["x", "y"])
        assert pruned.weight <= 1.0

    def test_single_node_untouched(self, path_graph):
        ctx = ctx_for(path_graph, ["x"])
        t = SteinerTree.single_node(0)
        assert prune_redundant_leaves(ctx, t) == t

    def test_collapse_to_single_node(self):
        g = Graph()
        a = g.add_node(labels=["x", "y"])
        b = g.add_node(labels=["x"])
        g.add_edge(a, b, 3.0)
        ctx = ctx_for(g, ["x", "y"])
        tree = SteinerTree([(0, 1, 3.0)])
        pruned = prune_redundant_leaves(ctx, tree)
        assert pruned.nodes == frozenset({0})
        assert pruned.weight == 0.0


def union_context(num_nodes, edges, node_labels, labels):
    """Context over a graph made of exactly ``edges``; labels by node."""
    g = Graph()
    for node in range(num_nodes):
        g.add_node(labels=node_labels.get(node, ()))
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return ctx_for(g, labels)


def pair_weights(edges):
    return {(min(u, v), max(u, v)): w for u, v, w in edges}


def random_tree(rng, n, legs):
    """Edges of a random tree on nodes ``0..n-1``, grown as ``legs`` paths.

    Each path starts at a node already placed.  Weights are dyadic, so
    every sum is exact in any order.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    placed = 1
    for leg in range(legs):
        length = (n - placed) // (legs - leg)
        anchor = order[rng.randrange(placed)]
        for node in order[placed:placed + length]:
            u, v = (anchor, node) if rng.random() < 0.5 else (node, anchor)
            edges.append((u, v, rng.randint(1, 64) / 4))
            anchor = node
        placed += length
    return edges


class TestKeptCoreWeight:
    def test_bound_below_either_prune_outcome(self):
        """Leaves c and d carry the only two copies of z, so the prune
        keeps whichever of them it reaches second:

              a(x) -1- h -2- b(y)
                      / \\
                     3   5
                    /     \\
                 c(z)     d(z)

        Keeping c gives 1 + 2 + 3 = 6; keeping d gives 1 + 2 + 5 = 8.
        The unique carriers are a and b, so the kept core is the path
        a-h-b, weight 3.
        """
        a, h, b, c, d = range(5)
        edges = [(a, h, 1.0), (h, b, 2.0), (h, c, 3.0), (h, d, 5.0)]
        ctx = union_context(
            5, edges, {a: ["x"], b: ["y"], c: ["z"], d: ["z"]},
            ["x", "y", "z"],
        )
        keep_c, keep_d = 6.0, 8.0
        core = kept_core_weight(ctx, pair_weights(edges))
        assert core == 3.0
        assert core <= keep_c and core <= keep_d
        for anchor in (a, h, b, c, d):
            refined = prune_redundant_leaves(
                ctx, steiner_tree_from_edges(edges, anchor=anchor)
            )
            assert refined.weight in (keep_c, keep_d)

    def test_random_trees_bound_the_refinement(self):
        rng = random.Random(20161)
        exact_cases = 0
        for _ in range(300):
            n = rng.randint(2, 30)
            k = rng.randint(1, 5)
            labels = [f"q{i}" for i in range(k)]
            # Half the trees grow as a few long legs, so they have few
            # leaves; the others attach each node to a random earlier one.
            legs = n - 1
            if rng.random() < 0.5:
                legs = rng.randint(1, min(k + 1, n - 1))
            edges = random_tree(rng, n, legs)
            leaves = [
                node for node, d in SteinerTree(edges).degree_map().items()
                if d == 1
            ]
            node_labels = {}
            free = labels[:]
            rng.shuffle(free)
            for leaf in leaves:
                if free and rng.random() < 0.9:
                    node_labels[leaf] = [free.pop()]
            for node in range(n):
                if rng.random() < 0.1:
                    node_labels.setdefault(node, []).extend(
                        rng.sample(labels, rng.randint(1, k))
                    )
            for label in free:  # the union covers every query label
                node_labels.setdefault(rng.randrange(n), []).append(label)
            ctx = union_context(n, edges, node_labels, labels)

            core = kept_core_weight(ctx, pair_weights(edges))
            refined = prune_redundant_leaves(
                ctx, steiner_tree_from_edges(edges, anchor=rng.randrange(n))
            )
            assert core is not None
            assert core <= refined.weight

            masks = ctx.node_masks
            carriers = [sum(m >> bit & 1 for m in masks) for bit in range(k)]

            def unique_carrier(node):
                return any(
                    masks[node] >> bit & 1 and carriers[bit] == 1
                    for bit in range(k)
                )

            # Oracle: the core is the union of the tree paths between
            # every two unique carriers.
            tree = nx.Graph()
            tree.add_weighted_edges_from(edges)
            spanned = set()
            terminals = [node for node in range(n) if unique_carrier(node)]
            for s, t in itertools.combinations(terminals, 2):
                path = nx.shortest_path(tree, s, t)
                spanned.update(frozenset(e) for e in zip(path, path[1:]))
            assert core == sum(tree.edges[tuple(e)]["weight"] for e in spanned)

            # Every leaf a unique carrier: the prune strips nothing and
            # the core is the whole tree.
            if all(unique_carrier(leaf) for leaf in leaves):
                exact_cases += 1
                assert core == refined.weight
        assert exact_cases >= 30

    def test_cycle_is_not_a_tree(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)]
        ctx = union_context(4, edges, {0: ["x"], 3: ["y"]}, ["x", "y"])
        assert kept_core_weight(ctx, pair_weights(edges)) is None

    def test_fewer_than_two_unique_carriers_bound_zero(self):
        edges = [(0, 1, 4.0), (1, 2, 4.0)]
        # Node 1 alone carries both labels; 0 and 2 share a third.
        ctx = union_context(
            3, edges, {1: ["x", "y"], 0: ["z"], 2: ["z"]}, ["x", "y", "z"]
        )
        assert kept_core_weight(ctx, pair_weights(edges)) == 0.0

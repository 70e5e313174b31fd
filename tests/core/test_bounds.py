"""Lower-bound admissibility and consistency tests (Section 4.1).

The central property (Lemmas 1-4): for every state ``(v, X)``,
``π(v, X) <= f*_T(v, X̄)`` — the optimal weight of a tree rooted at ``v``
covering the missing labels.  We compute that oracle by brute force on
small graphs: force ``v`` into the tree via a unique extra label.
"""

from __future__ import annotations

import pytest

from repro import GSTQuery
from repro.core.allpaths import RouteTables
from repro.core.bounds import LowerBounds
from repro.core.bruteforce import brute_force_gst
from repro.core.context import QueryContext
from repro.core.state import iter_bits
from repro.graph import generators

INF = float("inf")


def make_bounds(graph, labels, **kwargs):
    query = GSTQuery(labels)
    ctx = QueryContext.build(graph, query)
    routes = RouteTables.build(ctx)
    return ctx, LowerBounds(ctx, routes, **kwargs)


def rooted_optimum(graph, root, labels):
    """f*_T(root, labels): cheapest tree containing root covering labels."""
    marked = graph.copy()
    marked.add_labels(root, ["__root__"])
    weight, _ = brute_force_gst(marked, list(labels) + ["__root__"])
    return weight


class TestAdmissibility:
    @pytest.mark.parametrize("seed", range(6))
    def test_pi_below_rooted_optimum(self, seed):
        k = 3
        g = generators.random_graph(
            9, 14, num_query_labels=k, label_frequency=2, seed=seed
        )
        labels = [f"q{i}" for i in range(k)]
        ctx, bounds = make_bounds(g, labels)
        full = ctx.full_mask
        for v in g.nodes():
            for covered in range(full):  # every non-goal mask
                missing = full & ~covered
                missing_labels = [
                    labels[i] for i in iter_bits(missing)
                ]
                oracle = rooted_optimum(g, v, missing_labels)
                pi = bounds.pi(v, covered)
                assert pi <= oracle + 1e-9, (seed, v, covered, pi, oracle)

    def test_goal_state_bound_is_zero(self):
        g = generators.random_graph(8, 12, num_query_labels=2, seed=0)
        ctx, bounds = make_bounds(g, ["q0", "q1"])
        for v in g.nodes():
            assert bounds.pi(v, ctx.full_mask) == 0.0

    def test_individual_bounds_admissible(self):
        """Each bound alone (π₁ / π_t1 / π_t2) is admissible too."""
        k = 3
        g = generators.random_graph(
            8, 13, num_query_labels=k, label_frequency=2, seed=42
        )
        labels = [f"q{i}" for i in range(k)]
        query = GSTQuery(labels)
        ctx = QueryContext.build(g, query)
        routes = RouteTables.build(ctx)
        variants = [
            LowerBounds(ctx, routes, use_one_label=True, use_tour1=False, use_tour2=False),
            LowerBounds(ctx, routes, use_one_label=False, use_tour1=True, use_tour2=False),
            LowerBounds(ctx, routes, use_one_label=False, use_tour1=False, use_tour2=True),
        ]
        full = ctx.full_mask
        for v in g.nodes():
            for covered in range(full):
                missing = full & ~covered
                missing_labels = [labels[i] for i in iter_bits(missing)]
                oracle = rooted_optimum(g, v, missing_labels)
                for variant in variants:
                    assert variant.pi(v, covered) <= oracle + 1e-9

    def test_combined_dominates_components(self):
        g = generators.random_graph(10, 18, num_query_labels=3, seed=7)
        labels = ["q0", "q1", "q2"]
        query = GSTQuery(labels)
        ctx = QueryContext.build(g, query)
        routes = RouteTables.build(ctx)
        combined = LowerBounds(ctx, routes)
        only_one = LowerBounds(
            ctx, routes, use_one_label=True, use_tour1=False, use_tour2=False
        )
        for v in g.nodes():
            for covered in range(ctx.full_mask):
                assert combined.pi(v, covered) >= only_one.pi(v, covered) - 1e-12


class TestOneLabelBound:
    def test_equals_max_virtual_distance(self, star_graph):
        ctx = QueryContext.build(star_graph, GSTQuery(["x", "y", "z"]))
        bounds = LowerBounds(
            ctx,
            routes=None,
            use_one_label=True,
            use_tour1=False,
            use_tour2=False,
        )
        # From the hub (node 0), nothing covered: max dist = 3 (label z).
        assert bounds.pi(0, 0) == 3.0
        # With z covered, max over x,y = 2.
        assert bounds.pi(0, 0b100) == 2.0

    def test_requires_routes_for_tour_bounds(self, star_graph):
        ctx = QueryContext.build(star_graph, GSTQuery(["x", "y"]))
        with pytest.raises(ValueError):
            LowerBounds(ctx, routes=None, use_tour1=True)


class TestConsistency:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_label_and_tour1_consistent_over_edges(self, seed):
        """Lemma 5(i)/6(i): π(u,X) + w(v,u) >= π(v,X)."""
        g = generators.random_graph(
            12, 22, num_query_labels=3, label_frequency=2, seed=seed
        )
        labels = ["q0", "q1", "q2"]
        query = GSTQuery(labels)
        ctx = QueryContext.build(g, query)
        routes = RouteTables.build(ctx)
        bounds = LowerBounds(
            ctx, routes, use_one_label=True, use_tour1=True, use_tour2=False
        )
        for covered in range(ctx.full_mask):
            for u, v, w in g.edges():
                pu = bounds.pi(u, covered)
                pv = bounds.pi(v, covered)
                assert pu + w >= pv - 1e-9
                assert pv + w >= pu - 1e-9

    def test_raise_to_monotone_cache(self):
        g = generators.random_graph(8, 12, num_query_labels=2, seed=0)
        ctx, bounds = make_bounds(g, ["q0", "q1"])
        base = bounds.pi(0, 0)
        raised = bounds.raise_to(0, 0, base + 5.0)
        assert raised == base + 5.0
        assert bounds.pi(0, 0) == base + 5.0
        # Lower candidates never lower the cache.
        assert bounds.raise_to(0, 0, base) == base + 5.0

    def test_raise_to_goal_state_stays_zero(self):
        g = generators.random_graph(8, 12, num_query_labels=2, seed=0)
        ctx, bounds = make_bounds(g, ["q0", "q1"])
        assert bounds.raise_to(0, ctx.full_mask, 99.0) == 0.0


class TestMemoTelemetry:
    """The (node, mask) memo's cache_info counters."""

    def test_cache_info_counts(self):
        g = generators.random_graph(10, 16, num_query_labels=2, seed=3)
        _, bounds = make_bounds(g, ["q0", "q1"])
        bounds.pi(0, 0)
        bounds.pi(0, 0)
        bounds.pi(1, 0)
        info = bounds.cache_info()
        assert info["size"] == 2
        assert info["hits"] == 1
        assert info["misses"] == 2
        assert info["evaluations"] == 2

"""White-box tests of the shared search engine (core/engine.py)."""

from __future__ import annotations

import json

import pytest

from repro import Graph, GSTQuery, solve_gst
from repro.core import (
    BasicSolver,
    PrunedDPPlusPlusSolver,
    PrunedDPPlusSolver,
    PrunedDPSolver,
)
from repro.core import engine as engine_module
from repro.core.context import QueryContext
from repro.core.engine import SearchEngine
from repro.graph import generators
from repro.service import GraphIndex
from repro.verify import generate_instance


def engine_for(graph, labels, **kwargs):
    ctx = QueryContext.build(graph, GSTQuery(labels))
    kwargs.setdefault("algorithm_name", "test")
    return SearchEngine(ctx, **kwargs)


class TestDeterminism:
    def test_same_input_same_stats(self):
        g = generators.random_graph(
            40, 90, num_query_labels=4, label_frequency=4, seed=17
        )
        labels = [f"q{i}" for i in range(4)]
        for solver_cls in (BasicSolver, PrunedDPSolver, PrunedDPPlusPlusSolver):
            a = solver_cls(g, labels).solve()
            b = solver_cls(g, labels).solve()
            assert a.weight == b.weight
            assert a.stats.states_popped == b.stats.states_popped
            assert a.stats.states_pushed == b.stats.states_pushed
            assert a.tree.edges == b.tree.edges


class TestComplementShortcut:
    def test_shortcut_forms_goal_states(self):
        """On a graph where complementary halves meet at a middle node,
        PrunedDP must produce merge-derived goal states."""
        g = Graph()
        a = g.add_node(labels=["x"])
        mid = g.add_node()
        b = g.add_node(labels=["y"])
        g.add_edge(a, mid, 1.0)
        g.add_edge(mid, b, 1.0)
        result = PrunedDPSolver(g, ["x", "y"]).solve()
        assert result.optimal
        assert result.weight == pytest.approx(2.0)
        assert result.stats.merges_performed >= 0  # engine ran merges path

    def test_shortcut_state_counts_not_worse(self):
        """Disabling the complement shortcut never reduces popped states."""

        class NoShortcut(PrunedDPSolver):
            algorithm_name = "PrunedDP[no-shortcut]"
            complement_shortcut = False

        g = generators.random_graph(
            35, 80, num_query_labels=4, label_frequency=4, seed=9
        )
        labels = [f"q{i}" for i in range(4)]
        with_shortcut = PrunedDPSolver(g, labels).solve()
        without = NoShortcut(g, labels).solve()
        assert with_shortcut.weight == pytest.approx(without.weight)
        assert (
            with_shortcut.stats.states_popped
            <= without.stats.states_popped + 5
        )


class TestEngineKnobValidation:
    def test_bad_merge_factor(self, star_graph):
        with pytest.raises(ValueError):
            engine_for(star_graph, ["x", "y"], merge_factor=0.0)
        with pytest.raises(ValueError):
            engine_for(star_graph, ["x", "y"], merge_factor=1.5)

    def test_valid_merge_factor_boundary(self, star_graph):
        engine = engine_for(star_graph, ["x", "y"], merge_factor=1.0)
        result = engine.run()
        assert result.weight == pytest.approx(3.0)


class TestOnFeasibleHook:
    def test_hook_sees_valid_covering_trees(self):
        g = generators.random_graph(
            30, 70, num_query_labels=3, label_frequency=3, seed=5
        )
        labels = ["q0", "q1", "q2"]
        seen = []
        result = BasicSolver(g, labels, on_feasible=seen.append).solve()
        assert seen
        for tree in seen:
            tree.validate(g, labels)
        # The optimum is among (or equal to the best of) the collected trees.
        assert min(t.weight for t in seen) == pytest.approx(result.weight)


class TestStatsCoherence:
    @pytest.mark.parametrize(
        "solver_cls", [BasicSolver, PrunedDPSolver, PrunedDPPlusPlusSolver]
    )
    def test_counters_consistent(self, solver_cls):
        g = generators.random_graph(
            35, 75, num_query_labels=3, label_frequency=4, seed=6
        )
        result = solver_cls(g, ["q0", "q1", "q2"]).solve()
        stats = result.stats
        assert 0 < stats.states_popped <= stats.states_pushed
        assert stats.states_expanded <= stats.states_popped
        assert stats.peak_live_states >= stats.peak_store_size
        assert stats.peak_live_states >= stats.peak_queue_size
        assert stats.total_seconds >= stats.init_seconds >= 0.0
        assert stats.estimated_bytes > 0

    def test_plusplus_counts_table_entries(self):
        g = generators.random_graph(
            30, 60, num_query_labels=4, label_frequency=3, seed=7
        )
        result = PrunedDPPlusPlusSolver(g, ["q0", "q1", "q2", "q3"]).solve()
        assert result.stats.table_entries > 0


class TestSeedStates:
    def test_multi_label_node_reached_by_merge(self):
        """A node carrying several query labels must still yield the
        combined state at cost 0 (via zero-cost merges of its seeds)."""
        g = Graph()
        v = g.add_node(labels=["a", "b"])
        w = g.add_node(labels=["c"])
        g.add_edge(v, w, 3.0)
        result = BasicSolver(g, ["a", "b", "c"]).solve()
        assert result.weight == pytest.approx(3.0)
        assert result.tree.nodes == frozenset({v, w})

    def test_all_group_members_seeded(self):
        g = Graph()
        nodes = [g.add_node(labels=["t"]) for _ in range(5)]
        for u, v in zip(nodes, nodes[1:]):
            g.add_edge(u, v, 1.0)
        result = BasicSolver(g, ["t"]).solve()
        # k=1: every seed is already a goal state; the first one sets
        # best=0 and the engine prunes the equal-cost duplicates.
        assert result.weight == 0.0
        assert result.stats.states_pushed == 1
        assert result.optimal

    def test_zero_weight_answer_is_a_float(self):
        # One node carries every label, so the answer is an edgeless
        # tree.  Clients decode every weight as a float; an int 0 here
        # would serialize differently in-process and over the wire.
        g = Graph()
        v = g.add_node(labels=["a", "b"])
        w = g.add_node(labels=["a"])
        g.add_edge(v, w, 1.0)
        for algorithm in ("basic", "pruneddp", "pruneddp+", "pruneddp++", "dpbf"):
            result = solve_gst(g, ["a", "b"], algorithm=algorithm)
            assert result.optimal
            assert result.tree.nodes == frozenset({v})
            assert json.dumps(result.weight) == "0.0", algorithm
            assert json.dumps(result.lower_bound) == "0.0", algorithm


class TestImplicitFreeze:
    def test_direct_solve_never_serves_a_stale_snapshot(self):
        graph = Graph()
        a = graph.add_node(labels=["x"])
        m = graph.add_node()
        b = graph.add_node(labels=["y"])
        graph.add_edge(a, m, 4.0)
        graph.add_edge(m, b, 4.0)
        assert graph.snapshot() is None

        first = PrunedDPPlusPlusSolver(graph, ["x", "y"]).solve()
        assert first.optimal and first.weight == 8.0
        stale = graph.snapshot()
        assert stale is not None  # the direct solve froze the graph

        graph.add_edge(a, b, 1.0)  # shortcut: drops the snapshot
        second = PrunedDPPlusPlusSolver(graph, ["x", "y"]).solve()
        assert second.optimal and second.weight == 1.0
        assert graph.snapshot() is not stale

        served = GraphIndex(graph).execute(["x", "y"])
        assert served.ok
        assert served.result.weight == second.weight
        assert served.result.tree.edges == second.tree.edges


BOUND_CONFIGS = {
    "PrunedDP+": (PrunedDPPlusSolver, {}),
    "PrunedDP++": (PrunedDPPlusPlusSolver, {}),
    "one-label only": (
        PrunedDPPlusPlusSolver,
        dict(use_one_label=True, use_tour1=False, use_tour2=False),
    ),
    "tour1 only": (
        PrunedDPPlusPlusSolver,
        dict(use_one_label=False, use_tour1=True, use_tour2=False),
    ),
    "tour2 only": (
        PrunedDPPlusPlusSolver,
        dict(use_one_label=False, use_tour1=False, use_tour2=True),
    ),
}


BOUND_INSTANCES = {
    "gen48": lambda: generate_instance(48, max_nodes=60, max_labels=6),
    "gen275": lambda: generate_instance(275, max_nodes=60, max_labels=6),
    "powerlaw": lambda: (
        generators.powerlaw(400, num_query_labels=8, label_frequency=4, seed=1),
        ["q0", "q1", "q2", "q3"],
    ),
    "dblp": lambda: (
        generators.dblp_like(
            200, 150, num_query_labels=8, label_frequency=4, seed=0
        ),
        ["q0", "q1", "q2", "q3"],
    ),
}


def staged_solve(solver):
    """Solve through the stages so the caller keeps the LowerBounds."""
    context = solver.build_context()
    prepared = solver.prepare(context)
    return solver.run_search(context, prepared), prepared[0]


# Every configuration of the search: the two unbounded solvers, which
# build a feasible tree at almost every pop, and the bound configurations.
SEARCH_CONFIGS = {
    "Basic": (BasicSolver, {}),
    "PrunedDP": (PrunedDPSolver, {}),
    **BOUND_CONFIGS,
}


# (weight, states_popped, states_pushed, states_pruned, reopened,
# incumbent_improvements, feasible_built) per instance and configuration,
# as the full bound test ``cost + π >= best`` and a refinement of every
# distinct feasible union decide them.  The engine's ``cost + π₁``
# pre-test must prune exactly the same successors, and its kept-core
# skip may drop only refinements that could not beat the incumbent, so
# none of these may move.
GOLDEN_COUNTERS = {
    "gen48": {
        "Basic": (54.40411456032836, 2560, 2560, 7674, 0, 3, 265),
        "PrunedDP": (54.40411456032836, 1127, 1127, 412, 0, 3, 110),
        "PrunedDP+": (54.40411456032836, 690, 690, 937, 0, 2, 77),
        "PrunedDP++": (54.40411456032836, 252, 252, 685, 0, 3, 29),
        "one-label only": (54.40411456032836, 690, 690, 937, 0, 2, 77),
        "tour1 only": (54.40411456032836, 398, 398, 913, 0, 2, 35),
        "tour2 only": (54.40411456032836, 295, 295, 722, 4, 3, 32),
    },
    "gen275": {
        "Basic": (36.02403360094371, 1381, 1392, 3632, 0, 3, 373),
        "PrunedDP": (36.02403360094371, 570, 571, 261, 0, 3, 150),
        "PrunedDP+": (36.02403360094371, 297, 297, 548, 0, 3, 66),
        "PrunedDP++": (36.02403360094371, 103, 103, 276, 1, 1, 31),
        "one-label only": (36.02403360094371, 297, 297, 548, 0, 3, 66),
        "tour1 only": (36.02403360094371, 141, 141, 368, 0, 1, 36),
        "tour2 only": (36.02403360094371, 112, 112, 289, 1, 1, 33),
    },
    "powerlaw": {
        "Basic": (9.983705171271296, 4108, 4110, 11859, 0, 4, 1728),
        "PrunedDP": (9.983705171271296, 2042, 2042, 1317, 0, 4, 702),
        "PrunedDP+": (9.983705171271296, 397, 447, 2486, 0, 3, 170),
        "PrunedDP++": (9.983705171271296, 60, 86, 810, 0, 3, 30),
        "one-label only": (9.983705171271296, 397, 447, 2486, 0, 3, 170),
        "tour1 only": (9.983705171271296, 83, 121, 1048, 0, 3, 40),
        "tour2 only": (9.983705171271296, 62, 88, 852, 0, 3, 30),
    },
    "dblp": {
        "Basic": (7.0, 3332, 3332, 8535, 0, 4, 1560),
        "PrunedDP": (7.0, 1595, 1595, 896, 0, 4, 669),
        "PrunedDP+": (7.0, 333, 337, 1506, 0, 2, 189),
        "PrunedDP++": (7.0, 62, 64, 385, 0, 1, 36),
        "one-label only": (7.0, 333, 337, 1506, 0, 2, 189),
        "tour1 only": (7.0, 96, 99, 579, 0, 2, 58),
        "tour2 only": (7.0, 70, 72, 447, 0, 1, 41),
    },
}

# The optimal tree's edge pairs per instance; every configuration
# returns this tree.
GOLDEN_TREES = {
    "gen48": (
        (2, 25), (2, 43), (7, 8), (7, 9), (8, 32), (8, 43), (9, 33),
        (25, 27), (27, 41), (31, 42), (31, 43), (36, 41),
    ),
    "gen275": ((1, 48), (5, 47), (28, 47), (28, 48), (48, 55)),
    "powerlaw": ((0, 1), (0, 31), (0, 338), (1, 2), (2, 26), (2, 185)),
    "dblp": ((5, 81), (5, 96), (5, 285), (96, 223), (158, 223)),
}


class TestOneLabelPretest:
    """``update`` prunes on ``cost + π₁`` before the bound memo."""

    def test_pruned_successors_skip_the_full_bound(self):
        graph, labels = BOUND_INSTANCES["powerlaw"]()
        result, bounds = staged_solve(PrunedDPPlusPlusSolver(graph, labels))
        assert result.optimal
        pruned = result.stats.states_pruned
        assert pruned == 810
        # Without the pre-test nearly every pruned successor cost one
        # full evaluation of max(π₁, π_t1, π_t2) (742 here).
        assert bounds.evaluations <= pruned // 2

    @pytest.mark.parametrize("config", sorted(SEARCH_CONFIGS))
    @pytest.mark.parametrize("instance", sorted(GOLDEN_COUNTERS))
    def test_search_decisions_unchanged(self, instance, config):
        graph, labels = BOUND_INSTANCES[instance]()
        solver_cls, flags = SEARCH_CONFIGS[config]
        result = solver_cls(graph, labels, **flags).solve()
        weight, *counters = GOLDEN_COUNTERS[instance][config]
        assert result.optimal
        assert result.weight == pytest.approx(weight, rel=1e-12)
        stats = result.stats
        assert [
            stats.states_popped,
            stats.states_pushed,
            stats.states_pruned,
            stats.reopened,
            stats.incumbent_improvements,
            stats.feasible_built,
        ] == counters
        assert (
            tuple((u, v) for u, v, _ in result.tree.edges)
            == GOLDEN_TREES[instance]
        )


class TestKeptCoreSkip:
    """Unions whose kept core reaches the incumbent skip the refinement."""

    @pytest.mark.parametrize("config", ["Basic", "PrunedDP++"])
    @pytest.mark.parametrize("instance", ["dblp", "powerlaw"])
    def test_most_unions_skip_the_refinement(
        self, monkeypatch, instance, config
    ):
        refinements = []
        refine = engine_module.steiner_tree_from_edges

        def counting(edges, anchor):
            refinements.append(anchor)
            return refine(edges, anchor=anchor)

        monkeypatch.setattr(engine_module, "steiner_tree_from_edges", counting)
        graph, labels = BOUND_INSTANCES[instance]()
        solver_cls, flags = SEARCH_CONFIGS[config]
        result = solver_cls(graph, labels, **flags).solve()
        assert result.optimal
        # Refining every distinct union made these equal.
        assert len(refinements) <= result.stats.feasible_built // 5

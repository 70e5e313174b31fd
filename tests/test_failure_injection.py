"""Failure injection: hostile callbacks, hostile data, adversarial inputs.

A production library's contract under misuse matters as much as its
happy path: exceptions raised by *user callbacks* must propagate (not
be swallowed into wrong answers), hostile strings must not corrupt
renderings, and adversarial numeric inputs must be rejected at the
boundary rather than produce garbage later.  The final class injects
faults *underneath the executor* — solvers that hang or crash
mid-pop — and checks that the resilience layer turns each into a
clean, attributed outcome.
"""

from __future__ import annotations

import time

import pytest

import repro.core.algorithms as algorithms_mod
import repro.core.solver as solver_mod
from repro import Graph, GraphError, QueryError, SteinerTree, solve_gst
from repro.core import BasicSolver, GSTQuery, PrunedDPPlusPlusSolver, QueryContext
from repro.core.budget import CancellationToken
from repro.core.engine import SearchEngine
from repro.graph import generators
from repro.service import GraphIndex, QueryExecutor, RetryPolicy
from repro.verify import certify_result


class CallbackBoom(Exception):
    pass


class TestHostileCallbacks:
    def test_on_progress_exception_propagates(self):
        g = generators.random_graph(
            20, 40, num_query_labels=3, label_frequency=3, seed=1
        )

        def boom(point):
            raise CallbackBoom("user callback failed")

        with pytest.raises(CallbackBoom):
            BasicSolver(g, ["q0", "q1", "q2"], on_progress=boom).solve()

    def test_on_feasible_exception_propagates(self):
        g = generators.random_graph(
            20, 40, num_query_labels=3, label_frequency=3, seed=2
        )

        def boom(tree):
            raise CallbackBoom()

        with pytest.raises(CallbackBoom):
            BasicSolver(g, ["q0", "q1", "q2"], on_feasible=boom).solve()

    def test_callback_raising_late_leaves_no_partial_corruption(self):
        """A callback that fails after N events: re-solving cleanly
        afterwards must give the right answer (no shared-state leak)."""
        g = generators.random_graph(
            25, 55, num_query_labels=3, label_frequency=3, seed=3
        )
        labels = ["q0", "q1", "q2"]
        clean = PrunedDPPlusPlusSolver(g, labels).solve()

        calls = {"n": 0}

        def flaky(point):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise CallbackBoom()

        with pytest.raises(CallbackBoom):
            PrunedDPPlusPlusSolver(g, labels, on_progress=flaky).solve()
        again = PrunedDPPlusPlusSolver(g, labels).solve()
        assert again.weight == pytest.approx(clean.weight)


class TestHostileData:
    def test_hostile_label_strings(self):
        """Labels containing separators/escapes flow through solve,
        render, and dot export without corruption."""
        hostile = ["a\tb", "c\nd", "<svg>", "q' OR 1=1"]
        g = Graph()
        nodes = [g.add_node(labels=[label]) for label in hostile]
        for u, v in zip(nodes, nodes[1:]):
            g.add_edge(u, v, 1.0)
        result = solve_gst(g, hostile)
        assert result.optimal
        result.tree.validate(g, hostile)
        # Renderings must not crash and DOT/SVG must stay parseable.
        result.tree.render(g)
        result.tree.to_dot(g)
        from xml.etree import ElementTree

        from repro.viz import tree_to_svg

        ElementTree.fromstring(tree_to_svg(result.tree, g))

    def test_non_string_hashable_labels(self):
        g = Graph()
        a = g.add_node(labels=[(1, "tuple"), frozenset({"f"})])
        b = g.add_node(labels=[42])
        g.add_edge(a, b, 1.0)
        result = solve_gst(g, [(1, "tuple"), 42])
        assert result.weight == pytest.approx(1.0)

    def test_extreme_weights(self):
        g = Graph()
        a = g.add_node(labels=["x"])
        b = g.add_node(labels=["y"])
        c = g.add_node()
        g.add_edge(a, c, 1e-12)
        g.add_edge(c, b, 1e12)
        result = solve_gst(g, ["x", "y"])
        assert result.optimal
        assert result.weight == pytest.approx(1e12 + 1e-12)


class TestBoundaryRejection:
    def test_unhashable_label_rejected_at_construction(self):
        g = Graph()
        with pytest.raises(TypeError):
            g.add_node(labels=[["unhashable", "list"]])

    def test_query_with_unhashable_rejected(self):
        g = Graph()
        g.add_node(labels=["x"])
        with pytest.raises(TypeError):
            solve_gst(g, [{"a": 1}])

    def test_empty_graph_query(self):
        with pytest.raises(QueryError):
            solve_gst(Graph(), ["x"])

    def test_steiner_tree_from_corrupt_edges(self):
        g = Graph()
        g.add_node()
        g.add_node()
        g.add_edge(0, 1, 1.0)
        with pytest.raises(GraphError):
            SteinerTree([(0, 5, 1.0)]).validate(g)


class TestExecutorFaultInjection:
    """Faults injected underneath the executor, one per mechanism."""

    @pytest.fixture
    def index(self):
        g = generators.random_graph(
            60, 130, num_query_labels=6, label_frequency=4, seed=33
        )
        return GraphIndex(g)

    def test_hanging_solver_caught_by_cancellation(self, index, monkeypatch):
        """A solver that wedges forever: cancellation is the only way
        out, and it must produce a clean "cancelled" outcome.  The
        search popped nothing, so the answer is the tree the cold label
        Dijkstras found before it wedged."""
        real = solver_mod.ALGORITHMS["pruneddp++"]

        class Hanging(real):
            def run_search(self, context, prepared=None):
                while not self.budget.cancelled():
                    time.sleep(0.005)
                # The wedge noticed the token; the engine confirms it.
                return super().run_search(context, prepared)

        monkeypatch.setitem(solver_mod.ALGORITHMS, "pruneddp++", Hanging)
        token = CancellationToken()
        with QueryExecutor(index, max_workers=1) as executor:
            future = executor.submit(["q0", "q1"], cancel_token=token)
            time.sleep(0.05)
            assert not future.done()  # genuinely wedged
            token.cancel("watchdog timeout")
            outcome = future.result(timeout=5.0)
        assert outcome.trace.status == "cancelled"
        assert outcome.trace.cancelled
        assert outcome.error is None
        result = outcome.result
        assert result.stats.states_popped == 0
        early = QueryContext.build(index.graph, GSTQuery(["q0", "q1"])).early
        assert result.tree == early.tree
        certify_result(index.graph, result).raise_if_failed()

    def test_raise_on_nth_pop_caught_by_retry_ladder(self, monkeypatch):
        """An engine that crashes at its first limit check — hundreds
        of pops into a real search — is rescued one rung down."""
        g = generators.random_graph(
            200, 500, num_query_labels=6, label_frequency=5, seed=11
        )
        crashes = {"left": 1}

        class CrashOnNthPop(SearchEngine):
            def _limits_hit(self):
                if crashes["left"] > 0:
                    crashes["left"] -= 1
                    raise RuntimeError(
                        f"injected crash at pop {self.stats.states_popped}"
                    )
                return super()._limits_hit()

        monkeypatch.setattr(algorithms_mod, "SearchEngine", CrashOnNthPop)
        with QueryExecutor(
            GraphIndex(g), retry_policy=RetryPolicy(max_retries=2)
        ) as executor:
            outcome = executor.run_batch([[f"q{i}" for i in range(6)]])[0]
        assert outcome.ok
        assert outcome.trace.requested_algorithm == "pruneddp++"
        assert outcome.algorithm == "pruneddp"
        assert outcome.trace.degraded
        assert outcome.trace.attempts == 2
        assert "injected crash at pop" in outcome.trace.retries[0]["error"]


class TestDirectedSerialization:
    def test_directed_result_to_dict_round_trips(self):
        import json

        from repro.core import DirectedGSTSolver
        from repro.graph.digraph import DiGraph

        g = DiGraph()
        a = g.add_node(labels=["x"])
        b = g.add_node(labels=["y"])
        g.add_edge(a, b, 2.0)
        result = DirectedGSTSolver(g, ["x", "y"]).solve()
        record = json.loads(json.dumps(result.to_dict()))
        assert record["weight"] == pytest.approx(2.0)
        assert record["tree"]["edges"] == [[a, b, 2.0]]

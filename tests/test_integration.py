"""End-to-end integration flows across subsystems.

Each test chains several components the way a downstream user would,
asserting consistency at every seam: generation → persistence →
indexed solving → answer rendering → serialization; relational
modelling → both answer models; harness → reporting → plotting.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    Budget,
    PrunedDPPlusPlusSolver,
    SteinerTree,
    solve_gst,
    top_r_trees,
)
from repro.apps import Database, ExpertNetwork, KeywordSearchEngine
from repro.bench import make_workload, run_suite
from repro.bench.plotting import progressive_chart
from repro.bench.reporting import suite_to_dict
from repro.core import exact_top_r_trees, steiner_tree
from repro.graph import generators
from repro.graph.io import load_graph, save_graph
from repro.service import GraphIndex
from repro.viz import trace_to_svg, tree_to_svg


class TestGenerateStoreSolveRender:
    def test_full_pipeline(self, tmp_path):
        # 1. Generate and persist.
        g = generators.powerlaw(
            200, num_query_labels=6, label_frequency=5, seed=71
        )
        stem = str(tmp_path / "net")
        save_graph(g, stem)
        # 2. Reload and index.
        loaded = load_graph(stem)
        index = GraphIndex(loaded)
        # 3. Solve two overlapping queries.
        first = index.solve(["q0", "q1", "q2"])
        second = index.solve(["q1", "q2", "q3"])
        assert first.optimal and second.optimal
        assert index.cache.hits >= 2  # q1, q2 reused
        # 4. Answers validate against the *loaded* graph.
        first.tree.validate(loaded, ["q0", "q1", "q2"])
        # 5. Render every way.
        ascii_out = first.tree.render(loaded)
        assert ascii_out.startswith("*")
        svg = tree_to_svg(first.tree, loaded)
        assert svg.startswith("<svg")
        dot = first.tree.to_dot(loaded)
        assert dot.startswith("graph")
        # 6. Serialize and round-trip.
        record = json.loads(json.dumps(first.to_dict()))
        assert record["weight"] == pytest.approx(first.weight)
        rebuilt = SteinerTree(
            [(u, v, w) for u, v, w in record["tree"]["edges"]],
            nodes=record["tree"]["nodes"],
        )
        assert rebuilt.weight == pytest.approx(first.weight)
        rebuilt.validate(loaded, ["q0", "q1", "q2"])


class TestRelationalBothModels:
    def build_db(self) -> Database:
        db = Database()
        people = db.create_relation("person", ["name"])
        projects = db.create_relation("project", ["title"])
        people.insert("ana", name="Ana Analyst")
        people.insert("ben", name="Ben Builder")
        projects.insert("etl", title="Streaming ETL Pipeline")
        projects.insert("viz", title="Dashboard Visualization")
        db.add_reference("person", "ana", "project", "etl")
        db.add_reference("person", "ben", "project", "viz")
        db.add_reference("project", "viz", "project", "etl", strength=2.0)
        return db

    def test_undirected_vs_directed_consistency(self):
        db = self.build_db()
        undirected = KeywordSearchEngine(db)
        directed = KeywordSearchEngine(db, directed=True)
        query = ["streaming", "dashboard"]
        u = undirected.search(query)
        d = directed.search(query)
        # Directed answers are also feasible undirected answers, so the
        # undirected optimum never exceeds the directed one.
        assert u.weight <= d.weight + 1e-9
        assert u.optimal and d.optimal
        # Both renderings mention both projects.
        for answer, engine in ((u, undirected), (d, directed)):
            out = answer.render(engine.graph)
            assert "etl" in out and "viz" in out

    def test_team_and_steiner_agree_on_reduction(self):
        """find_team == steiner_tree when every skill is unique."""
        net = ExpertNetwork()
        for name, skills in (
            ("a", ["s1"]), ("b", ["s2"]), ("c", []), ("d", ["s3"]),
        ):
            net.add_expert(name, skills)
        net.add_collaboration("a", "c", 1.0)
        net.add_collaboration("b", "c", 2.0)
        net.add_collaboration("c", "d", 3.0)
        team = net.find_team(["s1", "s2", "s3"])
        terminals = [net.graph.node_by_name(x) for x in ("a", "b", "d")]
        st = steiner_tree(net.graph, terminals)
        assert team.communication_cost == pytest.approx(st.weight)


class TestHarnessToReportToChart:
    def test_suite_record_chart_chain(self):
        graph, queries = make_workload(
            "roadusa", scale="tiny", knum=3, kwf=4, num_queries=2, seed=72
        )
        suite = run_suite(graph, list(queries), ("Basic", "PrunedDP++"))
        record = suite_to_dict(suite, metadata={"purpose": "integration"})
        json.dumps(record)
        # Rebuild a chart from the serialized trace.
        trace = record["algorithms"]["PrunedDP++"]["runs"][0]["trace"]
        tuples = [
            (t, float("inf") if ub == "inf" else ub, lb)
            for t, ub, lb in trace
        ]
        chart = progressive_chart({"PrunedDP++": tuples})
        assert "LB" in chart
        svg = trace_to_svg({"PrunedDP++": tuples})
        assert svg.startswith("<svg")


class TestTopRConsistencyChain:
    def test_all_topr_paths_agree_on_rank_one(self):
        g = generators.dblp_like(
            num_papers=100, num_authors=60,
            num_query_labels=8, label_frequency=4, seed=73,
        )
        labels = ["q0", "q1", "q2"]
        direct = solve_gst(g, labels).weight
        harvest = top_r_trees(g, labels, 3)[0].weight
        exact = exact_top_r_trees(g, labels, 3)[0].weight
        assert direct == pytest.approx(harvest)
        assert direct == pytest.approx(exact)

    def test_epsilon_then_exact_refinement(self):
        """Anytime answer first, exact refinement after — the paper's
        interactive usage pattern."""
        g = generators.imdb_like(
            num_movies=150, num_people=100,
            num_query_labels=8, label_frequency=5, seed=74,
        )
        labels = ["q0", "q1", "q2", "q3"]
        quick = PrunedDPPlusPlusSolver(g, labels, budget=Budget(epsilon=1.0)).solve()
        exact = PrunedDPPlusPlusSolver(g, labels).solve()
        assert quick.weight <= 2.0 * exact.weight + 1e-9
        assert exact.weight <= quick.weight + 1e-9
        assert quick.stats.states_popped <= exact.stats.states_popped

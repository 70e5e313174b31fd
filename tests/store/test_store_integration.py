"""End-to-end store integration: build → attach → serve → persist.

Covers the wiring the tentpole promises: ``GraphIndex.attach_store`` /
``GraphIndex.open`` warm-load the label cache, the executor consults
the result cache *before* its resilience pipeline, traces carry the
``store_hit``/``warm_labels``/``result_cache`` fields, answers persist
across processes (simulated by fresh indexes), corrupt stores fail
closed, and the CLI round-trips ``precompute`` → ``solve/batch
--store``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import Budget, GraphIndex, QueryExecutor
from repro.errors import (
    StoreCorruptError,
    StoreError,
    StoreFingerprintError,
)
from repro.graph import generators
from repro.graph.io import save_graph
from repro.service.telemetry import STAGES
from repro.store import PrecomputeStore, build_store
from repro.store.builder import DISTANCES_NAME, select_labels


def make_graph(seed: int = 11):
    return generators.random_graph(
        40, 80, num_query_labels=6, label_frequency=3, seed=seed
    )


@pytest.fixture
def graph():
    return make_graph()


@pytest.fixture
def store_dir(graph, tmp_path):
    path = str(tmp_path / "store")
    build_store(graph, path, top_k=4)
    return path


class TestBuilder:
    def test_build_report(self, graph, tmp_path):
        report = build_store(graph, str(tmp_path / "s"), top_k=3)
        assert len(report.labels) == 3
        assert report.bytes_written > 0
        assert "3 label tables" in report.summary()

    def test_select_labels_by_frequency(self, graph):
        chosen = select_labels(graph, top_k=2)
        frequencies = sorted(
            (graph.label_frequency(l) for l in graph.all_labels()),
            reverse=True,
        )
        assert [graph.label_frequency(l) for l in chosen] == frequencies[:2]

    def test_select_labels_workload_heat_wins(self, graph):
        workload = [["q5", "q4"], ["q5"], ["q5", "q3"]]
        chosen = select_labels(graph, top_k=2, workload=workload)
        assert str(chosen[0]) == "q5"

    def test_explicit_labels_override(self, graph, tmp_path):
        report = build_store(
            graph, str(tmp_path / "s"), labels=["q1", "q2"]
        )
        store = PrecomputeStore.open(str(tmp_path / "s"), graph)
        assert sorted(store.labels) == ["q1", "q2"]
        assert sorted(report.labels) == ["q1", "q2"]

    def test_unknown_label_rejected(self, graph, tmp_path):
        with pytest.raises(ValueError, match="ghost"):
            build_store(graph, str(tmp_path / "s"), labels=["ghost"])


class TestStoreTables:
    def test_tables_match_live_dijkstra(self, graph, store_dir):
        from repro.graph.shortest_paths import multi_source_dijkstra

        store = PrecomputeStore.open(store_dir, graph)
        tables = store.load_tables()
        assert tables
        for label, (dist, parent) in tables.items():
            fresh_dist, _ = multi_source_dijkstra(
                graph, list(graph.nodes_with_label(label))
            )
            assert dist == fresh_dist

    def test_fingerprint_mismatch(self, store_dir):
        other = make_graph(seed=99)
        with pytest.raises(StoreFingerprintError):
            PrecomputeStore.open(store_dir, other)

    def test_truncated_distances_fail_closed(self, graph, store_dir):
        path = os.path.join(store_dir, DISTANCES_NAME)
        data = Path(path).read_bytes()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        store = PrecomputeStore.open(store_dir, graph)
        with pytest.raises(StoreCorruptError):
            store.load_tables()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(StoreCorruptError, match="not a directory"):
            PrecomputeStore.open(str(tmp_path / "nope"))


class TestGraphIndexAttachment:
    def test_attach_warms_label_cache(self, graph, store_dir):
        index = GraphIndex(graph)
        warmed = index.attach_store(store_dir)
        assert warmed == 4
        assert index.warm_loaded == 4
        counters = index.cache_info()
        assert counters["warm_loads"] == 4
        assert counters["warm_labels"] == 4
        assert counters["store"]["path"] == store_dir
        assert counters["result_cache"]["entries"] == 0

    def test_warm_label_skips_dijkstra(self, graph, store_dir):
        index = GraphIndex(graph)
        index.attach_store(store_dir)
        hot = index.store.labels[0]
        cold = next(
            str(l) for l in graph.all_labels()
            if str(l) not in index.store.labels
        )
        outcome = index.execute([hot, cold])
        assert outcome.ok
        assert outcome.trace.warm_labels == 1
        assert outcome.trace.store_hit
        # The warmed label was a cache hit; only the cold one ran live.
        assert index.cache.hits == 1
        assert index.cache.misses == 1
        assert index.cache.is_warm(hot) and not index.cache.is_warm(cold)

    def test_attach_rejects_wrong_graph(self, store_dir):
        index = GraphIndex(make_graph(seed=99))
        with pytest.raises(StoreFingerprintError):
            index.attach_store(store_dir)
        assert index.store is None

    def test_open_reloads_graph_from_stem(self, graph, tmp_path):
        stem = str(tmp_path / "g")
        save_graph(graph, stem)
        reloaded_graph = __import__(
            "repro.graph.io", fromlist=["load_graph"]
        ).load_graph(stem)
        path = str(tmp_path / "store")
        build_store(reloaded_graph, path, top_k=3, graph_stem=stem)
        index = GraphIndex.open(path)
        assert index.store is not None
        assert index.warm_loaded == 3
        outcome = index.execute(["q0", "q1"])
        assert outcome.ok

    def test_open_without_stem_fails_closed(self, graph, store_dir):
        with pytest.raises(StoreError, match="graph_stem"):
            GraphIndex.open(store_dir)
        # ... but works when the graph is passed explicitly.
        index = GraphIndex.open(store_dir, graph)
        assert index.warm_loaded == 4


class TestResultCacheWiring:
    def test_execute_writes_back_and_hits(self, graph, store_dir):
        index = GraphIndex(graph)
        index.attach_store(store_dir)
        first = index.execute(["q0", "q1"])
        assert first.ok
        assert first.trace.result_cache == "miss"
        second = index.execute(["q0", "q1"])
        assert second.ok
        assert second.trace.result_cache == "hit"
        assert second.trace.store_hit
        assert second.result.weight == first.result.weight
        assert second.trace.stats is None  # served, not searched

    def test_epsilon_rule_through_index(self, graph, store_dir):
        index = GraphIndex(graph)
        index.attach_store(store_dir)
        index.execute(["q0", "q1"])  # exact answer cached
        hit = index.execute(["q0", "q1"], budget=Budget(epsilon=0.5))
        assert hit.trace.result_cache == "hit"  # exact serves loose

    def test_persistence_across_indexes(self, graph, store_dir):
        index = GraphIndex(graph)
        index.attach_store(store_dir)
        first = index.execute(["q1", "q2"])
        assert index.save_results() == 1

        fresh = GraphIndex(graph)
        fresh.attach_store(store_dir)
        served = fresh.execute(["q1", "q2"])
        assert served.trace.result_cache == "hit"
        assert served.result.weight == first.result.weight

    def test_executor_consults_before_admission(self, graph, store_dir):
        """A cached answer must bypass an admission policy that would
        reject the query if it actually ran."""
        from repro.service import AdmissionPolicy

        index = GraphIndex(graph)
        index.attach_store(store_dir)
        index.execute(["q0", "q1", "q2"])  # populate
        index.save_results()

        fresh = GraphIndex(graph)
        fresh.attach_store(store_dir)
        with QueryExecutor(
            fresh,
            max_workers=1,
            admission=AdmissionPolicy(max_estimated_states=1),  # rejects all
        ) as executor:
            outcomes = executor.run_batch([["q0", "q1", "q2"], ["q3", "q4"]])
        cached, cold = outcomes
        assert cached.ok and cached.trace.result_cache == "hit"
        assert cold.trace.status == "rejected"  # uncached ones still gated

    def test_trace_json_round_trip(self, graph, store_dir):
        index = GraphIndex(graph)
        index.attach_store(store_dir)
        index.execute(["q0", "q1"])
        trace = index.execute(["q0", "q1"]).trace
        record = json.loads(trace.to_json())
        assert record["store_hit"] is True
        assert record["result_cache"] == "hit"
        assert "warm_labels" in record

    def test_bounds_cache_in_trace(self, graph):
        """The trace fields ``perf/layers.py`` reads, for one engine query.

        The serving benchmark computes its per-layer metrics from these
        keys; renaming one would silently break it.
        """
        index = GraphIndex(graph)
        outcome = index.execute(
            ["q0", "q1", "q2"], algorithm="pruneddp++", query_id=7
        )
        record = outcome.trace.to_dict()
        assert record["query_id"] == 7
        assert record["status"] == "ok"
        assert record["wall_seconds"] > 0.0
        assert set(record["stages"]) == set(STAGES)
        assert record["result_cache"] is None
        assert record["cache_hits"] + record["cache_misses"] == 3
        for key in (
            "states_popped",
            "states_pushed",
            "states_pruned",
            "feasible_built",
            "incumbent_improvements",
            "peak_live_states",
        ):
            assert isinstance(record["stats"][key], int), key
        assert isinstance(record["bounds_cache"]["hits"], int)
        assert isinstance(record["bounds_cache"]["misses"], int)


class TestCLI:
    @pytest.fixture
    def stem(self, graph, tmp_path):
        stem = str(tmp_path / "g")
        save_graph(graph, stem)
        return stem

    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("q0,q1\nq2,q3\n", encoding="utf-8")
        return str(path)

    @staticmethod
    def _precompute_solve_roundtrip(stem, query_file, tmp_path, capsys, limits):
        from repro.cli import main

        out = str(tmp_path / "store")
        code = main([
            "precompute", "--graph", stem, "--out", out,
            "--queries", query_file, "--solve", "--top-k", "4", *limits,
        ])
        assert code == 0
        assert "pre-solved 2/2" in capsys.readouterr().out

        traces = str(tmp_path / "traces.jsonl")
        code = main([
            "batch", "--graph", stem, "--queries", query_file,
            "--store", out, "--traces", traces, "--quiet", *limits,
        ])
        assert code == 0
        assert "2 result-cache hits" in capsys.readouterr().out
        with open(traces, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert all(r["result_cache"] == "hit" for r in records)
        assert all(r["store_hit"] for r in records)

    def test_precompute_solve_roundtrip(
        self, stem, query_file, tmp_path, capsys
    ):
        self._precompute_solve_roundtrip(stem, query_file, tmp_path, capsys, [])

    def test_precompute_solve_roundtrip_dpbf_epsilon(
        self, stem, query_file, tmp_path, capsys
    ):
        """DPBF takes an epsilon in its budget like every solver (and
        ignores it: its answers are exact)."""
        self._precompute_solve_roundtrip(
            stem, query_file, tmp_path, capsys,
            ["--algorithm", "dpbf", "--epsilon", "0.3"],
        )

    def test_solve_store_matches_cold(self, stem, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "store")
        assert main(["precompute", "--graph", stem, "--out", out]) == 0
        capsys.readouterr()
        main(["solve", "--graph", stem, "--labels", "q0,q1", "--quiet"])
        cold = float(capsys.readouterr().out.strip())
        main([
            "solve", "--graph", stem, "--labels", "q0,q1",
            "--store", out, "--quiet",
        ])
        warm = float(capsys.readouterr().out.strip())
        assert warm == pytest.approx(cold)

    def test_corrupt_store_falls_back_cold(self, stem, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "store")
        assert main(["precompute", "--graph", stem, "--out", out]) == 0
        distances = os.path.join(out, DISTANCES_NAME)
        data = Path(distances).read_bytes()
        with open(distances, "wb") as handle:
            handle.write(data[: len(data) // 3])
        capsys.readouterr()
        code = main([
            "solve", "--graph", stem, "--labels", "q0,q1",
            "--store", out, "--quiet",
        ])
        captured = capsys.readouterr()
        assert code == 0  # still answered, cold
        assert "unusable" in captured.err
        float(captured.out.strip())

    def test_precompute_solve_requires_queries(self, stem, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "precompute", "--graph", stem,
            "--out", str(tmp_path / "s"), "--solve",
        ])
        assert code == 2
        assert "--solve requires --queries" in capsys.readouterr().err

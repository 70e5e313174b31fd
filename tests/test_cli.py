"""CLI tests (driving main() in-process)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.graph import generators
from repro.graph.io import save_graph


@pytest.fixture
def stored_graph(tmp_path):
    graph = generators.random_graph(
        30, 60, num_query_labels=4, label_frequency=3, seed=5
    )
    stem = str(tmp_path / "g")
    save_graph(graph, stem)
    return stem, graph


class TestSolve:
    def test_solve_prints_result(self, stored_graph, capsys):
        stem, _ = stored_graph
        code = main(["solve", "--graph", stem, "--labels", "q0,q1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "weight" in out
        assert "optimal   : True" in out

    def test_solve_quiet(self, stored_graph, capsys):
        stem, graph = stored_graph
        code = main(
            ["solve", "--graph", stem, "--labels", "q0,q1", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        float(out)  # a bare number

    def test_solve_matches_library(self, stored_graph, capsys):
        from repro import solve_gst

        stem, graph = stored_graph
        main(["solve", "--graph", stem, "--labels", "q0,q1,q2", "--quiet"])
        cli_weight = float(capsys.readouterr().out.strip())
        # The stored graph stringifies labels; query by the same strings.
        lib_weight = solve_gst(graph, ["q0", "q1", "q2"]).weight
        assert cli_weight == pytest.approx(lib_weight)

    def test_solve_algorithms(self, stored_graph, capsys):
        stem, _ = stored_graph
        weights = set()
        for algorithm in ("basic", "pruneddp", "pruneddp++", "dpbf"):
            main([
                "solve", "--graph", stem, "--labels", "q0,q1",
                "--algorithm", algorithm, "--quiet",
            ])
            weights.add(capsys.readouterr().out.strip())
        assert len(weights) == 1

    def test_solve_top_r(self, stored_graph, capsys):
        stem, _ = stored_graph
        code = main(
            ["solve", "--graph", stem, "--labels", "q0,q1", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# answer 1" in out

    def test_solve_exact_top_r(self, stored_graph, capsys):
        stem, _ = stored_graph
        code = main([
            "solve", "--graph", stem, "--labels", "q0,q1",
            "--top", "2", "--exact-top",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# answer 1" in out

    def test_solve_json(self, stored_graph, capsys):
        import json

        stem, _ = stored_graph
        code = main(
            ["solve", "--graph", stem, "--labels", "q0,q1", "--json"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["optimal"] is True
        assert record["tree"]["edges"] is not None

    def test_solve_dot(self, stored_graph, capsys):
        stem, _ = stored_graph
        code = main(
            ["solve", "--graph", stem, "--labels", "q0,q1", "--dot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("graph gst {")
        assert "--" in out

    def test_solve_chart(self, stored_graph, capsys):
        stem, _ = stored_graph
        code = main(
            ["solve", "--graph", stem, "--labels", "q0,q1,q2", "--chart"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LB" in out

    def test_solve_progress_events(self, stored_graph, capsys):
        stem, _ = stored_graph
        main(["solve", "--graph", stem, "--labels", "q0,q1", "--progress"])
        err = capsys.readouterr().err
        assert "UB=" in err

    def test_solve_infeasible_is_clean_error(self, stored_graph, capsys):
        stem, _ = stored_graph
        code = main(["solve", "--graph", stem, "--labels", "q0,ghost"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_graph_file(self, tmp_path, capsys):
        code = main(
            ["solve", "--graph", str(tmp_path / "nope"), "--labels", "a"]
        )
        assert code == 2


class TestGenerate:
    @pytest.mark.parametrize("kind", ["dblp", "imdb", "powerlaw", "road", "random"])
    def test_generate_each_kind(self, kind, tmp_path, capsys):
        stem = str(tmp_path / kind)
        code = main([
            "generate", "--kind", kind, "--out", stem, "--size", "60",
            "--query-labels", "4", "--label-frequency", "3",
        ])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        # Round trip + solvable.
        from repro import solve_gst
        from repro.graph.io import load_graph

        graph = load_graph(stem)
        result = solve_gst(graph, ["q0", "q1"])
        assert result.optimal


class TestInfo:
    def test_info(self, stored_graph, capsys):
        stem, graph = stored_graph
        code = main(["info", "--graph", stem])
        assert code == 0
        out = capsys.readouterr().out
        assert f"nodes        : {graph.num_nodes}" in out
        assert "max degree" in out


class TestBench:
    def test_bench_fig10_tiny(self, capsys):
        code = main([
            "bench", "--experiment", "fig10",
            "--dataset", "dblp", "--scale", "tiny",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "progressive bounds" in out

    def test_bench_table2_tiny(self, capsys):
        code = main([
            "bench", "--experiment", "table2",
            "--dataset", "dblp", "--scale", "tiny",
        ])
        assert code == 0
        assert "BANKS-II" in capsys.readouterr().out


class TestBatch:
    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            "# comment lines and blanks are skipped\n"
            "\n"
            "q0,q1\n"
            "q1, q2 ,q3\n"
            "q0,ghost\n",
            encoding="utf-8",
        )
        return str(path)

    def test_batch_mixed_outcomes(self, stored_graph, query_file, capsys):
        stem, _ = stored_graph
        code = main(["batch", "--graph", stem, "--queries", query_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 queries (2 ok, 1 failed)" in out
        assert "infeasible" in out
        assert "q/s" in out

    def test_batch_quiet_prints_only_summary(
        self, stored_graph, query_file, capsys
    ):
        stem, _ = stored_graph
        code = main(
            ["batch", "--graph", stem, "--queries", query_file, "--quiet"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("batch:")

    def test_batch_writes_jsonl_traces(
        self, stored_graph, query_file, tmp_path, capsys
    ):
        import json

        stem, graph = stored_graph
        traces = str(tmp_path / "traces.jsonl")
        code = main([
            "batch", "--graph", stem, "--queries", query_file,
            "--traces", traces, "--max-workers", "2",
        ])
        assert code == 0
        with open(traces, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        # The sink streams in completion order; all queries must appear.
        assert sorted(record["query_id"] for record in records) == [0, 1, 2]
        statuses = {record["query_id"]: record["status"] for record in records}
        assert statuses[0] == "ok" and statuses[2] == "infeasible"
        capsys.readouterr()

    def test_batch_matches_solve(self, stored_graph, tmp_path, capsys):
        from repro import solve_gst

        stem, graph = stored_graph
        path = tmp_path / "one.txt"
        path.write_text("q0,q1\n", encoding="utf-8")
        code = main(["batch", "--graph", stem, "--queries", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        expected = solve_gst(graph, ["q0", "q1"]).weight
        assert f"weight={expected:g}" in out

    def test_batch_all_failed_exit_code(self, stored_graph, tmp_path, capsys):
        stem, _ = stored_graph
        path = tmp_path / "bad.txt"
        path.write_text("ghost,phantom\n", encoding="utf-8")
        code = main(["batch", "--graph", stem, "--queries", str(path)])
        assert code == 2
        capsys.readouterr()

    def test_batch_empty_query_file_is_clean_error(
        self, stored_graph, tmp_path, capsys
    ):
        stem, _ = stored_graph
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n", encoding="utf-8")
        code = main(["batch", "--graph", stem, "--queries", str(path)])
        assert code == 2
        assert "no queries found" in capsys.readouterr().err

    def test_batch_missing_query_file(self, stored_graph, capsys):
        stem, _ = stored_graph
        code = main(["batch", "--graph", stem, "--queries", "/nope/missing"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_invalid_limits_are_clean_errors(
        self, stored_graph, query_file, capsys
    ):
        stem, _ = stored_graph
        for flags in (
            ["--max-workers", "0"],
            ["--epsilon", "-1"],
            ["--deadline", "-1"],
        ):
            code = main(
                ["batch", "--graph", stem, "--queries", query_file, *flags]
            )
            assert code == 2, flags
            assert "error:" in capsys.readouterr().err

    def test_worker_flags_need_workers(
        self, stored_graph, query_file, capsys
    ):
        # Without a fleet there is no worker process to supervise, so
        # the flags would silently do nothing.
        stem, _ = stored_graph
        for flags in (
            ["--max-rss-mb", "1"],
            ["--worker-timeout", "0.001"],
            ["--max-rss-mb", "1", "--worker-timeout", "0.001"],
        ):
            code = main(
                ["batch", "--graph", stem, "--queries", query_file, *flags]
            )
            assert code == 2, flags
            err = capsys.readouterr().err
            assert "error:" in err and "--workers" in err, flags

    def test_batch_reports_fleet_size(self, stored_graph, query_file, capsys):
        stem, _ = stored_graph
        code = main([
            "batch", "--graph", stem, "--queries", query_file,
            "--workers", "1", "--max-workers", "6", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[pruneddp++, 1 fleet workers]" in out
        code = main([
            "batch", "--graph", stem, "--queries", query_file,
            "--max-workers", "3", "--quiet",
        ])
        assert code == 0
        assert "[pruneddp++, 3 thread workers]" in capsys.readouterr().out

    def test_batch_fleet_store_round_trip(
        self, stored_graph, query_file, tmp_path, capsys
    ):
        # Answers solved in fleet workers are persisted to the store,
        # and a second run serves every one from the result cache.
        import json

        stem, _ = stored_graph
        store = str(tmp_path / "store")
        assert main(["precompute", "--graph", stem, "--out", store]) == 0
        capsys.readouterr()
        runs = []
        for run in range(2):
            traces = str(tmp_path / f"run{run}.jsonl")
            code = main([
                "batch", "--graph", stem, "--queries", query_file,
                "--workers", "2", "--store", store, "--traces", traces,
                "--quiet",
            ])
            assert code == 0
            runs.append(capsys.readouterr().out)
        assert "persisted 2 answers" in runs[0]
        assert "store: 2 result-cache hits" in runs[1]
        with open(traces, encoding="utf-8") as fh:
            ok = [
                trace for trace in map(json.loads, fh)
                if trace["status"] == "ok"
            ]
        assert len(ok) == 2
        assert all(trace["result_cache"] == "hit" for trace in ok)

    def test_batch_deadline_zero_skips_everything(
        self, stored_graph, query_file, capsys
    ):
        stem, _ = stored_graph
        code = main([
            "batch", "--graph", stem, "--queries", query_file,
            "--deadline", "0",
        ])
        assert code == 2  # nothing succeeded
        assert "skipped" in capsys.readouterr().out

    def test_batch_admission_rejects_over_ceiling(
        self, stored_graph, query_file, tmp_path, capsys
    ):
        import json

        stem, _ = stored_graph
        traces = str(tmp_path / "traces.jsonl")
        code = main([
            "batch", "--graph", stem, "--queries", query_file,
            "--admission", "1", "--traces", traces,
        ])
        assert code == 2  # nothing was admitted
        with open(traces, encoding="utf-8") as handle:
            records = {r["query_id"]: r for r in map(json.loads, handle)}
        for query_id in (0, 1):  # the feasible queries
            assert records[query_id]["status"] == "rejected"
            assert records[query_id]["admission"]["action"] == "reject"
            assert records[query_id]["attempts"] == 0
        rejected = sum(r["status"] == "rejected" for r in records.values())
        out = capsys.readouterr().out
        assert f"0 retried, 0 degraded, {rejected} rejected" in out

    def test_batch_retries_degrade_down_the_ladder(
        self, stored_graph, tmp_path, capsys, monkeypatch
    ):
        import json

        import repro.core.solver as solver_mod

        real = solver_mod.ALGORITHMS["pruneddp++"]

        class Exploding(real):
            def run_search(self, context, prepared=None):
                raise RuntimeError("injected mid-search crash")

        monkeypatch.setitem(solver_mod.ALGORITHMS, "pruneddp++", Exploding)
        stem, _ = stored_graph
        path = tmp_path / "one.txt"
        path.write_text("q0,q1\n", encoding="utf-8")
        traces = str(tmp_path / "traces.jsonl")
        code = main([
            "batch", "--graph", stem, "--queries", str(path),
            "--retries", "1", "--degrade", "--traces", traces,
        ])
        assert code == 0
        with open(traces, encoding="utf-8") as handle:
            (record,) = map(json.loads, handle)
        assert record["status"] == "ok"
        assert record["attempts"] == 2
        assert record["degraded"] is True
        assert record["requested_algorithm"] == "pruneddp++"
        assert record["algorithm"] == "pruneddp"
        out = capsys.readouterr().out
        assert "degraded->pruneddp" in out
        assert "1 retried, 1 degraded, 0 rejected" in out


class TestVerify:
    def test_verify_agreeing_instance(self, stored_graph, capsys):
        stem, _ = stored_graph
        code = main(["verify", "--graph", stem, "--labels", "q0,q1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tiers agree" in out and "OK" in out
        # 30 nodes is past the brute-force cutoff; the five solvers run.
        assert "dpbf" in out and "pruneddp++" in out
        assert "certified" in out

    def test_verify_quiet_keeps_verdict_only(self, stored_graph, capsys):
        stem, _ = stored_graph
        code = main(
            ["verify", "--graph", stem, "--labels", "q0,q1", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1

    def test_verify_algorithm_subset(self, stored_graph, capsys):
        stem, _ = stored_graph
        code = main([
            "verify", "--graph", stem, "--labels", "q0,q1",
            "--algorithm", "dpbf", "--algorithm", "basic",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dpbf" in out and "pruneddp++" not in out

    def test_verify_infeasible_still_agrees(self, tmp_path, capsys):
        graph = generators.Graph()
        graph.add_node(labels=["a"])
        graph.add_node(labels=["b"])
        stem = str(tmp_path / "islands")
        save_graph(graph, stem)
        code = main(["verify", "--graph", stem, "--labels", "a,b"])
        assert code == 0
        assert "infeasible" in capsys.readouterr().out

    def test_verify_unknown_label_agrees_infeasible(self, stored_graph, capsys):
        # Every tier raises the same typed error for an absent label, so
        # the differential verdict is agreement on infeasibility — not a
        # crash and not a disagreement.
        stem, _ = stored_graph
        code = main(["verify", "--graph", stem, "--labels", "q0,ghost"])
        assert code == 0
        assert "infeasible" in capsys.readouterr().out


class TestFuzz:
    def test_fuzz_small_sweep_clean(self, tmp_path, capsys):
        out_dir = str(tmp_path / "failures")
        code = main([
            "fuzz", "--seed", "0", "--rounds", "5", "--max-nodes", "10",
            "--metamorphic", "5", "--out", out_dir, "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "5 rounds" in out and "OK" in out

    def test_fuzz_reports_progress(self, tmp_path, capsys):
        code = main([
            "fuzz", "--seed", "0", "--rounds", "4", "--max-nodes", "10",
            "--out", str(tmp_path / "failures"),
        ])
        assert code == 0
        assert "fuzz:" in capsys.readouterr().err

    def test_fuzz_rejects_bad_rounds(self, tmp_path, capsys):
        code = main(
            ["fuzz", "--rounds", "0", "--out", str(tmp_path / "failures")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestResume:
    """batch --checkpoint-dir leaves resumable work; resume finishes it."""

    @pytest.fixture
    def hard_graph(self, tmp_path):
        # >1000 engine pops on the 5-label query below: the engine
        # checks limits every 256 pops, so smaller instances prove
        # optimality before --max-states can ever interrupt them.
        graph = generators.random_graph(
            400, 1200, num_query_labels=6, label_frequency=8, seed=7
        )
        stem = str(tmp_path / "hard")
        save_graph(graph, stem)
        return stem

    @pytest.fixture
    def hard_queries(self, tmp_path):
        path = tmp_path / "hard-queries.txt"
        path.write_text("q0,q1,q2,q3,q4\n", encoding="utf-8")
        return str(path)

    def test_interrupted_batch_then_resume(
        self, hard_graph, hard_queries, tmp_path, capsys
    ):
        ckpts = str(tmp_path / "ckpts")
        code = main([
            "batch", "--graph", hard_graph, "--queries", hard_queries,
            "--max-states", "150", "--checkpoint-dir", ckpts,
            "--checkpoint-every", "50", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "durability:" in out and "checkpoints written" in out
        import os

        files = os.listdir(ckpts)
        assert len(files) == 1 and files[0].endswith(".ckpt")

        code = main(["resume", "--graph", hard_graph,
                     "--checkpoint-dir", ckpts])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal" in out
        assert "resume: 1 completed, 0 failed of 1" in out
        # Proven-optimal finishes discard their checkpoints.
        assert os.listdir(ckpts) == []

    def test_resume_single_file_json(
        self, hard_graph, hard_queries, tmp_path, capsys
    ):
        import json
        import os

        ckpts = str(tmp_path / "ckpts")
        main([
            "batch", "--graph", hard_graph, "--queries", hard_queries,
            "--max-states", "150", "--checkpoint-dir", ckpts,
            "--checkpoint-every", "50", "--quiet",
        ])
        capsys.readouterr()
        path = os.path.join(ckpts, os.listdir(ckpts)[0])
        code = main([
            "resume", "--graph", hard_graph, "--checkpoint", path, "--json",
        ])
        assert code == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        record = json.loads(lines[0])
        assert record["optimal"] is True
        assert record["resumed_from"] == path
        assert record["checkpoint"] == path

    def test_resume_corrupt_checkpoint_fails_typed(
        self, hard_graph, hard_queries, tmp_path, capsys
    ):
        import os

        ckpts = str(tmp_path / "ckpts")
        main([
            "batch", "--graph", hard_graph, "--queries", hard_queries,
            "--max-states", "150", "--checkpoint-dir", ckpts,
            "--checkpoint-every", "50", "--quiet",
        ])
        capsys.readouterr()
        path = os.path.join(ckpts, os.listdir(ckpts)[0])
        with open(path, "r+b") as fh:
            fh.seek(-1, 2)
            fh.write(b"\xff")
        code = main(["resume", "--graph", hard_graph, "--checkpoint", path])
        assert code == 2
        captured = capsys.readouterr()
        assert "checksum" in captured.err
        assert "1 failed" in captured.out

    def test_resume_wrong_graph_fails_typed(
        self, hard_graph, hard_queries, stored_graph, tmp_path, capsys
    ):
        import os

        ckpts = str(tmp_path / "ckpts")
        main([
            "batch", "--graph", hard_graph, "--queries", hard_queries,
            "--max-states", "150", "--checkpoint-dir", ckpts,
            "--checkpoint-every", "50", "--quiet",
        ])
        capsys.readouterr()
        other_stem, _ = stored_graph
        path = os.path.join(ckpts, os.listdir(ckpts)[0])
        code = main(["resume", "--graph", other_stem, "--checkpoint", path])
        assert code == 2
        assert "different graph" in capsys.readouterr().err

    def test_resume_empty_dir_is_noop(self, hard_graph, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main([
            "resume", "--graph", hard_graph, "--checkpoint-dir", str(empty),
        ])
        assert code == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_resume_needs_exactly_one_source(self, hard_graph, capsys):
        assert main(["resume", "--graph", hard_graph]) == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_fleet_workers(
        self, hard_graph, hard_queries, tmp_path, capsys
    ):
        ckpts = str(tmp_path / "ckpts")
        code = main([
            "batch", "--graph", hard_graph, "--queries", hard_queries,
            "--workers", "1", "--checkpoint-dir", ckpts,
            "--checkpoint-every", "100", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 ok" in out and "1 fleet workers" in out

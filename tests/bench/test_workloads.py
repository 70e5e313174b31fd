"""Workload generation tests."""

from __future__ import annotations

import pytest

from repro.bench.workloads import QuerySet, generate_queries, make_workload


class TestGenerateQueries:
    def test_count_and_size(self):
        pool = [f"l{i}" for i in range(10)]
        queries = generate_queries(pool, knum=4, count=7, seed=1)
        assert len(queries) == 7
        for q in queries:
            assert len(q) == 4
            assert len(set(q)) == 4
            assert set(q) <= set(pool)

    def test_deterministic(self):
        pool = [f"l{i}" for i in range(10)]
        assert generate_queries(pool, 3, 5, seed=2) == generate_queries(
            pool, 3, 5, seed=2
        )

    def test_seed_changes_queries(self):
        pool = [f"l{i}" for i in range(10)]
        assert generate_queries(pool, 3, 5, seed=1) != generate_queries(
            pool, 3, 5, seed=9
        )

    def test_knum_exceeds_pool(self):
        with pytest.raises(ValueError):
            generate_queries(["a"], knum=2, count=1)


class TestMakeWorkload:
    def test_workload_shape(self):
        graph, queries = make_workload(
            "dblp", scale="tiny", knum=3, kwf=8, num_queries=2, seed=0
        )
        assert isinstance(queries, QuerySet)
        assert len(queries) == 2
        assert queries.knum == 3
        assert queries.kwf == 8
        for labels in queries:
            assert len(labels) == 3
            for label in labels:
                assert graph.label_frequency(label) > 0

    def test_queries_are_solvable(self):
        from repro import solve_gst

        graph, queries = make_workload(
            "roadusa", scale="tiny", knum=3, kwf=4, num_queries=2, seed=3
        )
        for labels in queries:
            result = solve_gst(graph, labels)
            assert result.optimal
            result.tree.validate(graph, labels)

    def test_deterministic(self):
        _, a = make_workload("imdb", scale="tiny", knum=3, kwf=8, num_queries=3)
        _, b = make_workload("imdb", scale="tiny", knum=3, kwf=8, num_queries=3)
        assert a.queries == b.queries

    def test_independent_of_hash_seed(self):
        # Python randomizes str hashes per process; the benchmark draw
        # must not move with it.
        import json
        import os
        import subprocess
        import sys

        script = (
            "import json\n"
            "from repro.bench.workloads import make_workload\n"
            "graph, queries = make_workload(\n"
            "    'dblp', scale='tiny', knum=3, kwf=8, num_queries=3\n"
            ")\n"
            "print(json.dumps([graph.freeze().fingerprint,\n"
            "                  [list(q) for q in queries]]))\n"
        )
        src = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "src"
        )
        draws = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
                timeout=120,
            ).stdout
            draws.append(json.loads(out))
        assert draws[0] == draws[1]

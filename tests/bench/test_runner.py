"""Progressive benchmark runner tests."""

from __future__ import annotations

import pytest

from repro.bench.runner import (
    ALL_ALGORITHMS,
    PROGRESSIVE_ALGORITHMS,
    RATIO_CHECKPOINTS,
    run_query,
    run_suite,
)
from repro.bench.workloads import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        "dblp", scale="tiny", knum=3, kwf=8, num_queries=2, seed=1
    )


class TestRunQuery:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_every_algorithm_runs(self, algorithm, workload):
        graph, queries = workload
        labels = list(queries)[0]
        run = run_query(algorithm, graph, labels)
        assert run.algorithm == algorithm
        assert run.result.tree is not None
        assert run.wall_seconds >= 0.0
        assert run.states_popped > 0
        assert run.peak_bytes > 0

    def test_unknown_algorithm(self, workload):
        graph, queries = workload
        with pytest.raises(ValueError):
            run_query("Simplex", graph, list(queries)[0])

    def test_time_to_ratio_keys(self, workload):
        graph, queries = workload
        run = run_query("PrunedDP++", graph, list(queries)[0])
        ttr = run.time_to_ratio
        assert set(ttr) == set(RATIO_CHECKPOINTS)
        # Optimal reached -> every checkpoint reached.
        assert all(v is not None for v in ttr.values())
        # Times to looser ratios are no later than to tighter ones.
        ordered = [ttr[t] for t in sorted(RATIO_CHECKPOINTS, reverse=True)]
        assert ordered == sorted(ordered)


class TestRunSuite:
    def test_suite_aggregation(self, workload):
        graph, queries = workload
        suite = run_suite(graph, list(queries), PROGRESSIVE_ALGORITHMS)
        assert set(suite.algorithms()) == set(PROGRESSIVE_ALGORITHMS)
        for algorithm in PROGRESSIVE_ALGORITHMS:
            assert suite.all_optimal(algorithm)
            assert suite.mean_states(algorithm) > 0
            assert suite.mean_total_seconds(algorithm) >= 0
            assert suite.mean_peak_bytes(algorithm) > 0
            for target in RATIO_CHECKPOINTS:
                assert suite.mean_time_to_ratio(algorithm, target) >= 0

    def test_every_algorithm_takes_one_budget(self, workload):
        from repro.core.budget import Budget

        graph, queries = workload
        budget = Budget(time_limit=60.0, max_states=100_000)
        suite = run_suite(graph, list(queries), ALL_ALGORITHMS, budget=budget)
        assert suite.algorithms() == list(ALL_ALGORITHMS)
        for algorithm in ALL_ALGORITHMS:
            assert len(suite.runs[algorithm]) == len(queries)
            assert all(r.result.tree is not None for r in suite.runs[algorithm])

    def test_same_weights_across_exact_algorithms(self, workload):
        graph, queries = workload
        suite = run_suite(graph, list(queries), PROGRESSIVE_ALGORITHMS)
        weights = {
            round(suite.mean_weight(a), 9) for a in PROGRESSIVE_ALGORITHMS
        }
        assert len(weights) == 1

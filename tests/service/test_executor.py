"""QueryExecutor: batches, isolation, deadlines, ordering, threads."""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

import repro.core.solver as solver_mod
from repro.core import PrunedDPPlusPlusSolver
from repro.core.budget import CancellationToken
from repro.errors import (
    InfeasibleQueryError,
    LimitExceededError,
    QueryCancelledError,
)
from repro.graph import generators
from repro.service import Budget, GraphIndex, QueryExecutor, TraceSink


@pytest.fixture
def graph():
    return generators.random_graph(
        60, 130, num_query_labels=6, label_frequency=4, seed=33
    )


@pytest.fixture
def index(graph):
    return GraphIndex(graph)


class TestBatchBasics:
    def test_accepts_raw_graph(self, graph):
        with QueryExecutor(graph, max_workers=2) as executor:
            outcomes = executor.run_batch([["q0", "q1"]])
        assert outcomes[0].ok

    def test_mixed_feasible_infeasible_batch(self, index):
        queries = [
            ["q0", "q1"],            # feasible
            ["q0", "no-such-label"], # infeasible: unknown label
            ["q2", "q3"],            # feasible
        ]
        with QueryExecutor(index, max_workers=3) as executor:
            outcomes = executor.run_batch(queries)
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert isinstance(outcomes[1].error, InfeasibleQueryError)
        assert outcomes[1].trace.status == "infeasible"
        # The failure stayed isolated: neighbours solved to optimality.
        assert outcomes[0].result.optimal and outcomes[2].result.optimal

    def test_deterministic_input_ordering(self, index):
        queries = [["q%d" % (i % 6), "q%d" % ((i + 1) % 6)] for i in range(24)]
        with QueryExecutor(index, max_workers=8) as executor:
            outcomes = executor.run_batch(queries)
        assert [outcome.query_id for outcome in outcomes] == list(range(24))
        assert [list(outcome.labels) for outcome in outcomes] == queries

    def test_submit_future_isolation(self, index):
        with QueryExecutor(index) as executor:
            future = executor.submit(["ghost"], query_id="f1")
            outcome = future.result()
        assert not outcome.ok  # the error rides the outcome, not the future
        assert outcome.query_id == "f1"

    def test_submit_after_shutdown_raises(self, index):
        executor = QueryExecutor(index)
        executor.shutdown()
        with pytest.raises(RuntimeError):
            executor.submit(["q0"])

    def test_invalid_max_workers(self, index):
        with pytest.raises(ValueError):
            QueryExecutor(index, max_workers=0)


class TestSolverKeywords:
    """The executor takes a query's own keywords and nothing else."""

    @pytest.fixture
    def store_executor(self, graph, tmp_path):
        from repro.service import RetryPolicy
        from repro.store import build_store

        store_dir = str(tmp_path / "store")
        build_store(graph, store_dir, top_k=2)
        index = GraphIndex(graph)
        index.attach_store(store_dir)
        with QueryExecutor(
            index, retry_policy=RetryPolicy(max_retries=2)
        ) as executor:
            yield executor

    def test_stray_keyword_fails_alike_on_miss_and_hit(self, store_executor):
        """A stray keyword raises Python's own ``TypeError`` at the call,
        before the result-cache lookup, on a miss and on a hit alike:
        the cache counts nothing and nothing is retried."""
        labels = ["q0", "q1"]
        strays = [
            {"epsilon": 0.1},  # a limit outside its Budget
            {"distance_cache": None},  # the index's own solver keyword
            {"use_tour2": False},  # a keyword of one solver class
            {"use_result_cache": True},  # only GraphIndex.execute has it
        ]
        cache = store_executor.index.result_cache

        def assert_refused():
            before = cache.counters()
            for stray in strays:
                (name,) = stray
                for call in (store_executor.submit, store_executor.enqueue):
                    with pytest.raises(TypeError, match=f"'{name}'"):
                        call(labels, **stray)
            after = cache.counters()
            assert (after["hits"], after["misses"]) == (
                before["hits"], before["misses"]
            )

        assert store_executor.cached(labels) is None
        assert_refused()  # a miss
        assert store_executor.submit(labels).result().ok  # store it
        assert store_executor.cached(labels) is not None
        assert_refused()  # a hit

    def test_index_supplied_keyword_is_refused(self, index):
        with QueryExecutor(index) as executor:
            with pytest.raises(TypeError, match="'distance_cache'"):
                executor.submit(["q0", "q1"], distance_cache=None)

    def test_keyword_of_another_class_is_refused(self, index):
        """A keyword only another solver class takes is refused by the
        executor's own signature, whatever the executor's algorithm."""
        with QueryExecutor(index, algorithm="dpbf") as executor:
            with pytest.raises(
                TypeError, match=r"QueryExecutor\.submit\(\).*'use_tour2'"
            ):
                executor.submit(["q0", "q1"], use_tour2=False)


class TestDeadlines:
    def test_already_expired_deadline_skips_whole_batch(self, index):
        expired = Budget().replace(deadline=time.perf_counter() - 1.0)
        with QueryExecutor(index, max_workers=2) as executor:
            outcomes = executor.run_batch([["q0", "q1"]] * 6, budget=expired)
        assert all(not outcome.ok for outcome in outcomes)
        assert all(
            isinstance(outcome.error, LimitExceededError) for outcome in outcomes
        )
        assert {outcome.trace.status for outcome in outcomes} == {"skipped"}

    def test_deadline_expiry_mid_batch(self, index):
        # One worker drains 150 queries against a ~10ms allowance: the
        # head of the queue may run, the tail must be skipped, and the
        # outcomes still come back complete and in order.
        queries = [["q0", "q1", "q2", "q3"]] * 150
        with QueryExecutor(index, max_workers=1) as executor:
            outcomes = executor.run_batch(queries, deadline=0.01)
        statuses = [outcome.trace.status for outcome in outcomes]
        assert len(outcomes) == len(queries)
        assert set(statuses) <= {"ok", "skipped"}
        assert "skipped" in statuses
        # Skips are real outcomes, not exceptions out of the batch.
        for outcome in outcomes:
            if outcome.trace.status == "skipped":
                assert isinstance(outcome.error, LimitExceededError)

    def test_deadline_clamps_time_limit(self, index):
        budget = Budget(time_limit=100.0).with_deadline(10.0)
        assert budget.effective_time_limit() <= 10.0
        with QueryExecutor(index) as executor:
            outcomes = executor.run_batch([["q0", "q1"]], budget=budget)
        assert outcomes[0].ok


class TestSharedIndexThreadSafety:
    def test_stress_many_threads_one_index(self, index):
        rng = random.Random(99)
        pool = ["q0", "q1", "q2", "q3", "q4", "q5"]
        queries = [rng.sample(pool, rng.randint(2, 3)) for _ in range(40)]
        with QueryExecutor(index, max_workers=8) as executor:
            outcomes = executor.run_batch(queries)
        assert all(outcome.ok for outcome in outcomes)
        # Concurrency must not change answers: spot-check against the
        # sequential cold solver.
        for outcome in outcomes[::8]:
            cold = PrunedDPPlusPlusSolver(index.graph, outcome.labels).solve()
            assert outcome.result.weight == pytest.approx(cold.weight)
        # All workers shared one cache: at most one miss per label.
        info = index.cache_info()
        assert info["misses"] <= len(pool) * 2  # benign double-compute races
        assert info["hits"] > 0


class TestRunBatchFutureLeak:
    def test_midloop_submit_failure_cancels_enqueued_futures(
        self, index, monkeypatch
    ):
        """Regression: a submit that raises partway through run_batch
        used to abandon the already-enqueued futures.  They must be
        cancelled and the caller must get one clean error."""
        gate = threading.Event()
        real = solver_mod.ALGORITHMS["pruneddp++"]

        class Gated(real):
            def run_search(self, context, prepared=None):
                gate.wait(timeout=10.0)
                return super().run_search(context, prepared)

        monkeypatch.setitem(solver_mod.ALGORITHMS, "pruneddp++", Gated)
        executor = QueryExecutor(index, max_workers=1)
        enqueued = []
        real_submit = executor.submit

        def flaky_submit(*args, **kwargs):
            if len(enqueued) == 2:
                raise MemoryError("injected submit failure")
            future = real_submit(*args, **kwargs)
            enqueued.append(future)
            return future

        monkeypatch.setattr(executor, "submit", flaky_submit)
        try:
            with pytest.raises(RuntimeError) as info:
                executor.run_batch([["q0", "q1"]] * 3)
            assert "2 of 3" in str(info.value)
            assert isinstance(info.value.__cause__, MemoryError)
            # The first future occupies the only worker; the second sat
            # queued behind it and must have been cancelled, not leaked.
            assert enqueued[1].cancelled()
        finally:
            gate.set()
            executor.shutdown()


class TestBatchCancellation:
    def test_precancelled_batch_returns_cancelled_outcomes(self, index):
        token = CancellationToken()
        token.cancel("caller gave up")
        with QueryExecutor(index, max_workers=2) as executor:
            outcomes = executor.run_batch([["q0", "q1"]] * 5, cancel_token=token)
        assert len(outcomes) == 5
        assert {o.trace.status for o in outcomes} == {"cancelled"}
        assert all(isinstance(o.error, QueryCancelledError) for o in outcomes)
        # Nothing was searched: cancellation beat the first pop.
        assert all(o.result is None for o in outcomes)

    def test_token_on_budget_reaches_submit_path(self, index):
        token = CancellationToken()
        with QueryExecutor(index) as executor:
            outcome = executor.submit(["q0", "q1"], cancel_token=token).result()
        assert outcome.ok  # never cancelled: the solve ran normally


class TestTraceStreaming:
    def test_jsonl_sink_receives_every_trace(self, index, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        queries = [["q0", "q1"], ["ghost"], ["q2", "q3"]]
        with TraceSink(path) as sink:
            with QueryExecutor(index, max_workers=3, trace_sink=sink) as executor:
                executor.run_batch(queries)
            assert sink.count == len(queries)
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == len(queries)
        by_id = {record["query_id"]: record for record in records}
        assert by_id[0]["status"] == "ok"
        assert by_id[1]["status"] == "infeasible"
        # A default executor records what the resilience pipeline does,
        # exactly as one with a retry policy or admission control does.
        assert by_id[0]["requested_algorithm"] == "pruneddp++"
        assert by_id[0]["attempts"] == 1
        assert by_id[0]["degraded"] is False
        assert set(by_id[0]["stages"]) == {
            "context_build",
            "bounds_build",
            "search",
            "feasible",
        }

class TestProgressThreading:
    """on_progress flows executor -> engine: any embedder can observe
    the anytime UB/LB stream, not just an in-process solve_gst call."""

    def test_submit_streams_monotone_progress(self, index):
        points = []
        with QueryExecutor(index, max_workers=1) as executor:
            outcome = executor.submit(
                ["q0", "q1", "q2"], algorithm="basic", on_progress=points.append
            ).result()
        assert outcome.ok
        assert len(points) >= 2
        # The progressive contract: UB never increases, LB never
        # decreases across the stream.
        for earlier, later in zip(points, points[1:]):
            assert later.best_weight <= earlier.best_weight + 1e-12
            assert later.lower_bound >= earlier.lower_bound - 1e-12
        assert points[-1].best_weight == pytest.approx(outcome.result.weight)

    def test_run_batch_disambiguates_queries(self, index):
        seen = {}
        queries = [["q0", "q1"], ["q2", "q3"]]

        def on_progress(query_id, point):
            seen.setdefault(query_id, []).append(point)

        with QueryExecutor(index, max_workers=2) as executor:
            outcomes = executor.run_batch(
                queries, algorithm="basic", on_progress=on_progress
            )
        assert all(o.ok for o in outcomes)
        assert set(seen) == {0, 1}
        for query_id, points in seen.items():
            assert points[-1].best_weight == pytest.approx(
                outcomes[query_id].result.weight
            )

    def test_progress_rejected_under_fleet(self, index):
        executor = QueryExecutor(index, workers=1)
        try:
            with pytest.raises(ValueError, match="process boundary"):
                executor.submit(["q0", "q1"], on_progress=lambda p: None)
        finally:
            executor.shutdown(wait=False)

    def test_dpbf_emits_single_terminal_point(self, index):
        points = []
        with QueryExecutor(index, max_workers=1) as executor:
            outcome = executor.submit(
                ["q0", "q1"], algorithm="dpbf", on_progress=points.append
            ).result()
        assert outcome.ok
        assert len(points) == 1
        assert points[0].best_weight == pytest.approx(outcome.result.weight)
        assert points[0].lower_bound == pytest.approx(outcome.result.weight)


class TestSinkOwnership:
    def test_path_sink_owned_and_closed_on_shutdown(self, index, tmp_path):
        path = str(tmp_path / "owned.jsonl")
        executor = QueryExecutor(index, max_workers=1, trace_sink=path)
        executor.run_batch([["q0", "q1"]])
        executor.shutdown()
        assert executor.trace_sink.closed
        with open(path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

    def test_borrowed_sink_flushed_not_closed(self, index, tmp_path):
        path = str(tmp_path / "borrowed.jsonl")
        with TraceSink(path) as sink:
            with QueryExecutor(index, max_workers=1, trace_sink=sink) as executor:
                executor.run_batch([["q0", "q1"]])
            # The executor's shutdown flushed but did not close: the
            # owner can keep appending through the same sink.
            assert not sink.closed
            with QueryExecutor(index, max_workers=1, trace_sink=sink) as executor:
                executor.run_batch([["q2", "q3"]])
            assert sink.count == 2

    def test_straggler_after_sink_close_drops_not_raises(
        self, index, tmp_path
    ):
        """A query finishing after the sink closed (a drain straggler)
        keeps its successful answer; the lost trace line is *counted*,
        in the sink and in the registry, instead of raised.

        Regression: the write-after-close ``ValueError`` used to
        propagate out of the worker and turn the answer into an error.
        """
        from repro.obs import instruments

        dropped_counter = instruments.traces_dropped()
        dropped_before = dropped_counter.value()
        path = str(tmp_path / "drain.jsonl")
        sink = TraceSink(path)
        with QueryExecutor(index, max_workers=1, trace_sink=sink) as executor:
            executor.run_batch([["q0", "q1"]])
            # The drain closes the sink while the executor still lives;
            # the next query to finish is the straggler.
            sink.close()
            outcome = executor.submit(["q1", "q2"]).result()
        assert outcome.ok
        assert outcome.trace.error is None
        assert sink.count == 1
        assert sink.dropped == 1
        assert dropped_counter.value() - dropped_before == 1
        with open(path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

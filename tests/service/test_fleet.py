"""Units for the shared-memory worker fleet (`repro.service.fleet`).

What these pin down:

* warm-worker reuse — one attach per worker lifetime, many queries;
* concurrent-batch equivalence — a 4-worker fleet through
  :class:`~repro.service.QueryExecutor` answers byte-identically to
  the in-thread executor;
* respawn-and-resume — a SIGKILLed worker is replaced and the query
  resumes from its checkpoint instead of restarting cold;
* the parent's result cache — answers solved in a worker are written
  back, served as hits, and persisted by ``save_results()``;
* the shutdown/unlink contract — ``shutdown(wait=True)`` drains
  in-flight work before removing the segment, and a segment yanked
  out from under a live query surfaces a *typed* error
  (:class:`~repro.errors.WorkerCrashedError` carrying the attach
  failure), never a ``BufferError``.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.errors import ShmAttachError, WorkerCrashedError
from repro.graph import generators
from repro.graph.shm import SharedCSR
from repro.service import (
    FleetPool,
    GraphIndex,
    QueryExecutor,
    WorkerPolicy,
)
from repro.store import build_store


@pytest.fixture(scope="module")
def small_index():
    graph = generators.random_graph(
        300, 900, num_query_labels=6, label_frequency=10, seed=7
    )
    return GraphIndex(graph)


@pytest.fixture(scope="module")
def slow_index():
    """Big enough that a 6-label pruneddp++ solve runs for ~0.5s —
    room to checkpoint, kill, cancel, or shut down mid-search."""
    graph = generators.random_graph(
        2000, 6000, num_query_labels=6, label_frequency=30, seed=5
    )
    return GraphIndex(graph)


SLOW_QUERY = [f"q{i}" for i in range(6)]


def canonical(outcome) -> bytes:
    assert outcome.ok, outcome.error
    return json.dumps(
        {
            "weight": outcome.result.weight,
            "edges": sorted(outcome.result.tree.edges),
        },
        sort_keys=True,
    ).encode("utf-8")


class TestWarmReuse:
    def test_workers_attach_once_and_serve_many(self, small_index):
        with FleetPool(small_index, workers=2) as pool:
            first_pids = [w.pid for w in pool._slots]
            queries = [["q0", "q1"], ["q2", "q3"], ["q0", "q4"], ["q1", "q5"]]
            outcomes = [pool.execute(labels) for labels in queries]
            assert all(outcome.ok for outcome in outcomes)
            assert all(
                outcome.trace.fleet_worker is not None for outcome in outcomes
            )
            stats = pool.stats()
            # Same warm processes served everything: no respawns, no
            # re-attach, all queries accounted to the two slots.
            assert [w.pid for w in pool._slots] == first_pids
            assert sum(w["queries"] for w in stats["per_worker"]) == 4
            assert all(w["respawns"] == 0 for w in stats["per_worker"])
            assert all(
                w["attach_seconds"] > 0.0 for w in stats["per_worker"]
            )

    def test_shutdown_unlinks_the_segment(self, small_index):
        pool = FleetPool(small_index, workers=1)
        name = pool.shared.name
        assert pool.execute(["q0", "q1"]).ok
        pool.shutdown()
        with pytest.raises(ShmAttachError):
            SharedCSR.attach(name)
        # Idempotent: a second shutdown is a no-op, not an error.
        pool.shutdown()

    def test_closed_pool_returns_error_outcome(self, small_index):
        pool = FleetPool(small_index, workers=1)
        pool.shutdown()
        outcome = pool.execute(["q0", "q1"])
        assert not outcome.ok
        assert "shut down" in str(outcome.error)


class TestBatchEquivalence:
    def test_four_worker_batch_matches_in_thread(self, small_index):
        queries = [
            ["q0", "q1"], ["q2", "q3"], ["q0", "q4"], ["q1", "q5"],
            ["q2", "q5"], ["q3", "q4"], ["q0", "q2", "q4"], ["q1", "q3"],
        ]
        with QueryExecutor(small_index) as executor:
            assert executor.isolation == "thread"
            baseline = executor.run_batch(queries)
        with QueryExecutor(small_index, workers=4) as executor:
            assert executor.isolation == "fleet"
            fleet = executor.run_batch(queries)
        for base, served in zip(baseline, fleet):
            assert canonical(served) == canonical(base)
            assert served.trace.fleet_worker in range(4)


class TestResultCache:
    def test_fleet_answers_reach_the_result_cache(self, tmp_path):
        graph = generators.random_graph(
            300, 900, num_query_labels=6, label_frequency=10, seed=7
        )
        store_dir = str(tmp_path / "store")
        build_store(graph, store_dir, top_k=2)
        index = GraphIndex(graph)
        index.attach_store(store_dir)
        labels = ["q0", "q1", "q2"]
        other = ["q3", "q4"]
        cache = index.result_cache
        with QueryExecutor(index, workers=1) as executor:
            first = executor.submit(labels).result()
            second = executor.submit(labels).result()
            # The pool looks nothing up (QueryExecutor.cached is the
            # one lookup): a direct call solves, even a stored answer,
            # and the parent still writes a solved miss back.
            counted = cache.counters()
            direct = executor.worker_pool.execute(labels)
            fresh = executor.worker_pool.execute(other)
            assert cache.counters()["hits"] == counted["hits"]
            assert cache.counters()["misses"] == counted["misses"]
            assert executor.cached(other) is not None
        assert first.ok and first.trace.result_cache == "miss"
        assert second.ok and second.trace.result_cache == "hit"
        assert second.result.weight == first.result.weight
        assert direct.ok and direct.trace.result_cache == "miss"
        assert direct.trace.fleet_worker == 0
        assert direct.result.weight == first.result.weight
        assert fresh.ok and fresh.trace.result_cache == "miss"
        assert index.save_results() > 0


class TestRespawnAndResume:
    def test_sigkilled_worker_resumes_from_checkpoint(
        self, slow_index, tmp_path
    ):
        # The chaos hook SIGKILLs the worker right after its second
        # checkpoint write (one-shot, marker-guarded), so the respawned
        # worker must resume the same query from disk.
        policy = WorkerPolicy(
            checkpoint_every_pops=500,
            checkpoint_every_seconds=0.05,
            chaos_kill_after_checkpoints=2,
            max_restarts=2,
        )
        reference = slow_index.execute(
            SLOW_QUERY, algorithm="pruneddp++", use_result_cache=False
        )
        with FleetPool(
            slow_index, workers=1,
            checkpoint_dir=str(tmp_path), policy=policy,
        ) as pool:
            outcome = pool.execute(SLOW_QUERY, algorithm="pruneddp++")
            assert outcome.ok, outcome.error
            assert outcome.trace.worker_restarts >= 1
            assert outcome.trace.resumed_from is not None
            assert outcome.result.weight == reference.result.weight
            stats = pool.stats()
            assert stats["per_worker"][0]["respawns"] >= 1


class TestShutdownAndUnlinkSafety:
    def test_shutdown_wait_drains_inflight_query(self, slow_index, tmp_path):
        """``shutdown(wait=True)`` mid-query: the in-flight search is
        cancelled cooperatively, its (checkpointed) outcome is still
        delivered, and only then is the segment unlinked."""
        policy = WorkerPolicy(
            checkpoint_every_pops=500, checkpoint_every_seconds=0.05
        )
        pool = FleetPool(
            slow_index, workers=1,
            checkpoint_dir=str(tmp_path), policy=policy,
        )
        name = pool.shared.name
        outcomes = []

        def run():
            outcomes.append(pool.execute(SLOW_QUERY, algorithm="basic"))

        thread = threading.Thread(target=run)
        thread.start()
        # Let the query get properly underway before pulling the plug.
        deadline = time.monotonic() + 10
        while not any(w.busy for w in pool._slots):
            assert time.monotonic() < deadline, "query never started"
            time.sleep(0.01)
        time.sleep(0.2)
        pool.shutdown(wait=True)
        thread.join(timeout=30)
        assert not thread.is_alive()
        # The drained query delivered an outcome (cancelled or done),
        # and never a BufferError from the segment teardown.
        assert len(outcomes) == 1
        trace = outcomes[0].trace
        assert trace.status in ("ok", "cancelled"), trace.status
        with pytest.raises(ShmAttachError):
            SharedCSR.attach(name)

    def test_segment_yanked_mid_query_is_typed_not_buffererror(
        self, slow_index, tmp_path
    ):
        """Owner killed / segment unlinked while a query runs: the
        worker dies, the respawn cannot re-attach, and the caller gets
        a typed WorkerCrashedError naming the attach failure."""
        policy = WorkerPolicy(
            checkpoint_every_pops=500,
            checkpoint_every_seconds=0.05,
            max_restarts=2,
        )
        pool = FleetPool(
            slow_index, workers=1,
            checkpoint_dir=str(tmp_path), policy=policy,
        )
        try:
            worker_pid = pool._slots[0].pid
            outcomes = []

            def run():
                outcomes.append(pool.execute(SLOW_QUERY, algorithm="basic"))

            thread = threading.Thread(target=run)
            thread.start()
            deadline = time.monotonic() + 10
            while not any(w.busy for w in pool._slots):
                assert time.monotonic() < deadline, "query never started"
                time.sleep(0.01)
            time.sleep(0.2)
            # Yank the graph out from under the fleet, then kill the
            # worker so the pool is forced into a re-attach.
            pool.shared.unlink()
            os.kill(worker_pid, signal.SIGKILL)
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert len(outcomes) == 1
            outcome = outcomes[0]
            assert not outcome.ok
            assert isinstance(outcome.error, WorkerCrashedError)
            assert "attach" in str(outcome.error).lower()
            assert "ShmAttachError" in str(outcome.error)
        finally:
            pool.shutdown(wait=False)

"""Chaos benchmark — crash recovery overhead and bounded work loss.

The durability claim quantified: ``kill -9`` of a fleet worker
mid-search loses at most one checkpoint interval of work.  A batch of
progressive queries runs three ways over the same shared index —

* **inline** (in-thread, no checkpointing): the baseline cost;
* **fleet + checkpoints**: the same batch through a one-worker
  :class:`~repro.service.fleet.FleetPool` with a checkpoint cadence,
  measuring the durability tax;
* **fleet + chaos**: the worker is SIGKILLed after its second
  checkpoint; the batch must still complete with every answer equal to
  the baseline, and the killed query's *redone* work (resumed pops
  minus baseline pops) must stay under one checkpoint interval plus
  the engine's limit-check granularity.

Run directly (``python benchmarks/test_chaos_recovery.py``) or via
pytest.  Not part of tier-1: lives in benchmarks/, collected only when
this directory is targeted explicitly.
"""

from __future__ import annotations

import random
import time

from repro.core.engine import _LIMIT_CHECK_INTERVAL
from repro.graph import generators
from repro.service import FleetPool, GraphIndex, WorkerPolicy

ALGORITHM = "pruneddp++"
CHECKPOINT_EVERY = 100
NUM_QUERIES = 6


def build_workload():
    """A graph whose 5-label queries pop 1000+ states each."""
    graph = generators.random_graph(
        400, 1200, num_query_labels=8, label_frequency=8, seed=7
    )
    rng = random.Random(23)
    pool = [f"q{i}" for i in range(8)]
    queries = [tuple(rng.sample(pool, 5)) for _ in range(NUM_QUERIES)]
    return graph, queries


def run_chaos_comparison():
    graph, queries = build_workload()
    index = GraphIndex(graph)

    # Baseline: inline, no durability machinery.
    started = time.perf_counter()
    baseline = [
        index.execute(labels, algorithm=ALGORITHM) for labels in queries
    ]
    inline_seconds = time.perf_counter() - started
    assert all(o.ok for o in baseline)
    weights = [o.result.weight for o in baseline]
    pops = [o.result.stats.states_popped for o in baseline]

    def run_pool(tmp_dir, policy):
        with FleetPool(
            index, workers=1, checkpoint_dir=tmp_dir, policy=policy
        ) as pool:
            started = time.perf_counter()
            outcomes = [
                pool.execute(labels, algorithm=ALGORITHM)
                for labels in queries
            ]
            return outcomes, time.perf_counter() - started

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        durable, durable_seconds = run_pool(
            tmp,
            WorkerPolicy(
                checkpoint_every_pops=CHECKPOINT_EVERY,
                checkpoint_every_seconds=None,
            ),
        )
    with tempfile.TemporaryDirectory() as tmp:
        chaos, chaos_seconds = run_pool(
            tmp,
            WorkerPolicy(
                checkpoint_every_pops=CHECKPOINT_EVERY,
                checkpoint_every_seconds=None,
                chaos_kill_after_checkpoints=2,
            ),
        )

    # Correctness under chaos: every query answered, every weight equal
    # to the uninterrupted baseline, exactly one worker killed.
    assert all(o.ok for o in durable)
    assert all(o.ok for o in chaos)
    for got, want in zip(durable, weights):
        assert abs(got.result.weight - want) < 1e-9
    for got, want in zip(chaos, weights):
        assert abs(got.result.weight - want) < 1e-9
    restarts = sum(o.trace.worker_restarts for o in chaos)
    assert restarts >= 1, "the chaos hook must have killed one worker"

    # Bounded work loss: the killed query's cumulative pops exceed its
    # baseline by at most one checkpoint interval plus the limit-check
    # granularity (the engine only reaches its consistent point every
    # _LIMIT_CHECK_INTERVAL pops).
    max_redone = 0
    for got, base_pops in zip(chaos, pops):
        if got.trace.worker_restarts:
            redone = got.result.stats.states_popped - base_pops
            max_redone = max(max_redone, redone)
            assert redone <= CHECKPOINT_EVERY + _LIMIT_CHECK_INTERVAL, (
                f"lost {redone} pops — more than one checkpoint interval"
            )

    checkpoints = sum(o.trace.checkpoints for o in durable)
    lines = [
        "chaos recovery: %d queries, %s" % (NUM_QUERIES, ALGORITHM),
        "  inline (threads, no durability) : %6.3f s" % inline_seconds,
        "  fleet + checkpoints every %3d   : %6.3f s  (%d checkpoints)"
        % (CHECKPOINT_EVERY, durable_seconds, checkpoints),
        "  fleet + kill -9 mid-search      : %6.3f s  (%d restarts, "
        "max %d pops redone)" % (chaos_seconds, restarts, max_redone),
    ]
    return "\n".join(lines)


def test_chaos_recovery_bounded_loss(record_figure):
    text = run_chaos_comparison()
    record_figure("chaos_recovery", text)


if __name__ == "__main__":
    print(run_chaos_comparison())

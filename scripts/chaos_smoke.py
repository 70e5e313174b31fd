#!/usr/bin/env python
"""Chaos smoke: SIGKILL one fleet worker mid-batch, lose nothing.

The durability layer's acceptance check, runnable anywhere (CI job,
cron, laptop): a batch of progressive queries runs through a
one-worker :class:`repro.service.fleet.FleetPool` with a checkpoint
cadence and a one-shot chaos hook that makes the worker ``kill -9``
itself after its second checkpoint.  The run fails loudly unless

* the batch completes — every query delivers an outcome (none lost,
  none wedged);
* at least one worker was actually killed and respawned
  (``worker_restarts >= 1`` — otherwise the chaos never fired and the
  smoke proved nothing);
* the killed query resumed from its checkpoint (``resumed_from`` set)
  and every answer matches an uninterrupted in-process run exactly.

Exit code 0 on success, 1 with a diagnostic on any violation.
"""

from __future__ import annotations

import random
import sys
import tempfile

NUM_QUERIES = 6
CHECKPOINT_EVERY = 100


def main() -> int:
    from repro.graph import generators
    from repro.service import FleetPool, GraphIndex, WorkerPolicy

    graph = generators.random_graph(
        400, 1200, num_query_labels=8, label_frequency=8, seed=7
    )
    rng = random.Random(23)
    pool_labels = [f"q{i}" for i in range(8)]
    queries = [tuple(rng.sample(pool_labels, 5)) for _ in range(NUM_QUERIES)]
    index = GraphIndex(graph)

    expected = {}
    for labels in queries:
        outcome = index.execute(labels, algorithm="pruneddp++")
        assert outcome.ok, f"baseline solve failed for {labels}"
        expected[labels] = outcome.result.weight

    policy = WorkerPolicy(
        checkpoint_every_pops=CHECKPOINT_EVERY,
        checkpoint_every_seconds=None,
        chaos_kill_after_checkpoints=2,
    )
    failures = []
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        with FleetPool(
            index, workers=1, checkpoint_dir=checkpoint_dir, policy=policy
        ) as pool:
            outcomes = [
                pool.execute(labels, algorithm="pruneddp++")
                for labels in queries
            ]

    if len(outcomes) != NUM_QUERIES:
        failures.append(
            f"lost queries: {len(outcomes)} of {NUM_QUERIES} delivered"
        )
    restarts = sum(o.trace.worker_restarts for o in outcomes)
    if restarts < 1:
        failures.append(
            "chaos hook never fired: no worker was killed and respawned"
        )
    resumed = [o for o in outcomes if o.trace.resumed_from is not None]
    if restarts >= 1 and not resumed:
        failures.append("a worker was restarted but nothing resumed")
    for outcome in outcomes:
        if not outcome.ok:
            failures.append(
                f"query {outcome.labels} failed: {outcome.trace.error}"
            )
            continue
        want = expected[outcome.labels]
        if abs(outcome.result.weight - want) > 1e-9:
            failures.append(
                f"query {outcome.labels}: weight {outcome.result.weight} "
                f"!= uninterrupted {want}"
            )

    if failures:
        for failure in failures:
            print(f"chaos smoke FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"chaos smoke clean: {NUM_QUERIES} queries, {restarts} worker "
        f"restart(s), {len(resumed)} resumed from checkpoint, all "
        "weights match the uninterrupted run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

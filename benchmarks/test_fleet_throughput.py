"""Fleet throughput — shared-memory workers vs the single-process path.

The serving-fleet claim: a 4-worker :class:`repro.service.FleetPool`
(persistent pre-forked processes attached to one shared-memory CSR
segment) answers a CPU-bound batch at >= 2x the queries/sec of the
single-process executor, because each query runs on its own core
instead of time-slicing the GIL.  This is the service-throughput
workload family (the 5000-node graph and 8-hot-label pool of
``test_service_throughput.py``) pushed into its compute-bound regime —
5-label queries whose PrunedDP+ search dominates the per-query cost,
the exact traffic shape the fleet exists for.  The IPC tax the fleet
pays per query (a pickled label set out, a pickled outcome back) must
be amortized by real multi-core search time to clear the gate.

Answers are never taken on faith: every fleet outcome is re-certified
against the graph from first principles (:func:`repro.verify.
certify_result`) and its canonical serialization — weight plus the
sorted ``(u, v, w)`` edge triples — must be byte-identical to the
single-process executor's answer for the same query.

The >= 2x assertion needs hardware parallelism, so it is skipped on
hosts with fewer than 4 usable cores (the equivalence/certification
test still runs everywhere); CI's ``perf-regression`` job provides the
4-core floor that actually gates merges.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.graph import generators
from repro.service import GraphIndex, QueryExecutor
from repro.verify import certify_result

ALGORITHM = "pruneddp+"
WORKERS = 4
NUM_QUERIES = 40
LABELS_PER_QUERY = 5
MIN_SPEEDUP = 2.0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def build_workload(
    *, num_queries: int = NUM_QUERIES, labels_per_query: int = LABELS_PER_QUERY
):
    """The service-throughput graph with compute-bound unique queries.

    Queries are deduplicated so neither side's result cache collapses
    the batch — every query is a real solve on both executors, which
    is what a throughput ratio between them actually measures.
    """
    graph = generators.random_graph(
        5000, 12000, num_query_labels=8, label_frequency=60, seed=5
    )
    rng = random.Random(17)
    pool = [f"q{i}" for i in range(8)]
    seen, queries = set(), []
    while len(queries) < num_queries:
        labels = tuple(sorted(rng.sample(pool, labels_per_query)))
        if labels not in seen:
            seen.add(labels)
            queries.append(list(labels))
    return graph, queries


def canonical_answer(outcome) -> bytes:
    """A query answer's canonical bytes: weight + sorted edge triples."""
    assert outcome.ok, outcome.error
    return json.dumps(
        {
            "weight": outcome.result.weight,
            "edges": sorted(outcome.result.tree.edges),
        },
        sort_keys=True,
    ).encode("utf-8")


def run_fleet_comparison(*, workers: int = WORKERS, **workload_kw):
    """Time the same batch on both executors; certify the fleet's answers."""
    graph, queries = build_workload(**workload_kw)

    # Single-process baseline: threads share one interpreter, so the
    # batch is GIL-bound regardless of thread count.  Same thread count
    # as the fleet's submitting side keeps the scheduling symmetric.
    single_index = GraphIndex(graph)
    with QueryExecutor(
        single_index, algorithm=ALGORITHM, max_workers=workers
    ) as executor:
        started = time.perf_counter()
        single_outcomes = executor.run_batch(queries)
        single_seconds = time.perf_counter() - started

    # Fleet: pre-fork before timing (a deployment forks once and serves
    # for hours); each worker's own label-cache warmup stays inside the
    # timed batch, charged against the fleet.
    fleet_index = GraphIndex(graph)
    with QueryExecutor(
        fleet_index, algorithm=ALGORITHM, workers=workers
    ) as executor:
        fleet_stats = executor.worker_pool.stats()
        started = time.perf_counter()
        fleet_outcomes = executor.run_batch(queries)
        fleet_seconds = time.perf_counter() - started

    # Certification before any speed claim: every fleet answer is
    # re-validated from first principles and byte-identical to the
    # single-process answer for the same query.
    for labels, single, fleet in zip(queries, single_outcomes, fleet_outcomes):
        assert single.ok and fleet.ok, (single.error, fleet.error)
        certify_result(graph, fleet.result, labels=labels).raise_if_failed()
        assert canonical_answer(fleet) == canonical_answer(single), labels
        assert fleet.trace.fleet_worker is not None

    return {
        "queries": len(queries),
        "single_seconds": single_seconds,
        "single_qps": len(queries) / single_seconds,
        "fleet_seconds": fleet_seconds,
        "fleet_qps": len(queries) / fleet_seconds,
        "speedup": single_seconds / fleet_seconds,
        "workers": workers,
        "shm_bytes": fleet_stats["shm"]["size_bytes"],
        "per_worker_queries": [
            worker["queries"] for worker in fleet_stats["per_worker"]
        ],
    }


def test_fleet_answers_certify_identical():
    """Everywhere (even 1 core): fleet answers are byte-identical to the
    single-process executor's and pass first-principles certification."""
    rows = run_fleet_comparison(
        workers=2, num_queries=8, labels_per_query=3
    )
    assert rows["queries"] == 8


@pytest.mark.skipif(
    _usable_cpus() < WORKERS,
    reason=f"fleet speedup gate needs >= {WORKERS} usable cores "
    f"(found {_usable_cpus()}); CI provides them",
)
def test_fleet_throughput_2x_single_process(benchmark, record_figure):
    rows = benchmark.pedantic(run_fleet_comparison, rounds=1, iterations=1)

    record_figure(
        "fleet_throughput",
        "\n".join(
            [
                "== Fleet throughput: 4 shared-memory workers vs 1 process ==",
                f"workload: {rows['queries']} unique {LABELS_PER_QUERY}-label "
                f"queries, {ALGORITHM}",
                f"single : {rows['single_seconds']:6.2f}s = "
                f"{rows['single_qps']:6.1f} q/s",
                f"fleet  : {rows['fleet_seconds']:6.2f}s = "
                f"{rows['fleet_qps']:6.1f} q/s  "
                f"({rows['workers']} workers, "
                f"{rows['shm_bytes'] / 1e6:.1f} MB shm)",
                f"speedup: {rows['speedup']:.2f}x (gate: >= {MIN_SPEEDUP}x)",
            ]
        ),
    )

    # Every worker actually served traffic (no dead lanes).
    assert all(count > 0 for count in rows["per_worker_queries"]), rows

    # Acceptance: the fleet serves >= 2x the single-process queries/sec.
    assert rows["speedup"] >= MIN_SPEEDUP, (
        f"fleet speedup {rows['speedup']:.2f}x < {MIN_SPEEDUP}x"
    )

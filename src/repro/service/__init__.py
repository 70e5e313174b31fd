"""The query service: shared index, batch execution, telemetry.

This package is the production-serving layer over the paper's solvers:

* :class:`GraphIndex` — one immutable graph plus everything worth
  amortizing across queries (CSR snapshot, LRU-bounded per-label
  Dijkstra cache, label statistics, attached store);
* :class:`QueryExecutor` — a thread-pool batch executor over a shared
  index, with per-query error isolation, deterministic result
  ordering, and batch deadlines;
* :class:`~repro.core.budget.Budget` — the single resource-limit
  object (``time_limit`` / ``epsilon`` / ``max_states`` / deadline)
  every entry point now shares;
* :class:`QueryTrace` / :class:`TraceSink` — structured per-stage
  telemetry and its JSONL sink;
* the resilience layer (:mod:`repro.service.resilience`) —
  :class:`~repro.core.budget.CancellationToken` cooperative
  cancellation, :class:`AdmissionController` pre-flight cost gating,
  and :class:`RetryPolicy` retry-with-degradation down the
  ``pruneddp++ → pruneddp → basic`` ladder;
* the durability layer (:mod:`repro.service.durability`) — engine
  :class:`Checkpointer` (crash-safe checkpoint/resume of a progressive
  search's full frontier, ``QueryExecutor(..., checkpoint_dir=...)``),
  :class:`WorkerPolicy`, and :func:`resume_query` to push an
  interrupted query to optimality;
* the fleet layer (:mod:`repro.service.fleet`) — :class:`FleetPool`
  persistent pre-forked workers attached to one shared-memory CSR
  snapshot (``QueryExecutor(..., workers=N)``): the one way to run
  solves in other processes, with a memory watchdog, hard deadlines,
  and respawn-and-resume from checkpoints, on several cores from one
  copy of the graph.

Typical use::

    from repro.service import GraphIndex, QueryExecutor, Budget

    index = GraphIndex(graph)
    with QueryExecutor(index, max_workers=4) as executor:
        outcomes = executor.run_batch(queries, budget=Budget(time_limit=1.0))
    for outcome in outcomes:
        if outcome.ok:
            print(outcome.result.weight, outcome.trace.stages)
"""

from ..core.budget import Budget, CancellationToken
from .durability import (
    Checkpointer,
    WorkerPolicy,
    checkpointed_execute,
    read_checkpoint,
    resume_query,
    write_checkpoint,
)
from .fleet import FleetPool, FleetWorker
from .index import DEFAULT_MAX_CACHED_LABELS, GraphIndex, QueryOutcome
from .executor import QueryExecutor
from .resilience import (
    DEGRADATION_LADDER,
    EPSILON_LADDER,
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    ResiliencePipeline,
    RetryPolicy,
)
from .telemetry import STAGES, QueryTrace, TraceSink

__all__ = [
    "Budget",
    "CancellationToken",
    "GraphIndex",
    "QueryOutcome",
    "QueryExecutor",
    "QueryTrace",
    "TraceSink",
    "STAGES",
    "DEFAULT_MAX_CACHED_LABELS",
    "DEGRADATION_LADDER",
    "EPSILON_LADDER",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "ResiliencePipeline",
    "RetryPolicy",
    "Checkpointer",
    "FleetPool",
    "FleetWorker",
    "WorkerPolicy",
    "checkpointed_execute",
    "read_checkpoint",
    "resume_query",
    "write_checkpoint",
]

"""Structured per-query telemetry.

Every query executed through the service layer produces one
:class:`QueryTrace`: which stages ran (context build, bound/table
preparation, search, feasible-solution construction), how long each
took, the engine's :class:`~repro.core.result.SearchStats` counters,
the shared cache's hit/miss contribution, and the outcome.  Traces are
plain data — ``to_dict`` is JSON-safe — so they can be logged,
aggregated, or streamed.

:class:`TraceSink` is the standard JSONL destination: one trace per
line, thread-safe appends (the executor's workers all write to one
sink), usable by the CLI ``batch`` command and the benchmark runner.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Tuple, Union

from ..obs.instruments import record_trace_dropped

__all__ = ["QueryTrace", "TraceSink", "STAGES"]

INF = float("inf")

# Canonical per-query stage names, in execution order.  ``search``
# excludes time spent materializing feasible trees, which is reported
# separately as ``feasible`` — so the stages partition the query's wall
# time (plus a sliver of bookkeeping overhead).
STAGES: Tuple[str, ...] = ("context_build", "bounds_build", "search", "feasible")


def _json_num(value):
    if isinstance(value, float) and value == INF:
        return "inf"
    return value


@dataclass
class QueryTrace:
    """One executed query, as the telemetry layer saw it.

    ``status`` is one of ``"ok"`` (a result came back), ``"infeasible"``
    (no component covers the labels), ``"skipped"`` (batch deadline
    expired before the query started), ``"cancelled"`` (the cooperative
    cancellation token fired mid-search), ``"rejected"`` (admission
    control refused the query) or ``"error"`` (anything else); only
    ``"ok"`` and ``"cancelled"`` traces may carry
    ``weight``/``optimal``/``ratio``.

    The resilience fields record what the executor's retry machinery
    did on the query's behalf: ``attempts`` counts solver executions
    (1 when the first try sufficed), ``retries`` holds one record per
    *failed* earlier attempt, ``degraded`` flags that the final answer
    came from a lower ladder rung (or looser epsilon) than requested,
    and ``admission`` carries the admission controller's cost estimate
    and decision.
    """

    query_id: Optional[Union[int, str]]
    labels: Tuple[Any, ...]
    algorithm: str
    status: str = "ok"
    wall_seconds: float = 0.0
    stages: Dict[str, float] = field(default_factory=dict)
    weight: Optional[float] = None
    optimal: Optional[bool] = None
    ratio: Optional[float] = None
    stats: Optional[Dict[str, Any]] = None
    cache_hits: int = 0
    cache_misses: int = 0
    index_build_seconds: float = 0.0
    error: Optional[str] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    # Persistent-store fields (see repro.store): ``store_hit`` is True
    # when the answer or any label table came from an attached store,
    # ``warm_labels`` counts query labels served from store-preloaded
    # distance tables, ``result_cache`` is "hit"/"miss" when a result
    # cache was consulted (None otherwise), and ``bounds_cache`` holds
    # the A* lower-bound memo's size/hit/miss counters.
    store_hit: bool = False
    warm_labels: int = 0
    result_cache: Optional[str] = None
    bounds_cache: Optional[Dict[str, Any]] = None
    # How long the index spent freezing the graph into its CSR snapshot
    # (0.0 when the snapshot was already cached / never built).
    snapshot_build_seconds: float = 0.0
    # Resilience-layer fields (filled in by the executor's pipeline).
    requested_algorithm: Optional[str] = None
    attempts: int = 1
    retries: List[Dict[str, Any]] = field(default_factory=list)
    degraded: bool = False
    cancelled: bool = False
    admission: Optional[Dict[str, Any]] = None
    # Durability fields (see repro.service.durability): ``checkpoints``
    # counts engine checkpoints written while this query ran,
    # ``resumed_from`` names the checkpoint file the search was restored
    # from (None for cold solves), ``worker_restarts`` counts process
    # workers respawned on this query's behalf after crashes, and
    # ``watchdog_kills`` counts memory-watchdog checkpoint-then-kill
    # interventions.
    checkpoints: int = 0
    resumed_from: Optional[str] = None
    worker_restarts: int = 0
    watchdog_kills: int = 0
    # Fleet field (see repro.service.fleet): which persistent worker
    # slot served this query (None for in-thread solves).
    fleet_worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def stage_total(self) -> float:
        """Sum of all recorded stage timings (≈ ``wall_seconds``)."""
        return sum(self.stages.values())

    def to_dict(self) -> dict:
        """JSON-serializable record (``inf`` weights become ``"inf"``)."""
        return {
            "query_id": self.query_id,
            "labels": [str(label) for label in self.labels],
            "algorithm": self.algorithm,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "stages": dict(self.stages),
            "stage_total": self.stage_total,
            "weight": _json_num(self.weight),
            "optimal": self.optimal,
            "ratio": _json_num(self.ratio),
            "stats": self.stats,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "store_hit": self.store_hit,
            "warm_labels": self.warm_labels,
            "result_cache": self.result_cache,
            "bounds_cache": self.bounds_cache,
            "snapshot_build_seconds": self.snapshot_build_seconds,
            "index_build_seconds": self.index_build_seconds,
            "error": self.error,
            "events": [
                {k: _json_num(v) for k, v in event.items()}
                for event in self.events
            ],
            "requested_algorithm": self.requested_algorithm,
            "attempts": self.attempts,
            "retries": [
                {k: _json_num(v) for k, v in record.items()}
                for record in self.retries
            ],
            "degraded": self.degraded,
            "cancelled": self.cancelled,
            "admission": self.admission,
            "checkpoints": self.checkpoints,
            "resumed_from": self.resumed_from,
            "worker_restarts": self.worker_restarts,
            "watchdog_kills": self.watchdog_kills,
            "fleet_worker": self.fleet_worker,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class TraceSink:
    """Append-only JSONL trace writer shared by concurrent workers.

    Accepts a path (opened/closed by the sink) or any writable text
    file object (flushed but left open on ``close``).  ``write`` is
    thread-safe; ``close`` is idempotent, so a sink can pass through
    several owners (executor, server drain, a ``with`` block) and each
    may close it defensively without tripping the others.
    """

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.dropped = 0
        self._closed = False
        if isinstance(destination, str):
            self.path: Optional[str] = destination
            self._file: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self.path = getattr(destination, "name", None)
            self._file = destination
            self._owns_file = False

    @property
    def closed(self) -> bool:
        return self._closed

    def write(self, trace: QueryTrace) -> None:
        """Append one trace as a JSON line (flushed immediately)."""
        line = trace.to_json()
        with self._lock:
            if self._closed:
                raise ValueError("write to a closed TraceSink")
            self._file.write(line + "\n")
            self._file.flush()
            self.count += 1

    def write_or_drop(self, trace: QueryTrace) -> bool:
        """``write``, but a closed sink drops the line instead of raising.

        This is the straggler-during-drain path: a query that finishes
        after the server closed the sink must not turn its successful
        answer into a worker error.  The dropped line is counted here
        and in the registry's ``gst_traces_dropped_total`` so the loss
        is visible instead of silent.
        """
        try:
            self.write(trace)
            return True
        except ValueError:
            with self._lock:
                self.dropped += 1
            record_trace_dropped()
            return False

    def flush(self) -> None:
        """Force buffered lines to the destination (no-op once closed)."""
        with self._lock:
            if not self._closed and not self._file.closed:
                self._file.flush()

    def close(self) -> None:
        """Flush and close.  Idempotent; borrowed files stay open."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._file.closed:
                return
            if self._owns_file:
                self._file.close()
            else:
                self._file.flush()

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

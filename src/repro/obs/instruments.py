"""The canonical metric inventory and its recording helpers.

Every metric family the serving stack emits is declared here, in one
place, through a tiny accessor function per family.  Layers never
invent names inline: the executor, index, store, resilience, and
server modules all call these helpers, so the exposition, the STATS
frame, and the docs table can never drift apart.

The no-drift guarantee for query counters comes from a single
recording point: :func:`record_query_trace` folds one finished
``QueryTrace`` into the registry after the executor resolves an
outcome.  Because the trace is the same object the legacy accounting
reports, registry totals are sums over traces *by construction* —
there is no second code path that could disagree.  (Direct
``GraphIndex.execute`` calls outside an executor are intentionally
not counted: these are serving-stack metrics.)
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    EPSILON_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)

__all__ = [
    "record_query_trace",
    "record_trace_dropped",
    "record_snapshot_build",
    "record_warm_loads",
    "record_result_cache_event",
    "register_all",
    "inventory",
]


def _reg(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    return registry if registry is not None else get_registry()


# --------------------------------------------------------------------------
# Family accessors.  One function per family; each is get-or-create so
# hot paths may call them freely (an existing family is one lock-free
# dict read).  Hot paths pass label values positionally, which makes an
# existing child one lock-free dict read too.

def queries_total(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_queries_total",
        "Queries resolved by the executor, by outcome status and algorithm.",
        ("status", "algorithm"),
    )


def query_seconds(registry: Optional[MetricsRegistry] = None) -> Histogram:
    return _reg(registry).histogram(
        "gst_query_seconds",
        "End-to-end wall seconds per executor query.",
        buckets=DEFAULT_LATENCY_BUCKETS,
    )


def stage_seconds(registry: Optional[MetricsRegistry] = None) -> Histogram:
    return _reg(registry).histogram(
        "gst_query_stage_seconds",
        "Per-stage wall seconds (context_build/bounds_build/search/feasible).",
        ("stage",),
        buckets=DEFAULT_LATENCY_BUCKETS,
    )


def epsilon_at_exit(registry: Optional[MetricsRegistry] = None) -> Histogram:
    return _reg(registry).histogram(
        "gst_epsilon_at_exit",
        "Proven (ratio - 1) optimality gap when a query returned ok.",
        buckets=EPSILON_BUCKETS,
    )


def engine_events(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_engine_events_total",
        "Engine search-loop events summed over finished queries "
        "(popped/pushed/expanded/pruned/incumbent_improved).",
        ("event",),
    )


def label_cache_events(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_label_cache_events_total",
        "Label-Dijkstra cache lookups during query execution.",
        ("event",),
    )


def result_cache_served(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_result_cache_served_total",
        "Executor queries answered from / missed by the result cache.",
        ("result",),
    )


def result_cache_events(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_result_cache_events_total",
        "ResultCache internal events (hit/miss/eviction/insertion).",
        ("event",),
    )


def store_warm_loads(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_store_warm_loads_total",
        "Label distance maps loaded warm from an attached precompute store.",
    )


def snapshot_builds(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_snapshot_builds_total",
        "CSR snapshot builds performed by GraphIndex construction.",
    )


def snapshot_build_seconds(
    registry: Optional[MetricsRegistry] = None,
) -> Histogram:
    return _reg(registry).histogram(
        "gst_snapshot_build_seconds",
        "Wall seconds spent freezing a graph into its CSR snapshot.",
        buckets=DEFAULT_LATENCY_BUCKETS,
    )


def executor_queue_depth(registry: Optional[MetricsRegistry] = None) -> Gauge:
    return _reg(registry).gauge(
        "gst_executor_queue_depth",
        "Solves enqueued on the executor and not yet resolved "
        "(result-cache hits never queue).",
    )


def executor_retries(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_executor_retries_total",
        "Retry attempts beyond the first, summed over finished queries.",
    )


def executor_degraded(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_executor_degraded_total",
        "Queries answered by a weaker algorithm than requested.",
    )


def admission_rejects(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_admission_rejects_total",
        "Queries refused by the admission controller.",
    )


def traces_dropped(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_traces_dropped_total",
        "Trace lines dropped because the sink was already closed (drain "
        "stragglers).",
    )


def checkpoints_written(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_checkpoints_written_total",
        "Engine checkpoints persisted, summed over finished queries.",
    )


def queries_resumed(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_queries_resumed_total",
        "Queries that resumed from a persisted checkpoint.",
    )


def worker_restarts(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_worker_restarts_total",
        "Worker crashes charged to a query's restart budget, summed "
        "over finished queries.",
    )


def watchdog_kills(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_watchdog_kills_total",
        "Workers killed by the RSS memory watchdog, summed over queries.",
    )


def server_events(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_server_events_total",
        "Server lifecycle events (connections, queries, errors) by type.",
        ("event",),
    )


def server_frames(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_server_frames_total",
        "Wire frames by direction and frame type.",
        ("direction", "type"),
    )


def server_inflight(registry: Optional[MetricsRegistry] = None) -> Gauge:
    return _reg(registry).gauge(
        "gst_server_inflight",
        "Queries currently being served (all connections).",
    )


def server_drain_seconds(registry: Optional[MetricsRegistry] = None) -> Gauge:
    return _reg(registry).gauge(
        "gst_server_drain_seconds",
        "Wall seconds the most recent server drain took.",
    )


def fleet_workers(registry: Optional[MetricsRegistry] = None) -> Gauge:
    return _reg(registry).gauge(
        "gst_fleet_workers",
        "Persistent fleet worker processes currently provisioned.",
    )


def fleet_shm_bytes(registry: Optional[MetricsRegistry] = None) -> Gauge:
    return _reg(registry).gauge(
        "gst_fleet_shm_bytes",
        "Bytes of the shared-memory CSR segment exported to the fleet.",
    )


def fleet_attach_seconds(
    registry: Optional[MetricsRegistry] = None,
) -> Histogram:
    return _reg(registry).histogram(
        "gst_fleet_attach_seconds",
        "Wall seconds a fleet worker spent attaching and materializing "
        "the shared snapshot.",
        buckets=DEFAULT_LATENCY_BUCKETS,
    )


def fleet_queries_total(registry: Optional[MetricsRegistry] = None) -> Counter:
    return _reg(registry).counter(
        "gst_fleet_queries_total",
        "Queries delivered by fleet workers, by worker slot.",
        ("worker",),
    )


def fleet_respawns_total(
    registry: Optional[MetricsRegistry] = None,
) -> Counter:
    return _reg(registry).counter(
        "gst_fleet_respawns_total",
        "Fleet workers respawned after crashes, watchdog kills, or "
        "hard-deadline kills.",
    )


_ACCESSORS = (
    queries_total,
    query_seconds,
    stage_seconds,
    epsilon_at_exit,
    engine_events,
    label_cache_events,
    result_cache_served,
    result_cache_events,
    store_warm_loads,
    snapshot_builds,
    snapshot_build_seconds,
    executor_queue_depth,
    executor_retries,
    executor_degraded,
    admission_rejects,
    traces_dropped,
    checkpoints_written,
    queries_resumed,
    worker_restarts,
    watchdog_kills,
    server_events,
    server_frames,
    server_inflight,
    server_drain_seconds,
    fleet_workers,
    fleet_shm_bytes,
    fleet_attach_seconds,
    fleet_queries_total,
    fleet_respawns_total,
)


def register_all(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Materialize the full inventory (zero-valued families included).

    ``python -m repro metrics`` calls this so an idle process still
    dumps every family name with its HELP/TYPE metadata.
    """
    registry = _reg(registry)
    for accessor in _ACCESSORS:
        accessor(registry)
    return registry


def inventory(
    registry: Optional[MetricsRegistry] = None,
) -> List[Tuple[str, str, Tuple[str, ...], str]]:
    """``(name, type, labelnames, help)`` rows — the docs table source."""
    registry = register_all(registry if registry is not None else MetricsRegistry())
    rows = []
    for name in registry.names():
        metric = registry.get(name)
        rows.append((name, metric.kind, metric.labelnames, metric.help))
    return rows


# --------------------------------------------------------------------------
# Recording helpers (the instrumentation call sites)

def record_query_trace(
    trace: Any, registry: Optional[MetricsRegistry] = None
) -> None:
    """Fold one finished ``QueryTrace`` into the registry.

    Called exactly once per executor query (in-thread or on the
    fleet), after the outcome is resolved — the single point that
    keeps registry totals equal to sums over traces.
    """
    registry = _reg(registry)
    status = trace.status or "unknown"
    algorithm = trace.algorithm or trace.requested_algorithm or "unknown"
    queries_total(registry).labels(status, algorithm).inc()
    if trace.wall_seconds is not None:
        query_seconds(registry).observe(trace.wall_seconds)
    stage_hist = stage_seconds(registry)
    for stage, seconds in (trace.stages or {}).items():
        stage_hist.labels(stage).observe(seconds)

    engine = engine_events(registry)
    stats = trace.stats or {}
    for event, key in (
        ("popped", "states_popped"),
        ("pushed", "states_pushed"),
        ("expanded", "states_expanded"),
        ("pruned", "states_pruned"),
        ("incumbent_improved", "incumbent_improvements"),
    ):
        count = stats.get(key, 0)
        if count:
            engine.labels(event).inc(count)

    caches = label_cache_events(registry)
    if trace.cache_hits:
        caches.labels("hit").inc(trace.cache_hits)
    if trace.cache_misses:
        caches.labels("miss").inc(trace.cache_misses)
    if trace.result_cache in ("hit", "miss"):
        result_cache_served(registry).labels(trace.result_cache).inc()

    if status == "ok":
        ratio = trace.ratio
        if ratio is not None and math.isfinite(ratio):
            epsilon_at_exit(registry).observe(max(0.0, ratio - 1.0))

    if trace.attempts and trace.attempts > 1:
        executor_retries(registry).inc(trace.attempts - 1)
    if trace.degraded:
        executor_degraded(registry).inc()
    if status == "rejected":
        admission_rejects(registry).inc()

    if trace.checkpoints:
        checkpoints_written(registry).inc(trace.checkpoints)
    if trace.resumed_from:
        queries_resumed(registry).inc()
    if trace.worker_restarts:
        worker_restarts(registry).inc(trace.worker_restarts)
    if trace.watchdog_kills:
        watchdog_kills(registry).inc(trace.watchdog_kills)


def record_trace_dropped(registry: Optional[MetricsRegistry] = None) -> None:
    traces_dropped(registry).inc()


def record_snapshot_build(
    seconds: float, registry: Optional[MetricsRegistry] = None
) -> None:
    snapshot_builds(registry).inc()
    snapshot_build_seconds(registry).observe(seconds)


def record_warm_loads(
    count: int, registry: Optional[MetricsRegistry] = None
) -> None:
    if count:
        store_warm_loads(registry).inc(count)


def record_result_cache_event(
    event: str, amount: int = 1, registry: Optional[MetricsRegistry] = None
) -> None:
    if amount:
        result_cache_events(registry).labels(event).inc(amount)

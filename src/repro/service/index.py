"""The shared, immutable graph index every query-service path runs on.

A :class:`GraphIndex` is one graph plus everything worth amortizing
across queries:

* the frozen CSR snapshot every query's search runs on,
* the per-label multi-source Dijkstra cache
  (:class:`~repro.core.cache.LabelDistanceCache`, LRU-bounded here so a
  long-tailed label stream cannot grow memory without bound),
* label statistics (frequencies, used by planners and workloads),
* an optional attached precompute store and its result cache.

Build one index per graph, share it freely across threads (all mutable
internals are lock-protected), and route every solve through
:meth:`solve` / :meth:`execute`.  The contract is the standard index
contract — the underlying graph must not be mutated while indexed.
An infeasible query is answered after its label Dijkstras, by
:meth:`QueryContext.require_feasible
<repro.core.context.QueryContext.require_feasible>`.

:meth:`execute` is the telemetry-bearing entry point: it never raises,
returning a :class:`QueryOutcome` that carries either a result or the
captured error, plus a :class:`~repro.service.telemetry.QueryTrace`
with per-stage timings.  :meth:`solve` is the thin raising wrapper the
one-shot facade (:func:`repro.core.solver.solve_gst`) delegates to.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence, Tuple, Union

from ..core.budget import Budget
from ..core.cache import LabelDistanceCache
from ..core.result import GSTResult
from ..core.solver import ALGORITHMS
from ..errors import (
    InfeasibleQueryError,
    LimitExceededError,
    QueryCancelledError,
    ReproError,
    StoreError,
)
from ..graph.graph import Graph
from ..obs import instruments
from .telemetry import QueryTrace

__all__ = ["GraphIndex", "QueryOutcome", "DEFAULT_MAX_CACHED_LABELS"]

# Default LRU bound for the shared label cache: generous for realistic
# vocabularies, but a hard ceiling against unbounded growth.
DEFAULT_MAX_CACHED_LABELS = 4096

_MAX_TRACE_EVENTS = 64


@dataclass
class QueryOutcome:
    """One query's result *or* captured error, plus its trace.

    The executor returns these so a single infeasible or failing query
    cannot sink the batch; ``raise_for_error`` restores raising
    behavior where that is wanted.
    """

    query_id: Optional[Union[int, str]]
    labels: Tuple[Hashable, ...]
    algorithm: str
    result: Optional[GSTResult]
    error: Optional[BaseException]
    trace: QueryTrace

    @property
    def ok(self) -> bool:
        return self.error is None

    def raise_for_error(self) -> GSTResult:
        """Return the result, re-raising the captured error if any."""
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class GraphIndex:
    """Immutable-graph handle owning the cross-query caches."""

    def __init__(
        self,
        graph: Graph,
        *,
        max_cached_labels: Optional[int] = DEFAULT_MAX_CACHED_LABELS,
        cache: Optional[LabelDistanceCache] = None,
    ) -> None:
        started = time.perf_counter()
        self.graph = graph
        # Freeze once: the CSR snapshot is immutable, so every query on
        # this index (across all executor threads) shares it without
        # locking, and the whole read path runs on the flat kernels.
        freeze_started = time.perf_counter()
        self.snapshot = graph.freeze()
        self.snapshot_build_seconds = time.perf_counter() - freeze_started
        instruments.record_snapshot_build(self.snapshot_build_seconds)
        if cache is not None:
            if cache.graph is not graph:
                raise ValueError(
                    "distance cache was built for a different graph; "
                    "caches cannot be shared across graphs"
                )
            self.cache = cache
        else:
            self.cache = LabelDistanceCache(graph, max_labels=max_cached_labels)
        self._lock = threading.Lock()
        # Persistent-store attachment (see repro.store / attach_store).
        self.store = None
        self.result_cache = None
        self.warm_loaded = 0
        self.build_seconds = time.perf_counter() - started

    @classmethod
    def ensure(cls, graph_or_index: Union[Graph, "GraphIndex"]) -> "GraphIndex":
        """Coerce a raw graph to an index (identity on an index)."""
        if isinstance(graph_or_index, GraphIndex):
            return graph_or_index
        return cls(graph_or_index)

    # ------------------------------------------------------------------
    # Persistent precompute store (repro.store)
    # ------------------------------------------------------------------
    def attach_store(self, store) -> int:
        """Bind a :class:`~repro.store.PrecomputeStore` to this index.

        Verifies the store's snapshot fingerprint (raising a typed
        :class:`~repro.errors.StoreError` on mismatch — fail closed),
        warm-loads the label-Dijkstra cache from every stored distance
        table, and loads the persisted epsilon-aware result cache.
        Returns the number of label tables preloaded.  Store provenance
        is recorded on the index (``store``, ``warm_loaded``) and shows
        up in :meth:`cache_info` and every :class:`QueryTrace`.
        """
        from ..store.store import PrecomputeStore

        if isinstance(store, str):
            store = PrecomputeStore.open(store, self.graph)
        else:
            store.check_graph(self.graph)
        loaded = store.warm(self.cache)
        result_cache = store.load_result_cache()
        with self._lock:
            self.store = store
            self.warm_loaded = loaded
            self.result_cache = result_cache
        instruments.record_warm_loads(loaded)
        return loaded

    @classmethod
    def open(cls, path: str, graph: Optional[Graph] = None, **index_kwargs) -> "GraphIndex":
        """Open a store directory as a ready-warmed index.

        With no ``graph``, the graph is reloaded from the
        ``graph_stem`` the builder recorded in the manifest (a missing
        stem fails closed with :class:`~repro.errors.StoreError`).
        Either way :meth:`attach_store` checks the fingerprint before
        any artifact is trusted.
        """
        from ..graph.io import load_graph
        from ..store.store import PrecomputeStore

        store = PrecomputeStore.open(path)
        if graph is None:
            stem = store.manifest.graph_stem
            if not stem:
                raise StoreError(
                    f"store {path!r} records no graph_stem; pass the graph "
                    "explicitly: GraphIndex.open(path, graph)"
                )
            try:
                graph = load_graph(stem)
            except Exception as exc:
                raise StoreError(
                    f"store {path!r}: cannot reload graph from stem "
                    f"{stem!r}: {exc}"
                ) from None
        index = cls(graph, **index_kwargs)
        index.attach_store(store)
        return index

    def save_results(self) -> int:
        """Persist the live result cache back to the attached store."""
        if self.store is None or self.result_cache is None:
            return 0
        return self.store.save_result_cache(self.result_cache)

    def cached_outcome(
        self,
        labels: Iterable[Hashable],
        *,
        algorithm: str = "pruneddp++",
        budget: Optional[Budget] = None,
        query_id: Optional[Union[int, str]] = None,
    ) -> Optional["QueryOutcome"]:
        """A :class:`QueryOutcome` served from the result cache, or None.

        The epsilon-aware reuse rule: a cached answer proven within
        ``(1+ε)`` serves this request only when the budget's
        ``ε' ≥ ε`` (same label set, same resolved algorithm tier).
        Never raises — any resolution error means "no cached answer"
        and the caller runs the normal path.
        """
        if self.result_cache is None:
            return None
        labels = tuple(labels)
        started = time.perf_counter()
        try:
            key = self.resolve_algorithm(algorithm, labels)
        except ValueError:
            return None
        epsilon = budget.epsilon if budget is not None else 0.0
        entry = self.result_cache.lookup(labels, key, epsilon)
        if entry is None:
            return None
        result = entry.to_result(labels, ALGORITHMS[key].algorithm_name)
        trace = QueryTrace(
            query_id=query_id,
            labels=labels,
            algorithm=key,
            index_build_seconds=self.build_seconds,
            store_hit=True,
            result_cache="hit",
        )
        trace.weight = result.weight
        trace.optimal = result.optimal
        trace.ratio = result.ratio
        trace.wall_seconds = time.perf_counter() - started
        return QueryOutcome(
            query_id=query_id,
            labels=labels,
            algorithm=key,
            result=result,
            error=None,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # Graph / label statistics
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def num_labels(self) -> int:
        return self.graph.num_labels

    def label_frequency(self, label: Hashable) -> int:
        return self.graph.label_frequency(label)

    def cache_info(self) -> dict:
        """Hit/miss/eviction counters of the shared label cache.

        Flat label-cache counters (``hits``/``misses``/``evictions``/
        ``warm_loads``/...) plus, when a store is attached, its
        provenance under ``"store"`` and the result cache's counters
        under ``"result_cache"`` — so warm-load effectiveness is
        observable, not just cache size.
        """
        info = self.cache.counters()
        info["snapshot"] = self.snapshot.info()
        info["store"] = (
            {
                "path": self.store.path,
                "fingerprint": self.store.manifest.snapshot_fingerprint,
                "stored_labels": len(self.store.manifest.labels),
                "warm_loaded": self.warm_loaded,
            }
            if self.store is not None
            else None
        )
        info["result_cache"] = (
            self.result_cache.counters() if self.result_cache is not None else None
        )
        return info

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def resolve_algorithm(self, algorithm: str, labels: Sequence[Hashable]) -> str:
        """Canonical solver key for ``algorithm`` (``"auto"`` is planned).

        Raises ValueError naming the choices for anything else, a
        non-string included.
        """
        key = algorithm.lower() if isinstance(algorithm, str) else None
        if key == "auto":
            from ..core.planner import plan_algorithm

            key, _ = plan_algorithm(self.graph, labels)
        if key not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{sorted(ALGORITHMS) + ['auto']}"
            )
        return key

    def solve(
        self,
        labels: Iterable[Hashable],
        *,
        algorithm: str = "pruneddp++",
        budget: Optional[Budget] = None,
        **solver_kwargs,
    ) -> GSTResult:
        """Solve one query on the shared index (raises on failure)."""
        outcome = self.execute(
            labels, algorithm=algorithm, budget=budget, **solver_kwargs
        )
        return outcome.raise_for_error()

    def execute(
        self,
        labels: Iterable[Hashable],
        *,
        algorithm: str = "pruneddp++",
        budget: Optional[Budget] = None,
        query_id: Optional[Union[int, str]] = None,
        use_result_cache: bool = True,
        **solver_kwargs,
    ) -> QueryOutcome:
        """Run one query, capturing errors and per-stage telemetry.

        Never raises: infeasible queries, expired deadlines and solver
        errors all come back as a :class:`QueryOutcome` whose ``error``
        field holds the exception (``result`` is then ``None``).

        When a store's result cache is attached it is consulted first
        (``use_result_cache=False`` skips the check — the executor sets
        this after doing its own pre-admission lookup) and successful
        outcomes are written back.
        """
        labels = tuple(labels)
        if use_result_cache and self.result_cache is not None:
            cached = self.cached_outcome(
                labels,
                algorithm=algorithm,
                budget=budget,
                query_id=query_id,
            )
            if cached is not None:
                return cached
        wall_started = time.perf_counter()
        trace = QueryTrace(
            query_id=query_id,
            labels=labels,
            algorithm=algorithm,
            index_build_seconds=self.build_seconds,
            snapshot_build_seconds=self.snapshot_build_seconds,
        )
        events = trace.events

        def on_event(name: str, payload: dict) -> None:
            if len(events) < _MAX_TRACE_EVENTS:
                record = {"event": name}
                record.update(payload)
                events.append(record)

        result: Optional[GSTResult] = None
        error: Optional[BaseException] = None
        try:
            key = self.resolve_algorithm(algorithm, labels)
            trace.algorithm = key
            if budget is not None and budget.expired():
                trace.status = "skipped"
                raise LimitExceededError(
                    "batch deadline expired before query started"
                )
            if budget is not None and budget.cancelled():
                trace.status = "cancelled"
                trace.cancelled = True
                reason = budget.cancel_token.reason
                raise QueryCancelledError(
                    "query cancelled before it started"
                    + (f": {reason}" if reason else "")
                )
            solver_cls = ALGORITHMS[key]
            if self.result_cache is not None:
                trace.result_cache = "miss"
            # Everything from here to a built context is per-query
            # preprocessing: label-cache accounting, solver construction
            # (query coercion) and the label
            # Dijkstras.  Timing all of it as context_build keeps the
            # four stages a partition of the wall time on fast queries.
            stage_started = time.perf_counter()
            try:
                distinct = set(labels)
                trace.cache_hits = sum(1 for label in distinct if label in self.cache)
                trace.cache_misses = len(distinct) - trace.cache_hits
                trace.warm_labels = sum(
                    1 for label in distinct if self.cache.is_warm(label)
                )
                trace.store_hit = trace.warm_labels > 0
                solver = solver_cls(
                    self.graph,
                    labels,
                    budget=budget,
                    distance_cache=self.cache,
                    on_event=on_event,
                    **solver_kwargs,
                )
                context = solver.build_context()
            finally:
                trace.stages["context_build"] = time.perf_counter() - stage_started
            stage_started = time.perf_counter()
            prepared = solver.prepare(context)
            trace.stages["bounds_build"] = time.perf_counter() - stage_started
            stage_started = time.perf_counter()
            result = solver.run_search(context, prepared)
            search_wall = time.perf_counter() - stage_started
            if result.stats.cancelled:
                # The token fired mid-search.  The progressive contract
                # makes any incumbent feasible tree a valid (bounded-gap)
                # answer; without one the cancellation is an error.
                trace.status = "cancelled"
                trace.cancelled = True
                if result.tree is None:
                    result = None
                    reason = (
                        budget.cancel_token.reason
                        if budget is not None and budget.cancel_token is not None
                        else None
                    )
                    raise QueryCancelledError(
                        "query cancelled before any feasible answer was found"
                        + (f": {reason}" if reason else "")
                    )
            feasible = result.stats.feasible_seconds
            trace.stages["search"] = max(0.0, search_wall - feasible)
            trace.stages["feasible"] = feasible
            trace.weight = result.weight
            trace.optimal = result.optimal
            trace.ratio = result.ratio
            trace.stats = result.stats.to_dict()
            if prepared is not None and prepared[0] is not None:
                trace.bounds_cache = prepared[0].cache_info()
            if self.result_cache is not None and trace.status == "ok":
                # Write back: later requests with the same label set,
                # tier, and an epsilon no tighter than what this run
                # proved are served straight from the cache.
                self.result_cache.put(labels, key, result)
        except InfeasibleQueryError as exc:
            trace.status = "infeasible"
            trace.error = str(exc)
            error = exc
        except ReproError as exc:
            if trace.status == "ok":
                trace.status = "error"
            trace.error = str(exc)
            error = exc
        except Exception as exc:  # per-query isolation: no batch sinking
            trace.status = "error"
            trace.error = f"{type(exc).__name__}: {exc}"
            error = exc
        trace.wall_seconds = time.perf_counter() - wall_started
        return QueryOutcome(
            query_id=query_id,
            labels=labels,
            algorithm=trace.algorithm,
            result=result,
            error=error,
            trace=trace,
        )

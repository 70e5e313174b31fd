"""Concurrent batch execution over one shared :class:`GraphIndex`.

The workload GST keyword search was built for is many small queries
against one immutable graph.  :class:`QueryExecutor` is that serving
layer: a thread pool (``max_workers``) draining queries against a
shared index, with

* **per-query error isolation** — an infeasible or crashing query
  yields a failed :class:`~repro.service.index.QueryOutcome`, never an
  exception out of the batch;
* **deterministic ordering** — ``run_batch`` returns outcomes in
  submission order regardless of completion order;
* **deadlines** — a batch-wide wall-clock allowance threaded through
  the shared :class:`~repro.core.budget.Budget`: queries started near
  the deadline get a clamped time limit, queries after it are skipped;
* **cancellation** — pass a
  :class:`~repro.core.budget.CancellationToken` to ``run_batch`` /
  ``submit`` (or attach one to the budget) and every in-flight query
  stops within a bounded number of state pops;
* **resilience** — optional admission control and a retry/degradation
  ladder (see :mod:`repro.service.resilience`), composed into one
  pipeline every query runs through;
* **cache-hit certification** — with ``certify_cache_hits=True`` every
  answer served from the persistent result cache is re-validated
  against the live graph by :mod:`repro.verify`; a failing entry is
  evicted and the query runs for real;
* **telemetry** — every outcome carries a
  :class:`~repro.service.telemetry.QueryTrace`; give the executor a
  :class:`~repro.service.telemetry.TraceSink` to stream them as JSONL.

A result-cache hit never reaches a pool: :meth:`QueryExecutor.cached`
serves it on the caller's thread, and it is the serving path's one
result-cache lookup.  Each solve backend behind it — ``index.execute``,
:func:`~repro.service.durability.checkpointed_execute`,
:meth:`FleetPool.execute <repro.service.fleet.FleetPool.execute>` —
takes one explicit set of keywords (labels, ``algorithm``, ``budget``,
``query_id``, and ``on_progress`` for in-thread solves) and looks
nothing up again; a solved answer is still written back.

Solves run on the executor's threads by default: per-label Dijkstras
and DP searches release no GIL, so the win is cache amortization and
overlap of waiting, not CPU parallelism.  With ``workers=N`` each
solve instead runs in one of N
persistent pre-forked processes
(:class:`~repro.service.fleet.FleetPool`) attached zero-copy to one
shared-memory CSR snapshot — multi-core throughput, and hangs, OOM
kills, and hard crashes contained to one query.  When a
``checkpoint_dir`` is set, a killed worker's query resumes from its
latest engine checkpoint instead of restarting cold.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import (
    Callable,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from ..core.budget import Budget, CancellationToken
from ..graph.graph import Graph
from ..obs import instruments
from .index import GraphIndex, QueryOutcome
from .resilience import (
    AdmissionController,
    AdmissionPolicy,
    ResiliencePipeline,
    RetryPolicy,
)
from .telemetry import TraceSink

__all__ = ["QueryExecutor"]


def _default_workers() -> int:
    return min(8, os.cpu_count() or 1)


class QueryExecutor:
    """A worker pool answering GST queries over one shared index."""

    def __init__(
        self,
        index: Union[Graph, GraphIndex],
        *,
        max_workers: Optional[int] = None,
        algorithm: str = "pruneddp++",
        budget: Optional[Budget] = None,
        trace_sink: Optional[Union[TraceSink, str]] = None,
        admission: Optional[Union[AdmissionController, AdmissionPolicy]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        certify_cache_hits: bool = False,
        checkpoint_dir: Optional[str] = None,
        worker_policy=None,
        workers: Optional[int] = None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.index = GraphIndex.ensure(index)
        # A fleet of N processes needs at least N submitting threads in
        # front of it, or the warm workers can never all be busy.
        self.max_workers = max_workers or max(_default_workers(), workers or 0)
        self.algorithm = algorithm
        self.budget = budget
        # A sink given as a path is opened here and is therefore ours to
        # close on shutdown; a pre-built TraceSink is borrowed — the
        # caller may keep writing through it after we are gone, so
        # shutdown only flushes it.
        self._owns_trace_sink = isinstance(trace_sink, str)
        self.trace_sink = (
            TraceSink(trace_sink) if isinstance(trace_sink, str) else trace_sink
        )
        # Re-validate answers served from the persistent result cache
        # against the *live* graph (repro.verify).  A store built from a
        # different-but-fingerprint-colliding graph, or a corrupted
        # record, is evicted and the query falls through to a real solve.
        self.certify_cache_hits = certify_cache_hits
        if isinstance(admission, AdmissionPolicy):
            admission = AdmissionController(self.index, admission)
        self._pipeline = ResiliencePipeline(
            admission=admission, retry_policy=retry_policy
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="gst-query"
        )
        # The fleet forks lazily-warmed state, so it is built eagerly
        # here — before any query thread could be holding an index lock.
        self.checkpoint_dir = checkpoint_dir
        self.worker_pool = None
        if workers is not None:
            from .fleet import FleetPool

            self.worker_pool = FleetPool(
                self.index,
                workers=workers,
                checkpoint_dir=checkpoint_dir,
                policy=worker_policy,
            )
        self._worker_policy = worker_policy
        self._closed = False

    @property
    def isolation(self) -> str:
        """Where solves run: ``"fleet"`` with ``workers=N``, else ``"thread"``."""
        return "thread" if self.worker_pool is None else "fleet"

    # ------------------------------------------------------------------
    def submit(
        self,
        labels: Iterable[Hashable],
        *,
        algorithm: Optional[str] = None,
        budget: Optional[Budget] = None,
        query_id=None,
        cancel_token: Optional[CancellationToken] = None,
        on_progress: Optional[Callable] = None,
    ) -> "Future[QueryOutcome]":
        """Answer one query; the future resolves to a QueryOutcome.

        Two steps: :meth:`cached`, then :meth:`enqueue` on a miss.  A
        result-cache hit comes back as an already-resolved future,
        without touching the pool.  The future itself never carries an
        exception from the solve — errors are captured inside the
        outcome (isolation contract).  ``cancel_token`` (or one already
        on the budget) cancels the query cooperatively: the engine
        stops within a bounded number of state pops and the outcome
        records ``status="cancelled"``.  ``on_progress`` receives every
        improved incumbent as a
        :class:`~repro.core.result.ProgressPoint` *on the worker
        thread* — it must be cheap and thread-safe.  Progress streaming
        needs in-thread solves (a callback cannot cross a process
        boundary, so an executor with ``workers=N`` rejects it);
        served-from-cache answers emit no progress.
        """
        self._check_submittable(on_progress)
        labels = tuple(labels)
        outcome = self.cached(
            labels,
            algorithm=algorithm,
            budget=budget,
            query_id=query_id,
        )
        if outcome is None:
            return self.enqueue(
                labels,
                algorithm=algorithm,
                budget=budget,
                query_id=query_id,
                cancel_token=cancel_token,
                on_progress=on_progress,
            )
        future: "Future[QueryOutcome]" = Future()
        future.set_result(outcome)
        return future

    def cached(
        self,
        labels: Iterable[Hashable],
        *,
        algorithm: Optional[str] = None,
        budget: Optional[Budget] = None,
        query_id=None,
    ) -> Optional[QueryOutcome]:
        """The query's answer from the result cache, or None on a miss.

        The executor's one result-cache lookup, run on the caller's
        thread: :meth:`submit` calls it before enqueueing, and the
        server calls it on its event loop, so a hit costs no thread
        hop.  It runs before admission control — a stored answer whose
        proven epsilon satisfies the request costs nothing to serve, so
        it must not be rejected or retried.  With
        ``certify_cache_hits=True`` the hit is certified here first; a
        failing entry is evicted and None is returned.  A hit is
        recorded like any finished query (trace sink and registry).  On
        a miss nothing is recorded yet: :meth:`enqueue` the query, and
        its solve records it.
        """
        if self.index.result_cache is None:
            return None
        outcome = self.index.cached_outcome(
            labels,
            algorithm=algorithm or self.algorithm,
            budget=budget if budget is not None else self.budget,
            query_id=query_id,
        )
        if outcome is None or (
            self.certify_cache_hits and not self._certified_hit(outcome)
        ):
            return None
        return self._record(outcome)

    def enqueue(
        self,
        labels: Iterable[Hashable],
        *,
        algorithm: Optional[str] = None,
        budget: Optional[Budget] = None,
        query_id=None,
        cancel_token: Optional[CancellationToken] = None,
        on_progress: Optional[Callable] = None,
    ) -> "Future[QueryOutcome]":
        """Queue one query for a solve, with no result-cache lookup.

        The second step of :meth:`submit` (same arguments), for a
        caller whose :meth:`cached` already missed: the miss is counted
        once, and the solve writes a successful answer back.
        """
        self._check_submittable(on_progress)
        effective = budget if budget is not None else self.budget
        if cancel_token is not None:
            effective = (effective or Budget()).with_cancellation(cancel_token)
        future = self._pool.submit(
            self._run_one,
            tuple(labels),
            algorithm or self.algorithm,
            effective,
            query_id,
            on_progress,
        )
        # Queue-depth gauge: up on enqueue, down when the future settles
        # (including cancellation by shutdown(wait=False), which is why
        # the decrement rides the done-callback, not _run_one).
        depth = instruments.executor_queue_depth()
        depth.inc()
        future.add_done_callback(lambda _f: depth.dec())
        return future

    def _check_submittable(self, on_progress: Optional[Callable]) -> None:
        if self._closed:
            raise RuntimeError("executor is shut down")
        if on_progress is not None and self.isolation != "thread":
            raise ValueError(
                "on_progress needs in-thread solves (no workers=); a "
                "progress callback cannot cross a process boundary"
            )

    def run_batch(
        self,
        queries: Sequence[Iterable[Hashable]],
        *,
        algorithm: Optional[str] = None,
        budget: Optional[Budget] = None,
        deadline: Optional[float] = None,
        cancel_token: Optional[CancellationToken] = None,
        on_progress: Optional[Callable] = None,
    ) -> List[QueryOutcome]:
        """Run a batch concurrently; outcomes come back in input order.

        ``deadline`` (seconds) bounds the *whole batch*: every query
        shares one budget whose absolute deadline starts now.  Queries
        reaching the front after it passes are skipped (their outcome
        says so); queries started close to it run with what remains.
        ``cancel_token`` is shared by every query in the batch: cancel
        it and running queries return their best-so-far answers while
        queued ones come back ``cancelled`` without starting.
        ``on_progress(query_id, point)`` receives every improved
        incumbent of every query, interleaved, on worker threads —
        the ``query_id`` (the query's batch position) disambiguates.
        """
        batch_budget = budget if budget is not None else self.budget
        if deadline is not None:
            batch_budget = (batch_budget or Budget()).with_deadline(deadline)
        if cancel_token is not None:
            batch_budget = (batch_budget or Budget()).with_cancellation(
                cancel_token
            )
        futures: List["Future[QueryOutcome]"] = []
        try:
            for i, labels in enumerate(queries):
                query_progress = None
                if on_progress is not None:
                    query_progress = (
                        lambda point, _i=i: on_progress(_i, point)
                    )
                futures.append(
                    self.submit(
                        labels,
                        algorithm=algorithm,
                        budget=batch_budget,
                        query_id=i,
                        on_progress=query_progress,
                    )
                )
        except Exception as exc:
            # A mid-loop submit failure (e.g. a concurrent shutdown) must
            # not abandon already-enqueued work: cancel whatever has not
            # started and surface one clean error for the whole batch.
            for future in futures:
                future.cancel()
            raise RuntimeError(
                f"run_batch aborted after enqueueing {len(futures)} of "
                f"{len(queries)} queries: {exc}"
            ) from exc
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def _run_one(
        self,
        labels,
        algorithm: str,
        budget: Optional[Budget],
        query_id,
        on_progress: Optional[Callable],
    ) -> QueryOutcome:
        outcome = self._pipeline.run(
            self.index,
            labels,
            algorithm=algorithm,
            budget=budget,
            query_id=query_id,
            execute=self._execute_callable(on_progress),
        )
        return self._record(outcome)

    def _record(self, outcome: QueryOutcome) -> QueryOutcome:
        if self.trace_sink is not None:
            # A drain (or shutdown(wait=False)) may close the sink while
            # a straggler query is still finishing; the late line is
            # dropped and counted, never raised.
            self.trace_sink.write_or_drop(outcome.trace)
        # The single registry recording point: every executor query —
        # in-thread or on the fleet, cache hit or real solve — folds
        # its trace in here, so registry totals equal sums over traces.
        instruments.record_query_trace(outcome.trace)
        return outcome

    def _execute_callable(self, on_progress: Optional[Callable]):
        """The solve backend every attempt of one query runs through.

        An executor with ``workers=N`` routes attempts into the
        supervised fleet (``_check_submittable`` refused any
        ``on_progress``); an in-thread executor with a
        ``checkpoint_dir`` wraps the index in
        :func:`~repro.service.durability.checkpointed_execute` (same
        durability guarantees, in-process); otherwise this is the plain
        ``index.execute``.  Each takes the labels, ``algorithm``,
        ``budget`` and ``query_id`` of an attempt; ``on_progress`` is
        bound here, once.  None of them looks in the result cache:
        :meth:`cached` already missed.  A solved answer is still
        written back.
        """
        if self.worker_pool is not None:
            return self.worker_pool.execute
        if self.checkpoint_dir is not None:
            from .durability import checkpointed_execute

            return partial(
                checkpointed_execute,
                self.index,
                checkpoint_dir=self.checkpoint_dir,
                policy=self._worker_policy,
                on_progress=on_progress,
            )
        return partial(
            self.index.execute, use_result_cache=False, on_progress=on_progress
        )

    def _certified_hit(self, outcome: QueryOutcome) -> bool:
        """Certify a cache-served answer; evict and miss on violation."""
        from ..verify.certify import certify_result

        certificate = certify_result(
            self.index.graph, outcome.result, labels=outcome.labels
        )
        if certificate.ok:
            return True
        if self.index.result_cache is not None:
            self.index.result_cache.invalidate(
                outcome.labels, outcome.algorithm
            )
        return False

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; ``wait=False`` also cancels pending work.

        The guarantee: after ``shutdown(wait=False)`` returns, no
        *not-yet-started* query will ever run — their futures resolve
        cancelled instead of lingering in the queue until the process
        exits (the pre-3.9-style leak this method used to have).
        Queries already executing are not interrupted either way; pass
        a :class:`~repro.core.budget.CancellationToken` to stop those
        cooperatively.  With ``wait=True`` the call blocks until every
        started query has finished.  Fleet workers are drained —
        in-flight queries checkpoint and deliver — before they exit
        (``wait=True``), or are killed (``wait=False``).

        The attached trace sink is flushed after the pool stops (no
        buffered JSONL line is ever dropped by a drain) and closed iff
        the executor opened it itself (``trace_sink`` given as a path);
        borrowed sinks stay open for their real owner.
        """
        self._closed = True
        if self.worker_pool is not None:
            self.worker_pool.shutdown(wait=wait)
        self._pool.shutdown(wait=wait, cancel_futures=not wait)
        if self.trace_sink is not None:
            if self._owns_trace_sink:
                self.trace_sink.close()
            else:
                self.trace_sink.flush()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

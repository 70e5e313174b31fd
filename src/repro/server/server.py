"""The asyncio streaming query server: :class:`GSTServer`.

The paper's headline property is *progressiveness* — every solver
maintains a monotone stream of ``(elapsed, UB, LB)`` incumbents.  This
module puts that stream on the wire: a :class:`GSTServer` owns one
:class:`~repro.service.GraphIndex` plus a
:class:`~repro.service.QueryExecutor`, speaks the length-prefixed
NDJSON protocol of :mod:`repro.server.protocol` over TCP, and forwards
every improved incumbent to the client as a ``PROGRESS`` frame the
moment the engine reports it — so a remote caller gets an anytime
answer with a sound approximation guarantee at every instant, exactly
like an in-process embedder.

Threading model
---------------
The network runs on one asyncio event loop.  A ``QUERY`` is validated
there, then looked up in the result cache there too
(:meth:`QueryExecutor.cached <repro.service.QueryExecutor.cached>`):
a hit is answered on the loop at once, with no task, no cancellation
token, no in-flight slot and no thread hop, and it has no ``PROGRESS``
frames.  Only a miss becomes a task, and its solve runs on the
executor's worker threads.  The solver's ``on_progress`` callback
fires on a worker thread — for a query with cold labels already
during its context build, while the label Dijkstras run, so its stream
starts before the build ends and differs from a warm query's — and
appends the point to its query's pending list; only a point that
finds that list empty bridges into the loop, with
``loop.call_soon_threadsafe`` — the only thread-crossing point.  The
frame leaves when the loop next holds the GIL, which the worker thread
gives up at the interpreter's switch interval.
So a burst of points costs one wakeup: the loop callback takes the
whole list, encodes one ``PROGRESS`` frame per point, and writes them
with one ``writer.write``.  ``call_soon_threadsafe`` is FIFO, and the
future's completion callback is scheduled *after* the engine's last
``on_progress`` has returned — by then every point is in a list whose
flush is already queued — so a query's ``PROGRESS`` frames always
precede its ``RESULT`` on the wire.  The connection awaits ``drain()``
after each read chunk's frames, so answers made inline still respect
the client's receive window.

Resilience wiring
-----------------
The executor's whole pipeline applies unchanged: admission rejections
come back as ``ERROR code="rejected"`` (with the cost estimate),
infeasible queries as ``code="infeasible"``.  A client disconnect fires
the per-query :class:`~repro.core.budget.CancellationToken` of
everything it had in flight, so the engine stops within its bounded pop
interval instead of burning a worker for an audience that left.
Per-connection concurrency is capped at ``max_inflight`` (``ERROR
code="overloaded"`` beyond it); cache hits take no slot.  A malformed
``QUERY`` — a null, list or object ``id``, bad ``labels``, an unknown
or non-string ``algorithm``, or a budget override that does not parse
— is answered with ``ERROR code="bad_request"``; the connection stays
open.

Shutdown is a graceful *drain*: stop accepting connections, refuse new
``QUERY`` frames (``code="draining"``), let in-flight queries finish —
or, past ``drain_grace`` seconds, cancel them so they return (and,
when a ``checkpoint_dir`` is configured, checkpoint) their best anytime
answers — then shut the executor down, which flushes and closes the
attached :class:`~repro.service.TraceSink`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Dict, List, Optional, Set, Union

from ..core.budget import Budget, CancellationToken
from ..errors import (
    InfeasibleQueryError,
    LimitExceededError,
    ProtocolError,
    QueryCancelledError,
    QueryError,
    QueryRejectedError,
)
from ..graph.graph import Graph
from ..obs import get_registry, instruments
from ..obs.http import start_metrics_server
from ..service.executor import QueryExecutor
from ..service.index import GraphIndex, QueryOutcome
from . import protocol
from .protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    error_frame,
    hello_frame,
    progress_frame,
    result_frame,
    stats_frame,
)

__all__ = ["GSTServer", "ServerStats", "DEFAULT_MAX_INFLIGHT"]

# Per-connection cap on concurrently running queries.  One TCP client
# is one tenant; the executor's worker pool is the shared resource this
# cap protects.
DEFAULT_MAX_INFLIGHT = 4

_READ_CHUNK = 1 << 16

# JSON ids that cannot key the per-connection in-flight table.
_UNHASHABLE_IDS = (list, dict)


class ServerStats:
    """Monotone counters the tests and the CLI status line read.

    A thin *view* over the process-wide metrics registry: every
    increment goes straight into ``gst_server_events_total{event=...}``
    and attribute reads come back as deltas against the registry
    values captured at construction.  There is exactly one underlying
    count, so this object and the exposition can never disagree — the
    tentpole's no-drift rule applied to the server's own counters.
    """

    FIELDS = (
        "connections_accepted",
        "connections_closed",
        "queries_received",
        "progress_frames_sent",
        "results_sent",
        "errors_sent",
        "queries_cancelled",
        "protocol_errors",
        "stats_frames_sent",
    )

    def __init__(self, registry=None) -> None:
        counter = instruments.server_events(registry)
        self._children = {
            field: counter.labels(event=field) for field in self.FIELDS
        }
        self._base = {
            field: child.value for field, child in self._children.items()
        }

    def inc(self, event: str, amount: int = 1) -> None:
        self._children[event].inc(amount)

    def __getattr__(self, name: str) -> int:
        # Only called when normal lookup misses: the counter fields.
        children = self.__dict__.get("_children")
        if children is not None and name in children:
            return int(children[name].value - self.__dict__["_base"][name])
        raise AttributeError(name)

    def to_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}


class _Connection:
    """Per-connection state: writer, live tokens, and spawned tasks."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.inflight: Dict[Any, CancellationToken] = {}
        self.tasks: Set[asyncio.Task] = set()
        self.closing = False
        # The task running _handle_connection for this connection.
        self.handler = asyncio.current_task()

    def send(self, frame_bytes: bytes) -> None:
        """Queue one whole frame (event-loop thread only)."""
        if self.closing or self.writer.is_closing():
            return
        self.writer.write(frame_bytes)


class GSTServer:
    """Serve progressive GST answers over TCP.

    Parameters
    ----------
    index:
        A :class:`~repro.service.GraphIndex` (or raw graph; an index is
        built).  Attach a store to the index *before* starting the
        server to serve warm: its result-cache hits are answered on the
        event loop, without a worker thread.
    host, port:
        Bind address.  ``port=0`` picks a free port; read it back from
        :attr:`port` after :meth:`start`.
    algorithm, budget:
        Defaults applied to queries that do not override them.
    max_inflight:
        Per-connection cap on concurrently running queries (cache hits
        never run, so they do not count).
    max_frame_bytes:
        Protocol frame-size guard (both directions).
    drain_grace:
        Seconds :meth:`drain` waits for in-flight queries before
        cancelling them (``None`` waits forever).
    metrics_port:
        When set, :meth:`start` also binds a minimal HTTP responder on
        ``(host, metrics_port)`` serving the process-wide Prometheus
        text exposition at ``/metrics`` (``0`` picks a free port; read
        it back from :attr:`metrics_port`).  Closed again by
        :meth:`drain`.
    executor_kwargs:
        Forwarded to the server's
        :class:`~repro.service.QueryExecutor` (``max_workers``,
        ``workers``, ``trace_sink``, ``admission``, ``retry_policy``,
        ``checkpoint_dir``, ...).  An in-thread executor streams
        PROGRESS frames (in-process callbacks); one with a worker fleet
        (``workers=N``) trades mid-search progress streaming for
        multi-core throughput — a progress callback cannot cross a
        process boundary, so fleet-served queries emit only their final
        RESULT frame.
    """

    def __init__(
        self,
        index: Union[Graph, GraphIndex],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        algorithm: str = "pruneddp++",
        budget: Optional[Budget] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        drain_grace: Optional[float] = None,
        metrics_port: Optional[int] = None,
        **executor_kwargs,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.index = GraphIndex.ensure(index)
        self.host = host
        self._requested_port = port
        self.algorithm = algorithm
        self.budget = budget
        self.max_inflight = max_inflight
        self.max_frame_bytes = max_frame_bytes
        self.drain_grace = drain_grace
        self.executor = QueryExecutor(
            self.index, algorithm=algorithm, budget=budget, **executor_kwargs
        )
        self.stats = ServerStats()
        self._frames = instruments.server_frames()
        self._inflight_gauge = instruments.server_inflight()
        self._server: Optional[asyncio.base_events.Server] = None
        self._requested_metrics_port = metrics_port
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0``)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> Optional[int]:
        """The bound exposition port (``None`` when metrics are off)."""
        if self._metrics_server is None:
            return self._requested_metrics_port
        return self._metrics_server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight_queries(self) -> int:
        """Queries currently running across all connections (gauge)."""
        return sum(len(conn.inflight) for conn in self._connections)

    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        if self._requested_metrics_port is not None:
            self._metrics_server = await start_metrics_server(
                self.host, self._requested_metrics_port
            )

    async def serve_forever(self) -> None:
        """Block until the server is closed (e.g. by :meth:`drain`)."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def drain(self, grace: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, flush.

        1. Stop accepting new connections and refuse new ``QUERY``
           frames on existing ones (``ERROR code="draining"``).
        2. Wait for in-flight queries to finish.  Past ``grace``
           seconds (default :attr:`drain_grace`) every remaining query's
           token is cancelled — engines return (and checkpoint, when
           configured) their best anytime answers, which are still
           delivered as ``RESULT status="cancelled"`` frames.
        3. Shut the executor down (``wait=True``), which flushes and
           closes its attached trace sink, then close the connections
           and wait for their handlers to finish.

        Idempotent; safe to call while queries are mid-flight.
        """
        drain_started = time.perf_counter()
        self._draining = True
        grace = self.drain_grace if grace is None else grace
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {
            task for conn in self._connections for task in conn.tasks
        }
        if pending:
            done, still_running = await asyncio.wait(pending, timeout=grace)
            if still_running:
                for conn in self._connections:
                    for token in conn.inflight.values():
                        token.cancel("server draining")
                await asyncio.wait(still_running)
        # shutdown(wait=True) joins worker threads and flushes/closes the
        # trace sink; run it off-loop so a slow flush cannot stall frame
        # delivery on other (already-quiesced) connections.
        await asyncio.get_running_loop().run_in_executor(
            None, self.executor.shutdown
        )
        connections = list(self._connections)
        for conn in connections:
            conn.closing = True
            conn.writer.close()
        # Each handler sees its reader end, runs its cleanup and counts
        # the connection closed before drain() returns.
        await asyncio.gather(
            *(conn.handler for conn in connections), return_exceptions=True
        )
        if self._metrics_server is not None:
            # The exposition dies last so a scraper can watch the drain
            # itself; it goes down with the connections.
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None
        instruments.server_drain_seconds().set(
            time.perf_counter() - drain_started
        )

    async def __aenter__(self) -> "GSTServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.inc("connections_accepted")
        conn = _Connection(writer)
        self._connections.add(conn)
        try:
            self._send_frame(
                conn,
                hello_frame(
                    graph={
                        "nodes": self.index.num_nodes,
                        "edges": self.index.num_edges,
                        "labels": self.index.num_labels,
                    },
                    algorithm=self.algorithm,
                    max_inflight=self.max_inflight,
                    max_frame_bytes=self.max_frame_bytes,
                ),
            )
            await writer.drain()
            decoder = FrameDecoder(self.max_frame_bytes)
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break  # client closed its end
                try:
                    frames = decoder.feed(data)
                except ProtocolError as exc:
                    # One typed ERROR frame, then hang up: a client
                    # whose framing is broken cannot be reasoned with.
                    self.stats.inc("protocol_errors")
                    self._send_error(conn, None, "protocol", str(exc))
                    break
                for frame in frames:
                    # Positional label values: an existing child is one
                    # lock-free dict read (see repro.obs.registry).
                    self._frames.labels("received", frame["type"]).inc()
                    self._dispatch(conn, frame)
                # Cache hits and STATS are answered inline; wait out a
                # full send buffer before reading more, so a client that
                # does not read its answers cannot grow it without bound.
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # disconnect mid-read; the finally block cleans up
        finally:
            # Client gone (or being hung up on): whatever it still had
            # in flight is searching for an audience that left.  Cancel
            # cooperatively; the engine stops within its pop bound.
            for token in conn.inflight.values():
                self.stats.inc("queries_cancelled")
                token.cancel("client disconnected")
            conn.closing = True
            if conn.tasks:
                await asyncio.gather(*conn.tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._connections.discard(conn)
            self._update_inflight()
            self.stats.inc("connections_closed")

    def _update_inflight(self) -> None:
        self._inflight_gauge.set(self.inflight_queries)

    def _dispatch(self, conn: _Connection, frame: Dict[str, Any]) -> None:
        frame_type = frame["type"]
        if frame_type == protocol.QUERY:
            self.stats.inc("queries_received")
            self._dispatch_query(conn, frame)
        elif frame_type == protocol.CANCEL:
            query_id = frame.get("id")
            token = (
                None if isinstance(query_id, _UNHASHABLE_IDS)
                else conn.inflight.get(query_id)
            )
            if token is not None:
                self.stats.inc("queries_cancelled")
                token.cancel("client cancel")
            # Cancelling an unknown/finished (or malformed) id is a
            # no-op, not an error: the RESULT may simply have crossed
            # the CANCEL.
        elif frame_type == protocol.STATS:
            # Answered inline on the loop: the per-server counters plus
            # a snapshot of the process-wide registry, echoing the id.
            self.stats.inc("stats_frames_sent")
            self._send_frame(
                conn,
                stats_frame(
                    frame.get("id"),
                    server=self.stats.to_dict(),
                    metrics=get_registry().snapshot(),
                    inflight=self.inflight_queries,
                ),
            )
        else:
            # HELLO/PROGRESS/RESULT/ERROR are server-to-client only.
            self._send_error(
                conn, frame.get("id"), "protocol",
                f"unexpected client frame type {frame_type!r}",
            )

    def _dispatch_query(self, conn: _Connection, frame: Dict[str, Any]) -> None:
        """Validate a QUERY, then answer a cache hit inline or start a task."""
        query_id = frame.get("id")
        if self._draining:
            self._send_error(
                conn, query_id, "draining",
                "server is draining; no new queries accepted",
            )
            return
        if (
            query_id is None
            or isinstance(query_id, _UNHASHABLE_IDS)
            or query_id in conn.inflight
        ):
            self._send_error(
                conn, query_id, "bad_request",
                "QUERY needs a fresh non-null scalar id",
            )
            return
        labels = frame.get("labels")
        if (
            not isinstance(labels, list)
            or not labels
            or not all(isinstance(label, str) for label in labels)
        ):
            self._send_error(
                conn, query_id, "bad_request",
                "QUERY.labels must be a non-empty list of strings",
            )
            return
        algorithm = frame.get("algorithm") or self.algorithm
        try:
            self.index.resolve_algorithm(algorithm, labels)
            budget = self._query_budget(frame)
        except (TypeError, ValueError, OverflowError) as exc:
            self._send_error(conn, query_id, "bad_request", str(exc))
            return
        # A result-cache hit is answered right here on the loop: no
        # token, no task, no in-flight slot, no thread hop, and no
        # PROGRESS frames to order.  Everything else is solved by a
        # task, even a solve that finishes at once, so its RESULT
        # follows the PROGRESS frames it queued.
        outcome = self.executor.cached(
            labels, algorithm=algorithm, budget=budget, query_id=query_id
        )
        if outcome is not None:
            self._send_outcome(conn, query_id, outcome)
            return
        if len(conn.inflight) >= self.max_inflight:
            self._send_error(
                conn, query_id, "overloaded",
                f"connection already has {len(conn.inflight)} queries "
                f"in flight (max_inflight={self.max_inflight})",
            )
            return
        token = CancellationToken()
        conn.inflight[query_id] = token
        self._update_inflight()
        task = asyncio.ensure_future(
            self._run_query(conn, query_id, labels, algorithm, budget, token)
        )
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _query_budget(self, frame: Dict[str, Any]) -> Optional[Budget]:
        """The request's budget overrides merged over the server default."""
        overrides = {}
        if frame.get("epsilon") is not None:
            overrides["epsilon"] = float(frame["epsilon"])
        if frame.get("time_limit") is not None:
            overrides["time_limit"] = float(frame["time_limit"])
        if frame.get("max_states") is not None:
            overrides["max_states"] = int(frame["max_states"])
        if not overrides:
            return self.budget
        return (self.budget or Budget()).replace(**overrides)

    async def _run_query(
        self,
        conn: _Connection,
        query_id,
        labels,
        algorithm: str,
        budget: Optional[Budget],
        token: CancellationToken,
    ) -> None:
        """Solve a query whose result-cache lookup already missed."""
        loop = asyncio.get_running_loop()

        on_progress = None
        if self.executor.isolation == "thread":
            # Worker thread → event loop, one wakeup per burst: only the
            # point that finds the list empty schedules a flush, which
            # takes every point queued by the time it runs.  FIFO
            # scheduling keeps every PROGRESS ahead of the RESULT (whose
            # completion wakeup is scheduled after the engine's last
            # report).  Fleet workers run in other processes, so
            # fleet-served queries skip PROGRESS frames and answer with
            # their final RESULT only.
            pending: List[Any] = []
            lock = threading.Lock()

            def flush() -> None:
                with lock:
                    points = pending[:]
                    pending.clear()
                self._send_progress(conn, query_id, points)

            def on_progress(point) -> None:
                with lock:
                    pending.append(point)
                    first = len(pending) == 1
                if first:
                    loop.call_soon_threadsafe(flush)

        try:
            future = self.executor.enqueue(
                labels,
                algorithm=algorithm,
                budget=budget,
                query_id=query_id,
                cancel_token=token,
                on_progress=on_progress,
            )
            outcome: QueryOutcome = await asyncio.wrap_future(future)
        except Exception as exc:  # shutdown races, ...
            conn.inflight.pop(query_id, None)
            self._update_inflight()
            self._send_error(conn, query_id, "bad_request", str(exc))
            return
        conn.inflight.pop(query_id, None)
        self._update_inflight()
        self._send_outcome(conn, query_id, outcome)
        try:
            await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    def _send_outcome(
        self, conn: _Connection, query_id, outcome: QueryOutcome
    ) -> None:
        """The query's terminal frame: RESULT, or its typed ERROR."""
        if outcome.ok:
            status = "cancelled" if outcome.trace.cancelled else "ok"
            self.stats.inc("results_sent")
            self._send_frame(
                conn, result_frame(query_id, outcome.result, status=status)
            )
        else:
            self._send_error(
                conn, query_id, *self._classify_error(outcome.error)
            )

    @staticmethod
    def _classify_error(error: BaseException):
        """Map a captured exception to (code, message[, details])."""
        message = str(error)
        if isinstance(error, InfeasibleQueryError):
            return "infeasible", message
        if isinstance(error, QueryRejectedError):
            return (
                "rejected",
                message,
                {
                    "estimated_states": error.estimated_states,
                    "estimated_seconds": error.estimated_seconds,
                },
            )
        if isinstance(error, QueryCancelledError):
            return "cancelled", message
        if isinstance(error, LimitExceededError):
            return "limit", message
        if isinstance(error, QueryError):
            return "bad_request", message
        return "internal", f"{type(error).__name__}: {message}"

    # ------------------------------------------------------------------
    # Frame senders (event-loop thread only)
    # ------------------------------------------------------------------
    def _send_frame(self, conn: _Connection, frame: Dict[str, Any]) -> None:
        """Encode, count by type, and queue one outbound frame."""
        self._frames.labels("sent", frame["type"]).inc()
        conn.send(encode_frame(frame, max_frame_bytes=self.max_frame_bytes))

    def _send_progress(self, conn: _Connection, query_id, points) -> None:
        """Queue one burst of PROGRESS frames with a single write."""
        if conn.closing:
            return
        self.stats.inc("progress_frames_sent", len(points))
        self._frames.labels("sent", protocol.PROGRESS).inc(len(points))
        conn.send(b"".join(
            encode_frame(
                progress_frame(query_id, point),
                max_frame_bytes=self.max_frame_bytes,
            )
            for point in points
        ))

    def _send_error(self, conn, query_id, code, message, details=None) -> None:
        self.stats.inc("errors_sent")
        details = {
            k: v for k, v in (details or {}).items() if v is not None
        }
        self._send_frame(conn, error_frame(query_id, code, message, **details))

"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single type at their boundary.  The subclasses
distinguish the failure modes a Group Steiner Tree (GST) workload can
hit: malformed graphs, malformed or unsatisfiable queries,
resource-limit interruptions, for the query service's resilience
layer — admission rejections and cooperative cancellations — and, for
the persistent precompute store (:mod:`repro.store`), artifact
corruption / version / fingerprint failures.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "GraphError",
    "NodeRangeError",
    "QueryError",
    "InfeasibleQueryError",
    "LimitExceededError",
    "QueryRejectedError",
    "QueryCancelledError",
    "CertificationError",
    "WorkerCrashedError",
    "ProtocolError",
    "RemoteQueryError",
    "SharedMemoryGraphError",
    "ShmAttachError",
    "ShmLayoutError",
    "StoreError",
    "StoreCorruptError",
    "CheckpointRangeError",
    "StoreVersionError",
    "StoreFingerprintError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """A graph is structurally invalid for the requested operation.

    Examples: referencing a node id that was never added, adding an edge
    with a negative weight, or running a pruned solver on a graph with
    non-positive edge weights (PrunedDP's optimal-tree decomposition
    theorem requires strictly positive weights).
    """


class NodeRangeError(GraphError, IndexError):
    """A node id lies outside the graph's ``0..n-1`` id space.

    Subclasses both :class:`GraphError` (the package's typed hierarchy)
    and ``IndexError`` so callers that historically caught the bare
    ``IndexError`` from the shortest-path kernels keep working.
    """


class QueryError(ReproError):
    """A query is malformed: empty, too many labels, or duplicated labels."""


class InfeasibleQueryError(QueryError):
    """No connected tree covering all query labels exists.

    Raised when a query label occurs on no node of the graph, or when no
    single connected component covers every query label.
    """


class LimitExceededError(ReproError):
    """A configured resource limit (states, time) was exhausted.

    Solvers do *not* raise this: hitting ``time_limit`` or
    ``max_states`` returns the best feasible answer found so far (that
    is the whole point of a progressive algorithm).  The service raises
    it for a query whose batch deadline expired before it started.
    """


class QueryRejectedError(ReproError):
    """Admission control refused to run the query at all.

    Raised (or captured into a :class:`~repro.service.index.QueryOutcome`)
    by the service's :class:`~repro.service.resilience.AdmissionController`
    when a query's estimated state-space cost would blow the batch
    deadline or exceed the configured ceiling.  Carries the estimate so
    callers can resubmit with a smaller query or a bigger budget.
    """

    def __init__(
        self,
        message: str,
        *,
        estimated_states: Optional[int] = None,
        estimated_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.estimated_states = estimated_states
        self.estimated_seconds = estimated_seconds


class QueryCancelledError(ReproError):
    """The query's cooperative cancellation token fired.

    The engine stops within a bounded number of state pops after the
    token is cancelled.  If a feasible tree was already found it is
    returned (the progressive contract); this error appears only when
    cancellation struck before *any* feasible answer existed.
    """


class CertificationError(ReproError):
    """An answer failed independent re-validation (:mod:`repro.verify`).

    Raised by the solution certifier when a :class:`~repro.core.result.GSTResult`
    is internally inconsistent: the tree is not a connected acyclic
    subgraph of the instance, it misses a query group, its recomputed
    edge-weight sum disagrees with the reported ``weight``, or a claimed
    bound is unsound (``lower_bound > weight``, or an optimal/epsilon
    exit whose bounds do not actually prove it).  Seeing this error
    means a solver, cache, or store produced a wrong answer — it is a
    bug report, not an input error.
    """


class WorkerCrashedError(ReproError):
    """A worker process died before delivering its outcome.

    Raised (or captured into a :class:`~repro.service.index.QueryOutcome`)
    by the :class:`~repro.service.fleet.FleetPool` when a worker
    solving a query is killed — OOM-killer, ``kill -9``, a segfault,
    the fleet's own memory watchdog, or a hard-deadline kill of a hung
    worker — or when a replacement worker cannot attach the shared
    graph.  The query itself may be perfectly fine, so the error
    is *retryable*: the service resumes it from its latest engine
    checkpoint (or re-runs it cold) instead of failing the batch.
    """

    def __init__(
        self,
        message: str,
        *,
        pid: Optional[int] = None,
        exitcode: Optional[int] = None,
        reason: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.pid = pid
        self.exitcode = exitcode
        self.reason = reason


class ProtocolError(ReproError):
    """A wire frame violated the :mod:`repro.server` protocol.

    Raised by the length-prefixed NDJSON codec on oversized frames,
    truncated or non-JSON payloads, and frames missing the mandatory
    ``type`` field.  The server answers one typed ``ERROR`` frame
    (code ``"protocol"``) and closes the connection — a misbehaving
    client can never wedge a worker.
    """


class RemoteQueryError(ReproError):
    """A query shipped to a :mod:`repro.server` failed on the server.

    The client libraries raise this when an ``ERROR`` frame comes back
    instead of a ``RESULT``.  ``code`` is the server's stable error
    code (``"infeasible"``, ``"rejected"``, ``"cancelled"``,
    ``"limit"``, ``"overloaded"``, ``"draining"``, ``"protocol"``,
    ``"bad_request"``, ``"internal"``); ``details`` carries whatever
    extra fields the frame had (e.g. an admission cost estimate).
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "internal",
        details: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.details = details or {}


class SharedMemoryGraphError(ReproError):
    """A shared-memory CSR segment (:mod:`repro.graph.shm`) failed.

    The umbrella type for the fleet's shared-graph transport.  Like the
    store hierarchy, shared segments fail *closed*: a worker that
    cannot attach (or attaches something malformed) sees a typed error
    it can surface as a crashed query — never a ``BufferError``, a bare
    ``FileNotFoundError``, or a read of someone else's memory.
    """


class ShmAttachError(SharedMemoryGraphError):
    """The named shared-memory segment cannot be attached.

    Raised when the segment was never created, was already unlinked by
    its owner (e.g. a fleet whose owner died or shut down mid-respawn),
    or is too small to even hold the header.
    """


class ShmLayoutError(SharedMemoryGraphError):
    """The attached segment is not a valid CSR export.

    Bad magic, an unsupported layout version, a truncated metadata
    record, or buffer offsets pointing outside the segment.  The
    segment belongs to someone else or was torn; it is never read
    further.
    """


class StoreError(ReproError):
    """A persistent precompute store could not be used.

    The umbrella type for every :mod:`repro.store` failure: artifacts
    fail *closed* — a load problem raises a ``StoreError`` subclass
    (never a bare ``KeyError``/``EOFError``/``struct.error``) so
    callers can catch one type and fall back to a cold solve.
    """


class StoreCorruptError(StoreError):
    """A store file is truncated, checksum-mismatched, or malformed."""


class CheckpointRangeError(StoreCorruptError):
    """A checkpoint names a node or label mask outside its graph or query.

    Raised by :meth:`SearchEngine.restore
    <repro.core.engine.SearchEngine.restore>`, which knows the graph's
    size; a resume path falls back to a cold solve, like any other
    unusable checkpoint.
    """


class StoreVersionError(StoreError):
    """A store was written by an incompatible format version."""


class StoreFingerprintError(StoreError):
    """A store's graph fingerprint does not match the live graph.

    Distance tables index nodes by dense id; loading them against a
    different graph would silently corrupt every answer, so a
    fingerprint mismatch always rejects the whole store.
    """

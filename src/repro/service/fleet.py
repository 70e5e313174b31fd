"""The worker fleet: solves in other processes, one shared graph copy.

The frozen :class:`~repro.graph.csr.CSRGraph` is exported **once**
into a :mod:`multiprocessing.shared_memory` segment
(:mod:`repro.graph.shm`), and N **persistent pre-forked workers**
attach that segment at birth (fingerprint-verified), rebuild their
private :class:`~repro.service.index.GraphIndex` around the mapped
buffers, and then serve query after query over a duplex pipe — attach
cost is paid once per worker lifetime, not once per query.  This is
the only way the service runs a solve outside the calling process.

Each worker is supervised by the parent under a
:class:`~repro.service.durability.WorkerPolicy`:

* a per-worker **memory watchdog** samples RSS from ``/proc``; a
  worker over ``max_rss_mb`` mid-query is sent SIGTERM (its engine
  checkpoints on the resulting cooperative cancellation), then killed;
* a **hard wall-clock kill deadline** contains hangs the cooperative
  time limit cannot reach;
* **cooperative cancellation** — the parent's token becomes
  ``SIGUSR1``, which cancels the worker's *current* query without
  killing the worker;
* **respawn-and-resume** — a worker that dies mid-query is replaced by
  a fresh attach and the query resumes from its latest engine
  checkpoint, up to ``max_restarts`` times.

Before a job is sent, a slot whose worker is dead (a crash the
previous query could not recover from, a watchdog or deadline kill) or
whose idle RSS is already over ``max_rss_mb`` (the label cache grows
across queries) gets a fresh worker.  That respawn is not charged to
the new query's restart budget.  All terminal containment surfaces as
a failed :class:`~repro.service.index.QueryOutcome` carrying a typed
:class:`~repro.errors.WorkerCrashedError` — retryable, so the
executor's retry ladder can resume the query degraded.

Workers have no result cache of their own, and the pool looks nothing
up: :meth:`QueryExecutor.cached
<repro.service.executor.QueryExecutor.cached>` is the serving path's
one lookup.  The parent fills :attr:`GraphIndex.result_cache
<repro.service.index.GraphIndex.result_cache>` with every answer a
worker solves, so those are persisted by ``save_results()`` like
in-thread ones.

The pool owns the segment: its one
:meth:`~repro.graph.shm.SharedCSR.close` unlinks it, and a worker's
close only detaches, so a SIGKILLed worker leaks nothing.  Shutdown
ordering is still load-bearing:
``shutdown(wait=True)`` first **drains** — waits for every in-flight
query (and therefore every in-flight checkpoint write) to deliver —
then stops the workers, and only then closes the segment, so a worker
respawned mid-drain can still attach.  ``wait=False`` is the
abandon-ship path: workers are killed outright, then the segment is
closed.

Wire-in: ``QueryExecutor(workers=N)`` routes every attempt through
:meth:`FleetPool.execute`, and ``python -m repro batch|serve
--workers N`` run a whole batch or TCP front-end from one fleet.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Hashable, Iterable, List, Optional

from ..core.budget import Budget, CancellationToken
from ..errors import (
    ReproError,
    SharedMemoryGraphError,
    StoreError,
    WorkerCrashedError,
)
from ..graph.csr import CSRGraph
from ..graph.graph import Graph
from ..obs import instruments
from .durability import Checkpointer, WorkerPolicy, checkpointed_execute
from .index import GraphIndex, QueryOutcome
from .telemetry import QueryTrace

__all__ = ["FleetPool", "FleetWorker"]

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096

_CHAOS_MARKER = "chaos-killed.marker"
# Seconds between supervisor samples (pipe, liveness, RSS).
_POLL_SECONDS = 0.05
# How long a SIGTERM'd worker gets to checkpoint and deliver its anytime
# answer (or a stopped one to exit) before SIGKILL.
_KILL_GRACE_SECONDS = 5.0
# How long a forked worker gets to attach the segment and report ready.
_ATTACH_TIMEOUT_SECONDS = 60.0


def _rss_mb(pid: int) -> Optional[float]:
    """Resident set size of ``pid`` in MiB via ``/proc`` (None if gone)."""
    try:
        with open(f"/proc/{pid}/statm", "r") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        return None


def _install_chaos_hook(checkpoint_dir: str, after: int):
    """One-shot self-SIGKILL after ``after`` checkpoint writes.

    The marker file is claimed with ``O_EXCL`` so exactly one worker
    per checkpoint directory dies, and its respawn (which finds the
    marker) resumes unharmed — giving tests and the CI chaos job a
    deterministic mid-search ``kill -9``.
    """
    marker = os.path.join(checkpoint_dir, _CHAOS_MARKER)

    def on_write(checkpointer: Checkpointer) -> None:
        if checkpointer.written < after:
            return
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            return
        os.kill(os.getpid(), signal.SIGKILL)

    return on_write


def _error_outcome(labels, algorithm, query_id, error) -> QueryOutcome:
    trace = QueryTrace(
        query_id=query_id,
        labels=tuple(labels),
        algorithm=algorithm,
        status="error",
        error=str(error),
    )
    return QueryOutcome(
        query_id=query_id,
        labels=tuple(labels),
        algorithm=algorithm,
        result=None,
        error=error,
        trace=trace,
    )


def _default_fleet_workers() -> int:
    return min(4, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Worker process body
# ----------------------------------------------------------------------
def _fleet_worker_entry(
    conn,
    worker_id: int,
    shm_name: str,
    expect_fingerprint: str,
    checkpoint_dir: Optional[str],
    policy: WorkerPolicy,
) -> None:
    """Child body: attach the shared graph once, then serve jobs forever.

    Messages up the pipe: one ``ready`` (or ``attach_failed``) after
    the attach, then one ``outcome`` per job.  ``SIGUSR1`` cancels the
    *current* query's token (the worker survives and serves the next
    job); ``SIGTERM`` cancels it *and* marks the worker draining, so it
    exits cleanly after delivering.  Every exit path detaches the
    shared segment.
    """
    draining = threading.Event()
    current_token: List[Optional[CancellationToken]] = [None]

    def _cancel_current(reason: str) -> None:
        token = current_token[0]
        if token is not None:
            token.cancel(reason)

    signal.signal(
        signal.SIGUSR1,
        lambda signum, frame: _cancel_current("cancelled by supervisor"),
    )

    def _on_sigterm(signum, frame) -> None:
        draining.set()
        _cancel_current("terminated by supervisor")

    signal.signal(signal.SIGTERM, _on_sigterm)
    # The parent's SIGINT handling owns batch interruption; a forwarded
    # Ctrl-C must not kill a worker mid-checkpoint-write.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    handle = None
    try:
        started = time.perf_counter()
        try:
            csr, handle = CSRGraph.from_shared(
                shm_name, expect_fingerprint=expect_fingerprint
            )
            index = GraphIndex(Graph.from_csr(csr))
        except (SharedMemoryGraphError, StoreError) as exc:
            conn.send(
                {
                    "op": "attach_failed",
                    "worker": worker_id,
                    "error_type": type(exc).__name__,
                    "error": str(exc),
                }
            )
            return
        conn.send(
            {
                "op": "ready",
                "worker": worker_id,
                "pid": os.getpid(),
                "attach_seconds": time.perf_counter() - started,
            }
        )

        while not draining.is_set():
            try:
                job = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(job, dict) or job.get("op") != "query":
                break  # "stop" or anything unrecognized: exit cleanly
            token = CancellationToken()
            current_token[0] = token
            budget = (job.get("budget") or Budget()).with_cancellation(token)
            on_write = None
            if (
                policy.chaos_kill_after_checkpoints is not None
                and checkpoint_dir is not None
            ):
                on_write = _install_chaos_hook(
                    checkpoint_dir, policy.chaos_kill_after_checkpoints
                )
            labels = job["labels"]
            algorithm = job["algorithm"]
            query_id = job.get("query_id")
            try:
                if checkpoint_dir is not None:
                    outcome = checkpointed_execute(
                        index,
                        labels,
                        algorithm=algorithm,
                        budget=budget,
                        query_id=query_id,
                        checkpoint_dir=checkpoint_dir,
                        policy=policy,
                        on_write=on_write,
                    )
                else:
                    outcome = index.execute(
                        labels,
                        algorithm=algorithm,
                        budget=budget,
                        query_id=query_id,
                    )
            except BaseException as exc:  # pragma: no cover - belt+braces
                outcome = _error_outcome(
                    labels, algorithm, query_id,
                    ReproError(f"fleet worker failed: {exc}"),
                )
            finally:
                current_token[0] = None
            reply = {
                "op": "outcome",
                "job_id": job.get("job_id"),
                "outcome": outcome,
            }
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
            except Exception as exc:
                # Unpicklable payload must not look like a crash.
                try:
                    conn.send(
                        {
                            "op": "outcome",
                            "job_id": job.get("job_id"),
                            "outcome": _error_outcome(
                                labels, algorithm, query_id,
                                ReproError(
                                    "fleet worker could not serialize "
                                    f"outcome: {exc}"
                                ),
                            ),
                        }
                    )
                except Exception:
                    break
    finally:
        if handle is not None:
            handle.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass


# ----------------------------------------------------------------------
# Parent-side worker slot
# ----------------------------------------------------------------------
class _Attempt:
    """How one supervised job on a worker ended."""

    __slots__ = ("kind", "outcome", "exitcode")

    def __init__(self, kind, outcome=None, exitcode=None) -> None:
        self.kind = kind  # delivered | crashed | watchdog | timeout
        self.outcome = outcome
        self.exitcode = exitcode


class FleetWorker:
    """Parent-side state of one fleet slot (process + pipe + counters)."""

    __slots__ = (
        "worker_id",
        "proc",
        "conn",
        "pid",
        "attach_seconds",
        "queries",
        "respawns",
        "busy",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.proc = None
        self.conn = None
        self.pid: Optional[int] = None
        self.attach_seconds: Optional[float] = None
        self.queries = 0
        self.respawns = 0
        self.busy = False

    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def info(self) -> dict:
        return {
            "worker": self.worker_id,
            "pid": self.pid,
            "alive": self.alive(),
            "attach_seconds": self.attach_seconds,
            "queries": self.queries,
            "respawns": self.respawns,
            "busy": self.busy,
        }


class FleetPool:
    """N persistent workers attached to one shared-memory snapshot.

    Construction exports the index's CSR snapshot into shared memory
    and pre-forks ``workers`` processes, each of which attaches the
    segment (fingerprint-verified) and reports ready.  The constructor
    returns only when every worker is warm — the first query never pays
    an attach.  :meth:`execute` takes the labels, ``algorithm``,
    ``budget`` and ``query_id`` of :meth:`GraphIndex.execute
    <repro.service.index.GraphIndex.execute>` and never raises, so the
    executor hands it to the resilience pipeline as its ``execute``
    callable unchanged.
    """

    def __init__(
        self,
        index,
        *,
        workers: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        policy: Optional[WorkerPolicy] = None,
    ) -> None:
        import multiprocessing

        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        self.index = GraphIndex.ensure(index)
        self.workers = workers or _default_fleet_workers()
        self.checkpoint_dir = checkpoint_dir
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)
        self.policy = policy or WorkerPolicy()
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the worker fleet requires the fork start method (POSIX); "
                "run in-thread (no workers=) on this platform"
            )
        self._ctx = multiprocessing.get_context("fork")
        # Everything a child might lazily derive is computed pre-fork
        # (forking a multithreaded parent copies held locks).
        self._fingerprint = self.index.snapshot.fingerprint
        self.shared = self.index.snapshot.to_shared()
        instruments.fleet_shm_bytes().set(self.shared.size)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._slots: List[FleetWorker] = []
        try:
            for worker_id in range(self.workers):
                slot = FleetWorker(worker_id)
                self._spawn(slot)
                self._slots.append(slot)
        except Exception:
            # A half-built fleet must not leak processes or the segment.
            self._closed = True
            for slot in self._slots:
                self._kill_slot(slot)
            self.shared.close()
            raise
        instruments.fleet_workers().set(len(self._slots))

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _spawn(self, slot: FleetWorker) -> None:
        """Fork one worker into ``slot`` and wait for its warm-up.

        Raises :class:`~repro.errors.ShmAttachError` /
        :class:`~repro.errors.WorkerCrashedError` when the worker
        cannot come up — at construction that propagates to the caller;
        mid-serving, :meth:`_refresh` returns it for a failed outcome.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_fleet_worker_entry,
            args=(
                child_conn,
                slot.worker_id,
                self.shared.name,
                self._fingerprint,
                self.checkpoint_dir,
                self.policy,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn
        slot.pid = proc.pid
        deadline = time.monotonic() + _ATTACH_TIMEOUT_SECONDS
        while True:
            timeout = min(0.1, max(0.0, deadline - time.monotonic()))
            try:
                if parent_conn.poll(timeout):
                    msg = parent_conn.recv()
                    break
            except (EOFError, OSError):
                msg = None
                break
            if not proc.is_alive():
                msg = None
                break
            if time.monotonic() >= deadline:
                self._kill_slot(slot)
                raise WorkerCrashedError(
                    f"fleet worker {slot.worker_id} did not report ready "
                    f"within {_ATTACH_TIMEOUT_SECONDS:.1f}s",
                    pid=slot.pid,
                    reason="attach timeout",
                )
        if not isinstance(msg, dict) or msg.get("op") != "ready":
            self._kill_slot(slot)
            if isinstance(msg, dict) and msg.get("op") == "attach_failed":
                raise WorkerCrashedError(
                    f"fleet worker {slot.worker_id} could not attach the "
                    f"shared snapshot: [{msg.get('error_type')}] "
                    f"{msg.get('error')}",
                    pid=slot.pid,
                    reason="attach failed",
                )
            raise WorkerCrashedError(
                f"fleet worker {slot.worker_id} died during warm-up "
                f"(exitcode={proc.exitcode})",
                pid=slot.pid,
                exitcode=proc.exitcode,
                reason="died during warm-up",
            )
        slot.attach_seconds = float(msg.get("attach_seconds") or 0.0)
        instruments.fleet_attach_seconds().observe(slot.attach_seconds)

    def _refresh(self, slot: FleetWorker) -> Optional[WorkerCrashedError]:
        """Give ``slot`` a fresh worker if its current one is unfit.

        Unfit means dead, or — with a watchdog configured — already
        over ``max_rss_mb`` while idle, so the query about to be sent
        would be killed and blamed for memory it never used.  Returns
        the attach error if the replacement cannot come up.
        """
        if slot.alive():
            limit = self.policy.max_rss_mb
            rss = _rss_mb(slot.pid) if limit is not None else None
            if rss is None or rss <= limit:
                return None
        self._kill_slot(slot)
        slot.respawns += 1
        instruments.fleet_respawns_total().inc()
        try:
            self._spawn(slot)
            return None
        except WorkerCrashedError as exc:
            return exc

    def _kill_slot(self, slot: FleetWorker) -> None:
        proc = slot.proc
        if proc is not None:
            try:
                proc.kill()
            except (OSError, ValueError, AttributeError):
                pass
            proc.join(1.0)
        conn = slot.conn
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        slot.proc = None
        slot.conn = None

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(
        self,
        labels: Iterable[Hashable],
        *,
        algorithm: str = "pruneddp++",
        budget: Optional[Budget] = None,
        query_id=None,
    ) -> QueryOutcome:
        """Run one query on the next free warm worker (never raises).

        Blocks until a worker frees up (the executor's thread pool is
        the queue in front of this), then supervises that worker for
        the duration: watchdog, hard deadline, cancellation, and
        respawn-and-resume all per the pool's
        :class:`~repro.service.durability.WorkerPolicy`.  It always
        solves: the result-cache lookup is the caller's
        (:meth:`QueryExecutor.cached
        <repro.service.executor.QueryExecutor.cached>`).  When the
        parent index has a result cache, every outcome a worker
        delivers is traced as a miss and every ``ok`` answer fills the
        cache, as :meth:`GraphIndex.execute
        <repro.service.index.GraphIndex.execute>` does in-thread.
        """
        labels = tuple(labels)
        slot = self._acquire()
        if slot is None:
            return _error_outcome(
                labels, algorithm, query_id,
                ReproError("fleet is shut down"),
            )
        try:
            outcome = self._execute_on(slot, labels, algorithm, budget, query_id)
        finally:
            self._release(slot)
        return outcome

    def _acquire(self) -> Optional[FleetWorker]:
        with self._cond:
            while True:
                if self._closed:
                    return None
                for slot in self._slots:
                    if not slot.busy:
                        slot.busy = True
                        return slot
                self._cond.wait()

    def _release(self, slot: FleetWorker) -> None:
        with self._cond:
            slot.busy = False
            self._cond.notify_all()

    def _execute_on(
        self, slot, labels, algorithm, budget, query_id
    ) -> QueryOutcome:
        policy = self.policy
        # The parent's token cannot cross the process boundary (it is a
        # threading.Event); it is stripped for the wire and translated
        # into SIGUSR1 by the supervision loop below.
        wire_budget = budget
        if budget is not None and budget.cancel_token is not None:
            wire_budget = budget.replace(cancel_token=None)
        job = {
            "op": "query",
            "job_id": query_id,
            "labels": labels,
            "algorithm": algorithm,
            "budget": wire_budget,
            "query_id": query_id,
        }
        restarts = 0
        while True:
            error = self._refresh(slot)
            if error is not None:
                return self._attach_lost_outcome(
                    labels, algorithm, query_id, restarts, error
                )
            try:
                slot.conn.send(job)
            except (BrokenPipeError, OSError):  # died since the refresh
                attempt = _Attempt("crashed")
            else:
                attempt = self._supervise(slot, budget)
            if attempt.kind == "delivered":
                outcome = attempt.outcome
                outcome.trace.worker_restarts += restarts
                outcome.trace.fleet_worker = slot.worker_id
                result_cache = self.index.result_cache
                if result_cache is not None:
                    # Workers have no result cache: the parent traces
                    # the caller's miss and writes back.
                    outcome.trace.result_cache = "miss"
                    if outcome.trace.status == "ok" and outcome.result is not None:
                        result_cache.put(labels, outcome.algorithm, outcome.result)
                slot.queries += 1
                instruments.fleet_queries_total().labels(
                    worker=str(slot.worker_id)
                ).inc()
                return outcome
            if attempt.kind == "watchdog":
                # Checkpoint-then-kill already happened; the next job
                # on this slot gets a fresh worker, but this query is
                # NOT internally retried — rerunning the same
                # configuration would exceed the budget again.
                # Surfacing retryable lets the executor's ladder resume
                # it degraded.
                self._kill_slot(slot)
                return self._crashed_outcome(
                    slot, labels, algorithm, query_id, restarts,
                    reason="memory watchdog", watchdog_kills=1,
                )
            if attempt.kind == "timeout":
                return self._crashed_outcome(
                    slot, labels, algorithm, query_id, restarts,
                    reason="hard kill deadline", watchdog_kills=0,
                )
            # Plain crash: the refresh at the top of the loop respawns
            # (re-attaches) and the resent job's checkpointed_execute
            # resumes from the latest checkpoint.
            restarts += 1
            if self._closed or restarts > policy.max_restarts:
                return self._crashed_outcome(
                    slot, labels, algorithm, query_id, restarts,
                    reason="crashed", watchdog_kills=0,
                    exitcode=attempt.exitcode,
                )

    def _supervise(self, slot: FleetWorker, budget) -> _Attempt:
        """Wait for one outcome, enforcing the policy on the worker."""
        policy = self.policy
        proc, conn = slot.proc, slot.conn
        hard_deadline = (
            time.monotonic() + policy.hard_timeout_seconds
            if policy.hard_timeout_seconds is not None
            else None
        )
        term_deadline: Optional[float] = None
        watchdog = False
        cancelled = False
        while True:
            try:
                has_data = conn.poll(_POLL_SECONDS)
            except (OSError, EOFError):
                has_data = False
            if has_data:
                msg = self._receive(conn)
                if isinstance(msg, dict) and msg.get("op") == "outcome":
                    if watchdog:
                        # The checkpoint-on-cancel answer is on disk; the
                        # delivery is superseded by the watchdog verdict.
                        return _Attempt("watchdog")
                    return _Attempt("delivered", outcome=msg["outcome"])
                if msg is None and not proc.is_alive():
                    proc.join(1.0)
                    if watchdog:
                        return _Attempt(
                            "watchdog", exitcode=proc.exitcode
                        )
                    return _Attempt("crashed", exitcode=proc.exitcode)
                continue  # stray frame (late ready); keep waiting
            if not proc.is_alive():
                # Dead without a poll hit: drain a final message that
                # raced the exit, then classify.
                msg = None
                try:
                    if conn.poll(0):
                        msg = self._receive(conn)
                except (OSError, EOFError):
                    msg = None
                proc.join(1.0)
                if watchdog:
                    return _Attempt("watchdog", exitcode=proc.exitcode)
                if isinstance(msg, dict) and msg.get("op") == "outcome":
                    return _Attempt("delivered", outcome=msg["outcome"])
                return _Attempt("crashed", exitcode=proc.exitcode)
            now = time.monotonic()
            if not cancelled and (
                budget is not None and budget.cancelled()
            ):
                # Parent-side token → SIGUSR1: the worker cancels its
                # current query's token, delivers the anytime answer,
                # and stays alive for the next job.
                cancelled = True
                self._signal(proc, signal.SIGUSR1)
            if not watchdog and policy.max_rss_mb is not None:
                rss = _rss_mb(proc.pid)
                if rss is not None and rss > policy.max_rss_mb:
                    # Checkpoint-then-kill: SIGTERM cancels the current
                    # token AND drains the worker; the grace deadline
                    # reaps whatever is left.
                    watchdog = True
                    self._signal(proc, signal.SIGTERM)
                    term_deadline = now + _KILL_GRACE_SECONDS
            if term_deadline is not None and now >= term_deadline:
                self._kill(proc)
                proc.join(1.0)
                if watchdog:
                    return _Attempt("watchdog", exitcode=proc.exitcode)
                return _Attempt("crashed", exitcode=proc.exitcode)
            if hard_deadline is not None and now >= hard_deadline:
                self._kill(proc)
                proc.join(1.0)
                return _Attempt("timeout", exitcode=proc.exitcode)

    @staticmethod
    def _receive(conn):
        try:
            return conn.recv()
        except (EOFError, OSError):
            return None
        except Exception:  # unpickling failure: treat as undelivered
            return None

    @staticmethod
    def _signal(proc, signum) -> None:
        try:
            os.kill(proc.pid, signum)
        except (OSError, TypeError):  # pragma: no cover - defensive
            pass

    @staticmethod
    def _kill(proc) -> None:
        try:
            proc.kill()
        except (OSError, ValueError, AttributeError):  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # Failure shaping
    # ------------------------------------------------------------------
    def _crashed_outcome(
        self, slot, labels, algorithm, query_id, restarts,
        *, reason: str, watchdog_kills: int, exitcode=None,
    ) -> QueryOutcome:
        error = WorkerCrashedError(
            f"fleet worker {slot.worker_id} solving query {query_id!r} "
            f"died ({reason}, exitcode={exitcode}) after {restarts} "
            "restart(s)",
            pid=slot.pid,
            exitcode=exitcode,
            reason=reason,
        )
        outcome = _error_outcome(labels, algorithm, query_id, error)
        outcome.trace.worker_restarts = restarts
        outcome.trace.watchdog_kills = watchdog_kills
        outcome.trace.fleet_worker = slot.worker_id
        return outcome

    def _attach_lost_outcome(
        self, labels, algorithm, query_id, restarts, error
    ) -> QueryOutcome:
        """A respawned worker could not re-attach the shared snapshot.

        This is the owner-died / segment-unlinked case: the typed
        attach failure (never a ``BufferError``) is preserved inside
        the :class:`~repro.errors.WorkerCrashedError` message so
        operators can tell "the graph is gone" from "the query crashed".
        """
        outcome = _error_outcome(labels, algorithm, query_id, error)
        outcome.trace.worker_restarts = restarts
        return outcome

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe fleet summary (per-worker counters + shm info)."""
        with self._lock:
            return {
                "workers": len(self._slots),
                "closed": self._closed,
                "shm": self.shared.info() if not self.shared.closed else None,
                "per_worker": [slot.info() for slot in self._slots],
            }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the fleet; release shared memory **last**.

        ``wait=True`` drains: in-flight queries (and their in-flight
        checkpoint writes) deliver before any worker is stopped, and
        the shared segment is closed (and so unlinked) only after every
        worker has exited.  ``wait=False`` kills workers outright, then
        closes the segment.  Idempotent.
        """
        with self._cond:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
            self._cond.notify_all()
        if already:
            return
        if wait:
            # Drain: every busy slot must deliver (and _release) before
            # the workers are told to stop.  In-flight queries are
            # cancelled cooperatively (SIGUSR1) so the drain is bounded:
            # each engine checkpoints and returns its anytime answer
            # within a bounded number of pops.
            with self._cond:
                for slot in self._slots:
                    if slot.busy and slot.proc is not None:
                        self._signal(slot.proc, signal.SIGUSR1)
            with self._cond:
                while any(slot.busy for slot in self._slots):
                    self._cond.wait()
            for slot in self._slots:
                if slot.conn is not None and slot.alive():
                    try:
                        slot.conn.send({"op": "stop"})
                    except (BrokenPipeError, OSError):
                        pass
            deadline = time.monotonic() + _KILL_GRACE_SECONDS
            for slot in self._slots:
                if slot.proc is not None:
                    slot.proc.join(max(0.0, deadline - time.monotonic()))
        for slot in self._slots:
            self._kill_slot(slot)
        instruments.fleet_workers().set(0)
        instruments.fleet_shm_bytes().set(0)
        self.shared.close()

    def __enter__(self) -> "FleetPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

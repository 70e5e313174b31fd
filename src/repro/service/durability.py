"""Crash-safe progressive search: engine checkpoints and resume.

The paper's progressive framework keeps a feasible incumbent and a
sound lower bound live at every moment of a search.  This module makes
that anytime state *durable*:

* **Engine checkpoints** — :class:`Checkpointer` drives
  :meth:`SearchEngine.checkpoint <repro.core.engine.SearchEngine.checkpoint>`
  on a pop-count/wall-clock cadence (and on cancellation), writing the
  frontier atomically (tmp + rename) in the CRC32-framed record format
  of :mod:`repro.store.format`.  A checkpoint is bound to the CSR
  snapshot fingerprint, so it can never resume against a different
  graph; corruption, version skew, and fingerprint mismatches raise the
  typed :class:`~repro.errors.StoreError` subclasses and resume paths
  fall back to a cold solve.
* **Checkpoint-aware execution** — :func:`checkpointed_execute` is
  ``index.execute`` that resumes from, writes, and cleans up its
  query's checkpoint; :func:`resume_query` pushes an interrupted query
  to proven optimality (the CLI's ``resume``).
* **Worker policy** — :class:`WorkerPolicy` holds the checkpoint
  cadence and the supervision knobs (memory watchdog, hard deadline,
  restart budget) of the worker fleet in :mod:`repro.service.fleet`,
  which runs solves in other processes and resumes a killed worker's
  query from its latest checkpoint.

The executor hands :func:`checkpointed_execute` (in-thread) or
:meth:`FleetPool.execute <repro.service.fleet.FleetPool.execute>` to
its :class:`~repro.service.resilience.ResiliencePipeline` as the
``execute`` callable.  Both take a query's labels, ``algorithm``,
``budget`` and ``query_id``, and neither looks in the result cache:
:meth:`QueryExecutor.cached
<repro.service.executor.QueryExecutor.cached>` already missed.
:func:`checkpointed_execute` and :func:`resume_query` solve in the
calling thread, so they also take ``on_progress``.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Tuple, Union

from ..core.budget import Budget
from ..errors import (
    StoreCorruptError,
    StoreError,
    StoreFingerprintError,
    StoreVersionError,
)
from ..store.format import (
    iter_records,
    pack_json,
    read_header,
    unpack_json,
    write_header,
    write_record,
)
from .index import GraphIndex, QueryOutcome

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "WorkerPolicy",
    "checkpoint_path",
    "checkpointed_execute",
    "read_checkpoint",
    "resume_query",
    "write_checkpoint",
]

CHECKPOINT_VERSION = 1
CHECKPOINT_KIND = "engine-checkpoint"
CHECKPOINT_SUFFIX = ".ckpt"

# Default checkpoint cadence: whichever of the two triggers first.
DEFAULT_EVERY_POPS = 2000
DEFAULT_EVERY_SECONDS = 2.0


# ----------------------------------------------------------------------
# Checkpoint files
# ----------------------------------------------------------------------
def checkpoint_path(
    directory: str, fingerprint: str, labels: Iterable[Hashable]
) -> str:
    """Deterministic checkpoint filename for one (graph, query) pair.

    One file per query identity: a crashed worker, its respawn, and a
    later ``repro resume`` all find the same path.  The digest covers
    the snapshot fingerprint and the ordered label list.
    """
    digest = hashlib.sha256()
    digest.update(fingerprint.encode("utf-8"))
    for label in labels:
        digest.update(b"\x00")
        digest.update(str(label).encode("utf-8"))
    return os.path.join(
        directory, f"query-{digest.hexdigest()[:16]}{CHECKPOINT_SUFFIX}"
    )


def checkpoint_meta(
    fingerprint: str,
    labels: Iterable[Hashable],
    algorithm: str,
    *,
    epsilon: float = 0.0,
    query_id=None,
) -> dict:
    """The meta record framed ahead of the engine state.

    ``labels`` must be JSON-serializable (strings/ints — which is what
    every loader in :mod:`repro.graph.io` produces); ``algorithm`` is
    the resolved solver key the checkpoint must be resumed under (the
    stored f-values embed that algorithm's lower bounds, so resuming
    under another rung would be unsound).
    """
    return {
        "kind": CHECKPOINT_KIND,
        "checkpoint_version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "labels": list(labels),
        "algorithm": algorithm,
        "epsilon": epsilon,
        "query_id": query_id,
    }


def write_checkpoint(path: str, meta: dict, state: dict) -> str:
    """Atomically persist one engine checkpoint (tmp + rename + fsync).

    Readers either see the previous complete checkpoint or the new one,
    never a torn write — which is the whole point of checkpointing
    under crash conditions.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        write_header(fh)
        write_record(fh, pack_json(meta))
        write_record(fh, pack_json(state))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def read_checkpoint(
    path: str, *, expect_fingerprint: Optional[str] = None
) -> Tuple[dict, dict]:
    """Load and validate a checkpoint file, fail-closed.

    Returns ``(meta, state)``.  Truncation and CRC mismatches raise
    :class:`~repro.errors.StoreCorruptError`, version skew raises
    :class:`~repro.errors.StoreVersionError`, and — when
    ``expect_fingerprint`` is given — a checkpoint taken against a
    different graph raises :class:`~repro.errors.StoreFingerprintError`.
    A record without the keys its readers use, or with one of the
    wrong JSON type, is a :class:`~repro.errors.StoreCorruptError`
    too: the meta's ``algorithm`` (the key of a solver that
    checkpoints) and ``labels`` (a list of strings or integers), and
    every key
    :meth:`SearchEngine.restore <repro.core.engine.SearchEngine.restore>`
    reads from the state, down to each backpointer's kind and fields.
    Node ids and masks are checked against the graph by ``restore``,
    which raises :class:`~repro.errors.CheckpointRangeError`.  Callers
    catch :class:`~repro.errors.StoreError` and fall back to a cold
    solve.
    """
    what = f"checkpoint {path!r}"
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise StoreCorruptError(f"{what}: cannot open: {exc}") from None
    with fh:
        read_header(fh, what=what)
        records = iter_records(fh, what=what)
        try:
            meta = unpack_json(next(records), what=what)
        except StopIteration:
            raise StoreCorruptError(f"{what}: missing meta record") from None
        if not isinstance(meta, dict) or meta.get("kind") != CHECKPOINT_KIND:
            raise StoreCorruptError(f"{what}: not an engine checkpoint")
        version = meta.get("checkpoint_version")
        if version != CHECKPOINT_VERSION:
            raise StoreVersionError(
                f"{what}: checkpoint version {version} is not supported "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        if (
            expect_fingerprint is not None
            and meta.get("fingerprint") != expect_fingerprint
        ):
            stored = str(meta.get("fingerprint"))[:12]
            raise StoreFingerprintError(
                f"{what}: checkpoint was taken against a different graph "
                f"(stored snapshot fingerprint {stored}…, live "
                f"{expect_fingerprint[:12]}…); it cannot be resumed here"
            )
        _check_meta(meta, what)
        try:
            state = unpack_json(next(records), what=what)
        except StopIteration:
            raise StoreCorruptError(f"{what}: missing state record") from None
        _check_state(state, len(meta["labels"]), what)
    return meta, state


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_meta(meta: dict, what: str) -> None:
    """The meta keys :func:`checkpointed_execute` and :func:`resume_query` read."""
    if not _checkpoints(meta.get("algorithm")):
        raise StoreCorruptError(
            f"{what}: meta 'algorithm' names no solver that checkpoints"
        )
    labels = meta.get("labels")
    if not isinstance(labels, list) or not all(
        isinstance(label, str) or _is_int(label) for label in labels
    ):
        raise StoreCorruptError(
            f"{what}: meta 'labels' is not a list of strings or integers"
        )


def _check_backpointer(bp) -> bool:
    """``["seed", label]``, ``["grow", node, weight]`` or ``["merge", mask, mask]``."""
    if not isinstance(bp, list) or not bp:
        return False
    kind, fields = bp[0], bp[1:]
    if kind == "seed":
        return len(fields) == 1 and _is_int(fields[0])
    if kind == "grow":
        return len(fields) == 2 and _is_int(fields[0]) and _is_number(fields[1])
    if kind == "merge":
        return len(fields) == 2 and all(_is_int(field) for field in fields)
    return False


def _check_rows(rows, width: int) -> bool:
    """``[[packed key, number, (backpointer)], ...]`` rows."""
    return isinstance(rows, list) and all(
        isinstance(row, list)
        and len(row) == width
        and _is_int(row[0])
        and _is_number(row[1])
        and (width == 2 or _check_backpointer(row[2]))
        for row in rows
    )


def _check_tree(tree) -> bool:
    """A ``best_tree`` record: ``None`` or non-empty nodes plus edges."""
    if tree is None:
        return True
    if not isinstance(tree, dict):
        return False
    nodes, edges = tree.get("nodes"), tree.get("edges")
    return (
        isinstance(nodes, list)
        and bool(nodes)
        and all(_is_int(node) for node in nodes)
        and isinstance(edges, list)
        and all(
            isinstance(edge, list)
            and len(edge) == 3
            and _is_int(edge[0])
            and _is_int(edge[1])
            and _is_number(edge[2])
            for edge in edges
        )
    )


def _check_floor(floor) -> bool:
    """A ``floor`` record: ``None``, or two bounds and a tree."""
    if floor is None:
        return True
    return (
        isinstance(floor, dict)
        and _is_number(floor.get("weight"))
        and _is_number(floor.get("lower_bound"))
        and floor.get("tree") is not None
        and _check_tree(floor.get("tree"))
    )


def _check_state(state, num_labels: int, what: str) -> None:
    """The keys :meth:`SearchEngine.restore` reads, with their types."""
    if not isinstance(state, dict):
        raise StoreCorruptError(f"{what}: malformed state record")
    problem = None
    if state.get("key_bits") != num_labels or not _is_int(state["key_bits"]):
        problem = f"'key_bits' is not the meta's label count {num_labels}"
    elif not (
        _is_number(state.get("best_weight"))
        and _is_number(state.get("global_lb"))
        and _is_number(state.get("elapsed", 0.0))
    ):
        problem = "'best_weight', 'global_lb' or 'elapsed' is not a number"
    elif not (
        _check_rows(state.get("queue"), 2)
        and _check_rows(state.get("pending"), 3)
        and _check_rows(state.get("settled"), 3)
    ):
        problem = "'queue', 'pending' or 'settled' is not a list of rows"
    elif not _check_tree(state.get("best_tree")):
        problem = "'best_tree' is not null or a tree record"
    elif not _check_floor(state.get("floor")):
        problem = "'floor' is not null or two bounds and a tree"
    else:
        stats = state.get("stats", {})
        if not isinstance(stats, dict) or not all(
            _is_number(value) and math.isfinite(value) for value in stats.values()
        ):
            problem = "'stats' is not an object of finite numbers"
    if problem is not None:
        raise StoreCorruptError(f"{what}: malformed state record: {problem}")


class Checkpointer:
    """Cadence-driven checkpoint writer the engine calls per iteration.

    The engine invokes :meth:`maybe_checkpoint` at the top of every pop
    loop iteration (its consistent point) and :meth:`checkpoint` when a
    cooperative cancellation fires; a write happens when either
    ``every_pops`` state pops or ``every_seconds`` wall-clock seconds
    elapsed since the last one.  ``on_write`` is an observation hook
    (tests and the chaos harness use it); ``written`` counts writes and
    lands in :attr:`QueryTrace.checkpoints
    <repro.service.telemetry.QueryTrace.checkpoints>`.
    """

    def __init__(
        self,
        path: str,
        meta: dict,
        *,
        every_pops: Optional[int] = DEFAULT_EVERY_POPS,
        every_seconds: Optional[float] = DEFAULT_EVERY_SECONDS,
        on_write: Optional[Callable[["Checkpointer"], None]] = None,
    ) -> None:
        if every_pops is not None and every_pops <= 0:
            raise ValueError("every_pops must be positive")
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError("every_seconds must be positive")
        self.path = path
        self.meta = meta
        self.every_pops = every_pops
        self.every_seconds = every_seconds
        self.on_write = on_write
        self.written = 0
        self._last_pops = 0
        self._last_time = time.monotonic()

    def maybe_checkpoint(self, engine) -> bool:
        """Write a checkpoint if the cadence says one is due."""
        due = (
            self.every_pops is not None
            and engine.stats.states_popped - self._last_pops >= self.every_pops
        ) or (
            self.every_seconds is not None
            and time.monotonic() - self._last_time >= self.every_seconds
        )
        if not due:
            return False
        self.checkpoint(engine)
        return True

    def checkpoint(self, engine) -> str:
        """Write a checkpoint now, regardless of cadence."""
        write_checkpoint(self.path, self.meta, engine.checkpoint())
        self.written += 1
        self._last_pops = engine.stats.states_popped
        self._last_time = time.monotonic()
        if self.on_write is not None:
            self.on_write(self)
        return self.path

    def discard(self) -> None:
        """Remove the checkpoint file (after a proven-optimal finish)."""
        try:
            os.remove(self.path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# Checkpoint-aware execution (shared by the thread backend, the fleet
# worker entry, and the CLI resume path)
# ----------------------------------------------------------------------
def _checkpoints(key) -> bool:
    """Whether the solver key ``key`` names a solver that checkpoints.

    Only the shared-engine progressive solvers can checkpoint; DPBF
    (and any future off-family baseline) runs without durability rather
    than failing on an unknown keyword argument.
    """
    from ..core.algorithms import _ProgressiveSolverBase
    from ..core.solver import ALGORITHMS

    solver = ALGORITHMS.get(key) if isinstance(key, str) else None
    return solver is not None and issubclass(solver, _ProgressiveSolverBase)


def _progressive_key(index: GraphIndex, algorithm: str, labels) -> Optional[str]:
    """Resolved solver key if it supports checkpointing, else ``None``."""
    try:
        key = index.resolve_algorithm(algorithm, labels)
    except ValueError:
        return None
    return key if _checkpoints(key) else None


def checkpointed_execute(
    index: GraphIndex,
    labels: Iterable[Hashable],
    *,
    algorithm: str = "pruneddp++",
    budget: Optional[Budget] = None,
    query_id=None,
    checkpoint_dir: str,
    policy: Optional["WorkerPolicy"] = None,
    on_write: Optional[Callable[[Checkpointer], None]] = None,
    on_progress: Optional[Callable] = None,
) -> QueryOutcome:
    """``index.execute`` with durability: resume, checkpoint, clean up.

    Takes the labels, ``algorithm``, ``budget`` and ``query_id`` of
    :meth:`GraphIndex.execute <repro.service.index.GraphIndex.execute>`
    and never raises.  It always solves: the result-cache lookup is the
    caller's (:meth:`QueryExecutor.cached
    <repro.service.executor.QueryExecutor.cached>`), and a successful
    answer is still written back.  If ``checkpoint_dir`` holds a valid
    checkpoint for this (graph, labels) pair the search resumes from it
    — under the *checkpoint's* algorithm, whose bounds the stored
    f-values embed — and the trace records ``resumed_from``.  An
    unusable checkpoint (truncated, CRC-flipped, version-skewed,
    fingerprint-mismatched, or naming a node or mask outside the graph)
    is removed and the query falls back to a cold solve.  Checkpoints
    are written on the policy's cadence and at an anytime exit; a run
    that finishes with *proven optimality* discards its checkpoint
    (anytime exits keep it, so the query can later be resumed to
    optimality).  ``on_progress`` receives the solve's progress points.
    """
    labels = tuple(labels)
    os.makedirs(checkpoint_dir, exist_ok=True)
    fingerprint = index.snapshot.fingerprint
    path = checkpoint_path(checkpoint_dir, fingerprint, labels)
    run = dict(
        budget=budget,
        query_id=query_id,
        path=path,
        policy=policy,
        on_write=on_write,
        on_progress=on_progress,
    )
    if os.path.exists(path):
        try:
            meta, state = read_checkpoint(path, expect_fingerprint=fingerprint)
        except StoreError:
            state = None
        if state is not None:
            outcome = _execute(index, labels, meta["algorithm"], state, **run)
            # A row naming a node or mask outside the graph surfaces
            # from the engine's restore; any other outcome stands.
            if not isinstance(outcome.error, StoreError):
                return outcome
        # Fail closed, solve cold: the broken file is removed so the
        # next checkpoint write starts from a clean slate.
        _remove(path)
    return _execute(index, labels, algorithm, None, **run)


def _execute(
    index: GraphIndex,
    labels: Tuple[Hashable, ...],
    algorithm: str,
    restore_state: Optional[dict],
    *,
    budget: Optional[Budget],
    query_id,
    path: str,
    policy: Optional["WorkerPolicy"],
    on_write: Optional[Callable[[Checkpointer], None]] = None,
    on_progress: Optional[Callable] = None,
) -> QueryOutcome:
    """One checkpointed solve: cold, or resumed from ``restore_state``.

    The checkpoint's meta is written afresh from this solve: its
    resolved algorithm, its budget's epsilon and its ``query_id``.
    """
    key = _progressive_key(index, algorithm, labels)
    durability = {}
    checkpointer: Optional[Checkpointer] = None
    if key is not None:
        policy = policy or WorkerPolicy()
        checkpointer = Checkpointer(
            path,
            checkpoint_meta(
                index.snapshot.fingerprint,
                labels,
                key,
                epsilon=budget.epsilon if budget is not None else 0.0,
                query_id=query_id,
            ),
            every_pops=policy.checkpoint_every_pops,
            every_seconds=policy.checkpoint_every_seconds,
            on_write=on_write,
        )
        durability = dict(checkpointer=checkpointer, restore_state=restore_state)

    outcome = index.execute(
        labels,
        algorithm=algorithm,
        budget=budget,
        query_id=query_id,
        use_result_cache=False,
        on_progress=on_progress,
        **durability,
    )
    if checkpointer is not None:
        outcome.trace.resumed_from = path if restore_state is not None else None
        outcome.trace.checkpoints = checkpointer.written
        if outcome.ok and outcome.result is not None and outcome.result.optimal:
            checkpointer.discard()
    return outcome


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def resume_query(
    index: Union[GraphIndex, "object"],
    path: str,
    *,
    budget: Optional[Budget] = None,
    query_id=None,
    policy: Optional["WorkerPolicy"] = None,
    on_progress: Optional[Callable] = None,
) -> QueryOutcome:
    """Resume one checkpointed query to completion (the CLI's ``resume``).

    Reads the checkpoint (raising the typed
    :class:`~repro.errors.StoreError` subclasses on corruption, version
    skew, a graph mismatch, or a row naming a node or mask outside the
    graph — resuming against the wrong graph is the one failure this
    layer must never paper over), then continues the search under the
    checkpoint's own algorithm and label set, and under ``query_id``
    or else the checkpoint's.  The
    default budget is unlimited: the point of resuming is to push an
    interrupted anytime answer to proven optimality.  The checkpoint is
    discarded on a proven-optimal finish and refreshed otherwise, its
    meta then carrying this resume's epsilon, as its engine state does.
    """
    index = GraphIndex.ensure(index)
    fingerprint = index.snapshot.fingerprint
    meta, state = read_checkpoint(path, expect_fingerprint=fingerprint)
    outcome = _execute(
        index,
        tuple(meta["labels"]),
        meta["algorithm"],
        state,
        budget=budget,
        query_id=query_id if query_id is not None else meta.get("query_id"),
        path=path,
        policy=policy,
        on_progress=on_progress,
    )
    if isinstance(outcome.error, StoreError):
        raise outcome.error
    return outcome


# ----------------------------------------------------------------------
# Worker policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerPolicy:
    """Checkpoint cadence, plus the supervision knobs of
    :class:`~repro.service.fleet.FleetPool`.

    ``max_rss_mb``
        Memory watchdog threshold: a worker whose resident set exceeds
        it mid-query is checkpoint-then-killed, and an idle worker over
        it is replaced before its next query (``None`` disables both).
    ``hard_timeout_seconds``
        Absolute wall-clock kill deadline per worker — the containment
        for hangs the cooperative time limit cannot reach (``None``
        disables it).
    ``max_restarts``
        How many times the fleet respawns a *crashed* worker for the
        same query (resuming from its latest checkpoint) before
        surfacing :class:`~repro.errors.WorkerCrashedError` to the
        retry ladder.  Watchdog and timeout kills are never internally
        respawned — rerunning the same configuration would just die the
        same way; the ladder retries them degraded.
    ``checkpoint_every_pops`` / ``checkpoint_every_seconds``
        The engine checkpoint cadence (either trigger; ``None``
        disables that trigger).
    ``chaos_kill_after_checkpoints``
        Test/chaos hook: the first worker to write this many
        checkpoints SIGKILLs itself (exactly once per checkpoint
        directory, via an atomic marker file).  ``None`` in production.
    """

    max_rss_mb: Optional[float] = None
    hard_timeout_seconds: Optional[float] = None
    max_restarts: int = 2
    checkpoint_every_pops: Optional[int] = DEFAULT_EVERY_POPS
    checkpoint_every_seconds: Optional[float] = DEFAULT_EVERY_SECONDS
    chaos_kill_after_checkpoints: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")

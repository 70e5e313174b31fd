"""Resource governance and graceful degradation for the query service.

The paper's progressive framework means an interrupted query still has
a feasible answer with a known approximation gap.  This module turns
that property into fault tolerance — three cooperating mechanisms the
:class:`~repro.service.executor.QueryExecutor` composes into one
pipeline per query:

* **Cooperative cancellation** — a shared
  :class:`~repro.core.budget.CancellationToken` rides the
  :class:`~repro.core.budget.Budget` into the engine's pop loop, so a
  deadline-expired or user-cancelled query stops within a bounded
  number of state pops instead of running to completion.
* **Admission control** (:class:`AdmissionController`) — estimates a
  query's cost from the ``k · 2^k`` DP state space and the index's
  label statistics *before* spending a worker on it, and rejects
  (typed :class:`~repro.errors.QueryRejectedError`) queries over the
  policy's limits or too big for the batch deadline.
* **Retry with a degradation ladder** (:class:`RetryPolicy`) — a query
  whose attempt fails in a way a re-run can rescue (see
  :func:`retryable`: an unexpected exception or a dead fleet worker)
  is re-run, optionally one rung down
  (``pruneddp++ → pruneddp → basic``) with a growing ``epsilon``; the
  progressive solver's bounded-gap feasible tree is accepted as a
  degraded-but-valid answer, and the degradation is recorded in the
  :class:`~repro.service.telemetry.QueryTrace`.

Each attempt calls the solve backend the executor hands in with the
query's labels, ``algorithm``, ``budget`` and ``query_id``, and nothing
else; a retry changes only the algorithm and the budget.

A time limit is not a failure: the engine returns its anytime
incumbent with status ``ok``, so a timed-out query is never retried.
Everything here is deterministic, thread-safe, and dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Tuple

from ..core.budget import Budget
from ..errors import (
    QueryRejectedError,
    ReproError,
    WorkerCrashedError,
)
from .index import QueryOutcome
from .telemetry import QueryTrace

__all__ = [
    "DEGRADATION_LADDER",
    "EPSILON_LADDER",
    "AdmissionPolicy",
    "AdmissionDecision",
    "AdmissionController",
    "RetryPolicy",
    "ResiliencePipeline",
]

# The degradation ladder, fastest-but-heaviest first.  Each rung trades
# solution quality (via a looser epsilon) and per-query preprocessing
# (PrunedDP++'s route tables, PrunedDP's pruning theorems) for a better
# chance of finishing inside the budget.
DEGRADATION_LADDER: Tuple[str, ...] = ("pruneddp++", "pruneddp", "basic")

# The least epsilon of degraded retries 1, 2 and 3-and-beyond.  It only
# ever grows, so a degraded answer's recorded gap is honest.
EPSILON_LADDER: Tuple[float, ...] = (0.1, 0.25, 0.5)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionPolicy:
    """Limits for :class:`AdmissionController`; a query over any is rejected.

    ``max_estimated_states``
        Hard ceiling on the estimated DP state space, whose ``2^k - 1``
        factor makes it grow fastest with the label count ``k``.

    Independently of it, a query whose estimated run time exceeds
    what remains of its budget's deadline is rejected.
    """

    max_estimated_states: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_estimated_states is not None and self.max_estimated_states <= 0:
            raise ValueError("max_estimated_states must be positive")


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller decided for one query, and why."""

    action: str  # "admit" | "reject"
    estimated_states: int
    estimated_seconds: float
    reason: Optional[str] = None

    @property
    def admitted(self) -> bool:
        return self.action == "admit"

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "estimated_states": self.estimated_states,
            "estimated_seconds": self.estimated_seconds,
            "reason": self.reason,
        }

    def error(self) -> QueryRejectedError:
        """The typed error a rejected query fails with."""
        return QueryRejectedError(
            self.reason or "query rejected by admission control",
            estimated_states=self.estimated_states,
            estimated_seconds=self.estimated_seconds,
        )


class AdmissionController:
    """Pre-flight cost estimation against one shared index.

    The estimate is the classic DP state-space bound specialised with
    the index's label statistics: the search explores at most
    ``2^k - 1`` masks per node, and the populated node set is bounded
    both by ``|V|`` and by what ``k`` multi-source Dijkstras seeded from
    ``Σ|V_p|`` group members can reach.  We use

    ``estimated_states = min(|V|, k · Σ|V_p| · EXPANSION) · (2^k - 1)``

    — a coarse upper-bound surrogate (real runs prune far below it; the
    ``STATES_PER_SECOND`` calibration absorbs the constant), but
    monotone in exactly the quantities that make an instance dangerous:
    ``k``, group sizes, and graph size.
    """

    # How many nodes each Dijkstra seed "activates" in the estimate.
    SEED_EXPANSION = 8
    # Translates estimated states into seconds for the deadline check.
    STATES_PER_SECOND = 200_000.0

    def __init__(
        self, index, policy: Optional[AdmissionPolicy] = None
    ) -> None:
        self.index = index
        self.policy = policy or AdmissionPolicy()

    # ------------------------------------------------------------------
    def estimate_states(self, labels: Sequence[Hashable]) -> int:
        """Estimated DP state-space size for this query on this graph."""
        distinct = tuple(dict.fromkeys(labels))
        k = len(distinct)
        if k == 0:
            return 0
        group_total = sum(
            self.index.label_frequency(label) for label in distinct
        )
        reachable = min(
            self.index.num_nodes,
            max(1, k * group_total * self.SEED_EXPANSION),
        )
        return reachable * ((1 << k) - 1)

    def assess(
        self, labels: Sequence[Hashable], budget: Optional[Budget]
    ) -> AdmissionDecision:
        """Decide admit or reject for one query (never raises)."""
        policy = self.policy
        states = self.estimate_states(labels)
        seconds = states / self.STATES_PER_SECOND
        remaining = budget.remaining() if budget is not None else None

        if (
            policy.max_estimated_states is not None
            and states > policy.max_estimated_states
        ):
            reason = (
                f"estimated {states} DP states exceeds ceiling "
                f"{policy.max_estimated_states}"
            )
        elif remaining is not None and seconds > remaining:
            reason = (
                f"estimated {seconds:.3f}s exceeds the remaining deadline "
                f"allowance {remaining:.3f}s"
            )
        else:
            return AdmissionDecision(
                action="admit", estimated_states=states, estimated_seconds=seconds
            )
        return AdmissionDecision(
            action="reject",
            estimated_states=states,
            estimated_seconds=seconds,
            reason=reason,
        )

    def admit(
        self, labels: Sequence[Hashable], budget: Optional[Budget]
    ) -> None:
        """Raising form of :meth:`assess`: returns if the query is
        admitted, else raises :class:`~repro.errors.QueryRejectedError`."""
        decision = self.assess(labels, budget)
        if not decision.admitted:
            raise decision.error()


# ----------------------------------------------------------------------
# Retry with degradation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How a failed query is re-run.

    ``max_retries``
        Extra attempts after the first failure (0 disables retries).
    ``degrade``
        ``False`` retries the *same* algorithm and epsilon (plain
        retry); ``True`` moves each retry one rung further down
        :data:`DEGRADATION_LADDER` from the requested algorithm
        (clamped at the bottom) with the epsilon of
        :data:`EPSILON_LADDER`.
    """

    max_retries: int = 2
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def rung(
        self, requested: str, attempt: int, budget: Optional[Budget]
    ) -> Tuple[str, Optional[Budget]]:
        """Algorithm and budget for retry number ``attempt`` (1-based)."""
        if not self.degrade:
            return requested, budget
        try:
            start = DEGRADATION_LADDER.index(requested)
        except ValueError:
            # Requested algorithm is off-ladder (e.g. "dpbf"): the first
            # retry enters the ladder at the top.
            start = -1
        position = min(start + attempt, len(DEGRADATION_LADDER) - 1)
        epsilon = EPSILON_LADDER[min(attempt - 1, len(EPSILON_LADDER) - 1)]
        base = budget or Budget()
        degraded_budget = base.replace(epsilon=max(base.epsilon, epsilon))
        return DEGRADATION_LADDER[position], degraded_budget


def retryable(outcome) -> bool:
    """Whether a failed outcome is worth re-running.

    Deterministic failures (infeasible queries, malformed input,
    admission rejections) and terminal ones (deadline skips, user
    cancellations) are not; *unexpected* exceptions and a fleet worker
    that died (:class:`~repro.errors.WorkerCrashedError`) are — those
    are exactly the cases a re-run, a lower rung or a looser epsilon
    can rescue.
    """
    error = outcome.error
    if error is None:
        return False
    if outcome.trace.status in ("skipped", "cancelled", "rejected", "infeasible"):
        return False
    if isinstance(error, WorkerCrashedError):
        # A dead worker says nothing about the query; a retry resumes
        # it from its latest checkpoint (or re-runs it cold).
        return True
    return not isinstance(error, ReproError)


# ----------------------------------------------------------------------
# The per-query pipeline
# ----------------------------------------------------------------------
class ResiliencePipeline:
    """Admission → execution → retry ladder, per query.

    The executor owns one pipeline and routes every query through
    :meth:`run`, which upholds the same isolation contract as
    :meth:`GraphIndex.execute <repro.service.index.GraphIndex.execute>`:
    it never raises — rejections, exhausted retries and cancellations
    all come back as a ``QueryOutcome`` whose trace records what the
    pipeline did (``attempts``, ``retries``, ``degraded``,
    ``admission``).
    """

    def __init__(
        self,
        *,
        admission: Optional[AdmissionController] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.admission = admission
        self.retry_policy = retry_policy

    # ------------------------------------------------------------------
    def run(
        self,
        index,
        labels,
        *,
        algorithm: str,
        budget: Optional[Budget],
        query_id=None,
        execute=None,
    ):
        """Run one query through admission → retry ladder.

        ``execute`` overrides how each attempt actually runs.  It is
        called as ``execute(labels, algorithm=..., budget=...,
        query_id=...)`` and never raises, like ``index.execute``; the
        executor passes its solve backend here (the worker fleet's
        dispatch included), so crashed workers flow through the same
        ladder as any other retryable failure.
        """
        labels = tuple(labels)
        if execute is None:
            execute = index.execute
        try:
            requested = index.resolve_algorithm(algorithm, labels)
        except ValueError:
            # Unknown algorithm: let execute() capture it the usual way.
            return execute(
                labels,
                algorithm=algorithm,
                budget=budget,
                query_id=query_id,
            )

        admission_record = None
        if self.admission is not None:
            decision = self.admission.assess(labels, budget)
            admission_record = decision.to_dict()
            if not decision.admitted:
                return _rejected_outcome(labels, requested, query_id, decision)

        max_retries = (
            self.retry_policy.max_retries if self.retry_policy is not None else 0
        )
        algo = requested
        attempt_budget = budget
        retry_records = []
        while True:
            outcome = execute(
                labels,
                algorithm=algo,
                budget=attempt_budget,
                query_id=query_id,
            )
            if len(retry_records) >= max_retries or not retryable(outcome):
                break
            retry_records.append(
                {
                    "algorithm": outcome.trace.algorithm,
                    "epsilon": (
                        attempt_budget.epsilon if attempt_budget is not None else 0.0
                    ),
                    "status": outcome.trace.status,
                    "error": outcome.trace.error,
                    "wall_seconds": outcome.trace.wall_seconds,
                }
            )
            algo, attempt_budget = self.retry_policy.rung(
                requested, len(retry_records), budget
            )

        trace = outcome.trace
        trace.requested_algorithm = requested
        # Every retried failure left a record; the final attempt
        # (success or terminal failure) is the outcome itself.
        trace.attempts = len(retry_records) + 1
        trace.retries = retry_records
        trace.admission = admission_record
        final_epsilon = (
            attempt_budget.epsilon if attempt_budget is not None else 0.0
        )
        base_epsilon = budget.epsilon if budget is not None else 0.0
        trace.degraded = bool(
            trace.algorithm != requested or final_epsilon > base_epsilon
        )
        return outcome


def _rejected_outcome(labels, algorithm, query_id, decision) -> QueryOutcome:
    """The outcome of a query admission control refused: no solver ran."""
    error = decision.error()
    trace = QueryTrace(
        query_id=query_id,
        labels=labels,
        algorithm=algorithm,
        status="rejected",
        error=str(error),
        requested_algorithm=algorithm,
        attempts=0,
        admission=decision.to_dict(),
    )
    return QueryOutcome(
        query_id=query_id,
        labels=labels,
        algorithm=algorithm,
        result=None,
        error=error,
        trace=trace,
    )

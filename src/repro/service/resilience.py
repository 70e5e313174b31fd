"""Resource governance and graceful degradation for the query service.

The paper's progressive framework means an interrupted query still has
a feasible answer with a known approximation gap.  This module turns
that property into fault tolerance — four cooperating mechanisms the
:class:`~repro.service.executor.QueryExecutor` composes into one
pipeline per query:

* **Cooperative cancellation** — a shared
  :class:`~repro.core.budget.CancellationToken` rides the
  :class:`~repro.core.budget.Budget` into the engine's pop loop, so a
  deadline-expired or user-cancelled query stops within a bounded
  number of state pops instead of running to completion.
* **Admission control** (:class:`AdmissionController`) — estimates a
  query's cost from the ``k · 2^k`` DP state space and the index's
  label statistics *before* spending a worker on it, rejecting (typed
  :class:`~repro.errors.QueryRejectedError`) or down-budgeting queries
  that would blow the batch deadline.
* **Retry with a degradation ladder** (:class:`RetryPolicy`) — a query
  that times out or crashes is re-run one rung down
  (``pruneddp++ → pruneddp → basic``) with a growing ``epsilon``; the
  progressive solver's bounded-gap feasible tree is accepted as a
  degraded-but-valid answer, and the degradation is recorded in the
  :class:`~repro.service.telemetry.QueryTrace`.
* **Per-algorithm circuit breaking** (:class:`CircuitBreaker`) — a
  systematically failing configuration trips open after a threshold of
  failures and sheds load straight to the ladder for a cooldown, then
  probes half-open before closing again.

Everything here is deterministic, thread-safe, and dependency-free;
the injectable ``clock`` on breakers keeps the state machine testable
without sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from ..core.budget import Budget
from ..errors import (
    CircuitOpenError,
    LimitExceededError,
    QueryRejectedError,
    ReproError,
    WorkerCrashedError,
)
from ..obs import instruments
from .telemetry import QueryTrace

__all__ = [
    "DEGRADATION_LADDER",
    "AdmissionPolicy",
    "AdmissionDecision",
    "AdmissionController",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "BreakerBoard",
    "ResiliencePipeline",
]

# The degradation ladder, fastest-but-heaviest first.  Each rung trades
# solution quality (via a looser epsilon) and per-query preprocessing
# (PrunedDP++'s route tables, PrunedDP's pruning theorems) for a better
# chance of finishing inside the budget.
DEGRADATION_LADDER: Tuple[str, ...] = ("pruneddp++", "pruneddp", "basic")


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs for :class:`AdmissionController`.

    ``max_estimated_states``
        Hard ceiling on the estimated DP state space; queries above it
        are rejected (``action="reject"``) or down-budgeted
        (``action="clamp"``, which caps ``max_states`` at the ceiling).
    ``max_k``
        Reject queries with more than this many distinct labels — the
        ``2^k`` factor makes ``k`` the single most dangerous dimension.
    ``states_per_second``
        Calibration constant translating estimated states into seconds
        (used only when the budget carries a deadline).
    ``deadline_headroom``
        Fraction of the remaining batch deadline one query may claim;
        estimates above it trigger the configured ``action``.
    ``action``
        ``"reject"`` fails the query fast with
        :class:`~repro.errors.QueryRejectedError`; ``"clamp"`` admits it
        with a budget tightened to fit (``max_states`` / ``time_limit``).
    """

    max_estimated_states: Optional[int] = None
    max_k: Optional[int] = None
    states_per_second: float = 200_000.0
    deadline_headroom: float = 1.0
    action: str = "reject"

    def __post_init__(self) -> None:
        if self.max_estimated_states is not None and self.max_estimated_states <= 0:
            raise ValueError("max_estimated_states must be positive")
        if self.max_k is not None and self.max_k <= 0:
            raise ValueError("max_k must be positive")
        if self.states_per_second <= 0:
            raise ValueError("states_per_second must be positive")
        if not 0.0 < self.deadline_headroom <= 1.0:
            raise ValueError("deadline_headroom must be in (0, 1]")
        if self.action not in ("reject", "clamp"):
            raise ValueError("action must be 'reject' or 'clamp'")


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller decided for one query, and why."""

    action: str  # "admit" | "clamp" | "reject"
    estimated_states: int
    estimated_seconds: float
    reason: Optional[str] = None
    budget: Optional[Budget] = None  # the (possibly clamped) budget to run with

    @property
    def admitted(self) -> bool:
        return self.action != "reject"

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "estimated_states": self.estimated_states,
            "estimated_seconds": self.estimated_seconds,
            "reason": self.reason,
        }


class AdmissionController:
    """Pre-flight cost estimation against one shared index.

    The estimate is the classic DP state-space bound specialised with
    the index's label statistics: the search explores at most
    ``2^k - 1`` masks per node, and the populated node set is bounded
    both by ``|V|`` and by what ``k`` multi-source Dijkstras seeded from
    ``Σ|V_p|`` group members can reach.  We use

    ``estimated_states = min(|V|, k · Σ|V_p| · EXPANSION) · (2^k - 1)``

    — a coarse upper-bound surrogate (real runs prune far below it; the
    ``states_per_second`` calibration absorbs the constant), but
    monotone in exactly the quantities that make an instance dangerous:
    ``k``, group sizes, and graph size.
    """

    # How many nodes each Dijkstra seed "activates" in the estimate.
    SEED_EXPANSION = 8

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
        """Decide admit / clamp / reject for one query (never raises)."""
        policy = self.policy
        distinct = tuple(dict.fromkeys(labels))
        k = len(distinct)
        states = self.estimate_states(distinct)
        seconds = states / policy.states_per_second

        if policy.max_k is not None and k > policy.max_k:
            return AdmissionDecision(
                action="reject",
                estimated_states=states,
                estimated_seconds=seconds,
                reason=f"query has k={k} labels; policy allows max_k={policy.max_k}",
            )

        over_ceiling = (
            policy.max_estimated_states is not None
            and states > policy.max_estimated_states
        )
        remaining = budget.remaining() if budget is not None else None
        allowance = (
            remaining * policy.deadline_headroom if remaining is not None else None
        )
        over_deadline = allowance is not None and seconds > allowance

        if not over_ceiling and not over_deadline:
            return AdmissionDecision(
                action="admit",
                estimated_states=states,
                estimated_seconds=seconds,
                budget=budget,
            )

        if over_ceiling:
            reason = (
                f"estimated {states} DP states exceeds ceiling "
                f"{policy.max_estimated_states}"
            )
        else:
            reason = (
                f"estimated {seconds:.3f}s exceeds the remaining deadline "
                f"allowance {allowance:.3f}s"
            )
        if policy.action == "reject":
            return AdmissionDecision(
                action="reject",
                estimated_states=states,
                estimated_seconds=seconds,
                reason=reason,
            )

        # Clamp: admit, but inside a budget the batch can survive.
        clamped = budget or Budget()
        if policy.max_estimated_states is not None:
            cap = policy.max_estimated_states
            if clamped.max_states is None or clamped.max_states > cap:
                clamped = clamped.replace(max_states=cap, on_limit="return")
        if allowance is not None:
            if clamped.time_limit is None or clamped.time_limit > allowance:
                clamped = clamped.replace(time_limit=max(0.0, allowance))
        return AdmissionDecision(
            action="clamp",
            estimated_states=states,
            estimated_seconds=seconds,
            reason=reason,
            budget=clamped,
        )

    def admit(
        self, labels: Sequence[Hashable], budget: Optional[Budget]
    ) -> Optional[Budget]:
        """Raising form of :meth:`assess`: the admitted budget, or
        :class:`~repro.errors.QueryRejectedError`."""
        decision = self.assess(labels, budget)
        if not decision.admitted:
            raise QueryRejectedError(
                decision.reason or "query rejected by admission control",
                estimated_states=decision.estimated_states,
                estimated_seconds=decision.estimated_seconds,
            )
        return decision.budget


# ----------------------------------------------------------------------
# Retry with degradation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How a failed query is re-run.

    ``max_retries``
        Extra attempts after the first failure (0 disables retries).
    ``ladder``
        Algorithm rungs, strongest first; a retry moves one rung down
        from the requested algorithm's position (clamped at the bottom).
    ``epsilon_ladder``
        Epsilon per retry number; the effective epsilon of attempt *i*
        is ``max(budget.epsilon, epsilon_ladder[min(i, last)])`` — it
        only ever grows, so a degraded answer's recorded gap is honest.
    ``degrade``
        ``False`` retries the *same* algorithm and epsilon (plain
        retry); ``True`` walks the ladder.
    """

    max_retries: int = 2
    ladder: Tuple[str, ...] = DEGRADATION_LADDER
    epsilon_ladder: Tuple[float, ...] = (0.1, 0.25, 0.5)
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not self.ladder:
            raise ValueError("ladder must not be empty")
        if not self.epsilon_ladder:
            raise ValueError("epsilon_ladder must not be empty")

    def rung(
        self, requested: str, attempt: int, budget: Optional[Budget]
    ) -> Tuple[str, Optional[Budget]]:
        """Algorithm and budget for retry number ``attempt`` (1-based)."""
        if not self.degrade:
            return requested, budget
        try:
            start = self.ladder.index(requested)
        except ValueError:
            # Requested algorithm is off-ladder (e.g. "dpbf"): the first
            # retry enters the ladder at the top.
            start = -1
        position = min(start + attempt, len(self.ladder) - 1)
        epsilon = self.epsilon_ladder[min(attempt - 1, len(self.epsilon_ladder) - 1)]
        base = budget or Budget()
        degraded_budget = base.replace(epsilon=max(base.epsilon, epsilon))
        return self.ladder[position], degraded_budget


def retryable(outcome) -> bool:
    """Whether a failed outcome is worth re-running.

    Deterministic failures (infeasible queries, malformed input,
    admission rejections) and terminal ones (deadline skips, user
    cancellations) are not; resource-limit hits and *unexpected*
    exceptions are — those are exactly the cases a lower rung or a
    looser epsilon can rescue.
    """
    error = outcome.error
    if error is None:
        return False
    if outcome.trace.status in ("skipped", "cancelled", "rejected", "infeasible"):
        return False
    if isinstance(error, LimitExceededError):
        return True
    if isinstance(error, WorkerCrashedError):
        # A dead worker says nothing about the query; a retry resumes
        # it from its latest checkpoint (or re-runs it cold).
        return True
    return not isinstance(error, ReproError)


# ----------------------------------------------------------------------
# Circuit breaking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BreakerPolicy:
    """Thresholds for the per-algorithm circuit breakers."""

    failure_threshold: int = 5
    cooldown_seconds: float = 30.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")
        if self.half_open_probes <= 0:
            raise ValueError("half_open_probes must be positive")


class CircuitBreaker:
    """The classic closed → open → half-open state machine.

    ``closed``: requests flow; consecutive failures are counted and the
    ``failure_threshold``-th trips the breaker open.  ``open``: requests
    are refused until ``cooldown_seconds`` elapse, after which the next
    ``allow`` transitions to half-open.  ``half_open``: up to
    ``half_open_probes`` in-flight probes are admitted; one success
    closes the breaker, one failure re-opens it (restarting the
    cooldown).  All transitions are lock-protected; ``clock`` is
    injectable so tests never sleep.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probes_in_flight = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        # Lock must be held.  An elapsed cooldown shows as half-open.
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.policy.cooldown_seconds
        ):
            return self.HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """Whether a request may proceed (reserves a half-open probe)."""
        with self._lock:
            state = self._effective_state()
            if state == self.CLOSED:
                return True
            if state == self.OPEN:
                return False
            # Half-open: admit a bounded number of concurrent probes.
            if self._state == self.OPEN:  # cooldown just elapsed
                self._state = self.HALF_OPEN
                self._probes_in_flight = 0
            if self._probes_in_flight < self.policy.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._state = self.CLOSED
                self._failures = 0
                self._probes_in_flight = 0
                self._opened_at = None
            elif self._state == self.CLOSED:
                self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._probes_in_flight = 0
            elif self._state == self.CLOSED:
                self._failures += 1
                if self._failures >= self.policy.failure_threshold:
                    self._state = self.OPEN
                    self._opened_at = self._clock()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._effective_state(),
                "consecutive_failures": self._failures,
                "probes_in_flight": self._probes_in_flight,
            }


class BreakerBoard:
    """One :class:`CircuitBreaker` per algorithm, created on demand."""

    def __init__(
        self,
        policy: Optional[BreakerPolicy] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, algorithm: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(algorithm)
            if breaker is None:
                breaker = CircuitBreaker(self.policy, clock=self._clock)
                self._breakers[algorithm] = breaker
            return breaker

    def allow(self, algorithm: str) -> bool:
        breaker = self.breaker(algorithm)
        allowed = breaker.allow()
        instruments.set_breaker_state(algorithm, breaker.state)
        return allowed

    def record_success(self, algorithm: str) -> None:
        breaker = self.breaker(algorithm)
        breaker.record_success()
        instruments.set_breaker_state(algorithm, breaker.state)

    def record_failure(self, algorithm: str) -> None:
        breaker = self.breaker(algorithm)
        breaker.record_failure()
        instruments.set_breaker_state(algorithm, breaker.state)

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            breakers = dict(self._breakers)
        return {name: breaker.snapshot() for name, breaker in breakers.items()}


# ----------------------------------------------------------------------
# The per-query pipeline
# ----------------------------------------------------------------------
class ResiliencePipeline:
    """Admission → breaker-gated execution → retry ladder, per query.

    The executor owns one pipeline and routes every query through
    :meth:`run`, which upholds the same isolation contract as
    :meth:`GraphIndex.execute <repro.service.index.GraphIndex.execute>`:
    it never raises — rejections, open circuits, exhausted retries and
    cancellations all come back as a ``QueryOutcome`` whose trace
    records what the pipeline did (``attempts``, ``retries``,
    ``degraded``, ``breaker_skips``, ``admission``).
    """

    def __init__(
        self,
        *,
        admission: Optional[AdmissionController] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breakers: Optional[BreakerBoard] = None,
    ) -> None:
        self.admission = admission
        self.retry_policy = retry_policy
        self.breakers = breakers

    @property
    def is_noop(self) -> bool:
        return (
            self.admission is None
            and self.retry_policy is None
            and self.breakers is None
        )

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
        **solver_kwargs,
    ):
        """Run one query through admission → breakers → retry ladder.

        ``execute`` overrides how each attempt actually runs (same
        signature and never-raises contract as ``index.execute``); the
        worker fleet injects its dispatch here so crashed workers flow
        through the same ladder as timeouts.
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
                **solver_kwargs,
            )

        admission_record = None
        if self.admission is not None:
            decision = self.admission.assess(labels, budget)
            admission_record = decision.to_dict()
            if not decision.admitted:
                return self._failed_outcome(
                    labels,
                    requested,
                    query_id,
                    status="rejected",
                    error=QueryRejectedError(
                        decision.reason or "query rejected by admission control",
                        estimated_states=decision.estimated_states,
                        estimated_seconds=decision.estimated_seconds,
                    ),
                    admission=admission_record,
                )
            budget = decision.budget if decision.budget is not None else budget

        ladder = (
            self.retry_policy.ladder if self.retry_policy is not None
            else DEGRADATION_LADDER
        )
        max_attempts = 1 + (
            self.retry_policy.max_retries if self.retry_policy is not None else 0
        )

        algo = requested
        attempt_budget = budget
        failures = 0
        retry_records = []
        breaker_skips = []
        outcome = None

        while True:
            # Circuit gate: an open breaker sheds this rung to the next
            # one down the ladder without spending a solver run on it.
            if self.breakers is not None:
                shed = self._shed_open_breakers(algo, ladder, breaker_skips)
                if shed is None:
                    return self._failed_outcome(
                        labels,
                        algo,
                        query_id,
                        status="error",
                        error=CircuitOpenError(
                            "circuit breakers are open for every eligible "
                            f"algorithm (skipped: {', '.join(breaker_skips)})"
                        ),
                        admission=admission_record,
                        requested=requested,
                        retries=retry_records,
                        breaker_skips=breaker_skips,
                    )
                if shed != algo:
                    algo = shed
                    attempt_budget = self._degraded_budget(
                        attempt_budget, failures
                    )

            outcome = execute(
                labels,
                algorithm=algo,
                budget=attempt_budget,
                query_id=query_id,
                **solver_kwargs,
            )

            if outcome.error is None:
                if self.breakers is not None:
                    self.breakers.record_success(algo)
                break
            if not retryable(outcome):
                break
            if self.breakers is not None:
                self.breakers.record_failure(algo)
            failures += 1
            if failures >= max_attempts:
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
                requested, failures, budget
            )

        trace = outcome.trace
        trace.requested_algorithm = requested
        # Every retried failure left a record; the final attempt
        # (success or terminal failure) is the outcome itself.
        trace.attempts = len(retry_records) + 1
        trace.retries = retry_records
        trace.breaker_skips = breaker_skips
        trace.admission = admission_record
        final_epsilon = (
            attempt_budget.epsilon if attempt_budget is not None else 0.0
        )
        base_epsilon = budget.epsilon if budget is not None else 0.0
        trace.degraded = bool(
            trace.algorithm != requested or final_epsilon > base_epsilon
        )
        return outcome

    # ------------------------------------------------------------------
    def _shed_open_breakers(self, algo, ladder, breaker_skips):
        """First algorithm at or below ``algo`` whose breaker admits.

        Returns ``None`` when the whole remaining ladder is open.
        """
        if self.breakers.allow(algo):
            return algo
        breaker_skips.append(algo)
        try:
            position = ladder.index(algo)
        except ValueError:
            position = -1
        for candidate in ladder[position + 1:]:
            if self.breakers.allow(candidate):
                return candidate
            breaker_skips.append(candidate)
        return None

    def _degraded_budget(self, budget: Optional[Budget], failures: int):
        """Budget for a breaker-shed rung (epsilon grows like a retry)."""
        if self.retry_policy is None:
            return budget
        base = budget or Budget()
        epsilon = self.retry_policy.epsilon_ladder[
            min(failures, len(self.retry_policy.epsilon_ladder) - 1)
        ]
        return base.replace(epsilon=max(base.epsilon, epsilon))

    def _failed_outcome(
        self,
        labels,
        algorithm,
        query_id,
        *,
        status,
        error,
        admission=None,
        requested=None,
        retries=None,
        breaker_skips=None,
    ):
        # Imported here to avoid a module cycle (index imports nothing
        # from resilience, but keeping it one-directional anyway).
        from .index import QueryOutcome

        trace = QueryTrace(
            query_id=query_id,
            labels=tuple(labels),
            algorithm=algorithm,
            status=status,
            error=str(error),
            requested_algorithm=requested or algorithm,
            retries=list(retries or ()),
            breaker_skips=list(breaker_skips or ()),
            admission=admission,
        )
        # No solver ran for the failing decision itself: executions are
        # exactly the recorded (retried) attempts — 0 for a rejection.
        trace.attempts = len(trace.retries)
        return QueryOutcome(
            query_id=query_id,
            labels=tuple(labels),
            algorithm=algorithm,
            result=None,
            error=error,
            trace=trace,
        )

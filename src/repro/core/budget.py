"""The per-query resource budget shared by every entry point.

A :class:`Budget` is the one way a query's limits reach a solve: the
solver classes, the search engine, the query service, the server and
the CLI all take (or build) one and forward it unchanged, so the same
``time_limit`` / ``epsilon`` / ``max_states`` reach the search engine
whichever door a query came in by.

Budgets are immutable; ``replace`` derives variants.  A budget may also
carry an absolute *deadline* (a ``time.perf_counter`` timestamp), which
the batch executor uses to make a whole batch share one wall-clock
allowance: each query's effective time limit is the smaller of its own
``time_limit`` and whatever remains until the deadline.

A budget may finally carry a :class:`CancellationToken` — a shared,
thread-safe flag the search engine polls inside its pop loop.  Cancel
the token and every query holding it stops within a bounded number of
state pops, returning its best feasible answer so far (the progressive
contract makes that answer valid, with a sound recorded gap).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Optional

__all__ = ["Budget", "CancellationToken"]


class CancellationToken:
    """A shared cooperative-cancellation flag.

    One token can be attached to many budgets (typically one per batch);
    :meth:`cancel` is thread-safe, idempotent, and observed by the search
    engine at its periodic limit check — queries stop within a bounded
    number of state pops, they are never killed mid-state.
    """

    __slots__ = ("_event", "_reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Fire the token.  The first recorded reason wins."""
        if not self._event.is_set():
            self._reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> Optional[str]:
        """Why the token fired (``None`` while live or when unstated)."""
        return self._reason

    def __repr__(self) -> str:
        state = f"cancelled, reason={self._reason!r}" if self.cancelled else "live"
        return f"CancellationToken({state})"


@dataclass(frozen=True)
class Budget:
    """Resource limits for one GST solve.

    ``time_limit``
        Wall-clock seconds for the search (best answer so far is
        returned when it expires).
    ``epsilon``
        Stop once a ``(1 + epsilon)``-approximation is proven.
    ``max_states``
        Cap on popped DP states; hitting it returns the incumbent, as
        a time limit does.
    ``deadline``
        Absolute ``time.perf_counter()`` timestamp after which no more
        work should start.  Usually set via :meth:`with_deadline` by
        the batch executor, not by hand.
    ``cancel_token``
        Optional shared :class:`CancellationToken` polled by the search
        engine's pop loop; usually attached via :meth:`with_cancellation`.
    """

    time_limit: Optional[float] = None
    epsilon: float = 0.0
    max_states: Optional[int] = None
    deadline: Optional[float] = None
    cancel_token: Optional[CancellationToken] = None

    def __post_init__(self) -> None:
        if self.time_limit is not None and self.time_limit < 0.0:
            raise ValueError("time_limit must be >= 0")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        if self.max_states is not None and self.max_states <= 0:
            raise ValueError("max_states must be positive")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "Budget":
        """A copy with the given fields changed (budgets are frozen)."""
        return dataclasses.replace(self, **changes)

    def with_deadline(self, seconds_from_now: float) -> "Budget":
        """A copy whose deadline is ``seconds_from_now`` from now.

        A budget that already carries a deadline keeps the *earlier* of
        the two — a batch nested inside an outer deadline can only
        tighten the allowance, never extend it.
        """
        if seconds_from_now < 0.0:
            raise ValueError("deadline must be >= 0 seconds from now")
        new_deadline = time.perf_counter() + seconds_from_now
        if self.deadline is not None:
            new_deadline = min(new_deadline, self.deadline)
        return self.replace(deadline=new_deadline)

    def with_cancellation(self, token: CancellationToken) -> "Budget":
        """A copy carrying the given cooperative-cancellation token."""
        return self.replace(cancel_token=token)

    # ------------------------------------------------------------------
    # Deadline arithmetic
    # ------------------------------------------------------------------
    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when no deadline set).

        Clamped at 0.0: an already-passed deadline reports *zero*
        seconds left, never a negative number — callers turn this into
        time allowances (admission's deadline check, effective time
        limits) where a negative value would silently corrupt the
        arithmetic instead of meaning "no time left".
        """
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.perf_counter())

    def expired(self) -> bool:
        """Whether the deadline has passed (never true without one)."""
        if self.deadline is None:
            return False
        return time.perf_counter() >= self.deadline

    def cancelled(self) -> bool:
        """Whether the attached cancellation token (if any) has fired."""
        return self.cancel_token is not None and self.cancel_token.cancelled

    def effective_time_limit(self) -> Optional[float]:
        """``time_limit`` clamped by whatever remains until the deadline."""
        remaining = self.remaining()
        if remaining is None:
            return self.time_limit
        remaining = max(0.0, remaining)
        if self.time_limit is None:
            return remaining
        return min(self.time_limit, remaining)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-friendly record (deadlines reported as remaining secs)."""
        return {
            "time_limit": self.time_limit,
            "epsilon": self.epsilon,
            "max_states": self.max_states,
            "deadline_remaining": self.remaining(),
            "cancelled": self.cancelled(),
        }

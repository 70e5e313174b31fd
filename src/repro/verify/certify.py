"""Independent solution certifier for :class:`~repro.core.result.GSTResult`.

The paper's claims are correctness claims: every tier must return the
*same* optimal weight, and every progressive report must satisfy
``LB ≤ f* ≤ UB`` with ``UB/LB ≤ (1 + ε)`` at termination.  This module
re-derives those facts from first principles — walking the answer tree
against the live graph, recomputing its weight, and checking every
claimed bound — sharing no code with the search engines beyond the
:class:`~repro.core.tree.SteinerTree` container itself.

Two entry points:

* :func:`certify_result` — full post-hoc validation of a finished
  :class:`GSTResult` (tree shape, coverage, weight, bounds, trace
  invariants, optional cross-check against a known optimum).  Returns a
  :class:`Certificate`; call :meth:`Certificate.raise_if_failed` to turn
  violations into a :class:`~repro.errors.CertificationError`.
* :func:`certify_incumbent` — the engine's ``debug_certify`` hook:
  validates one incumbent update in the pop loop and raises immediately,
  so a wrong answer is caught at the exact pop that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple

from ..core.result import GSTResult
from ..core.tree import SteinerTree
from ..errors import CertificationError, GraphError
from ..graph.graph import Graph

__all__ = ["Certificate", "certify_result", "certify_incumbent"]

INF = float("inf")

# Relative tolerance for recomputed-weight and bound comparisons.  Edge
# weights are summed in different orders by different tiers, so exact
# float equality is not expected; anything beyond a few ulps is a bug.
_REL_TOL = 1e-9


def _tol(reference: float) -> float:
    if reference == INF:
        return 0.0
    return _REL_TOL * max(1.0, abs(reference))


@dataclass
class Certificate:
    """Outcome of certifying one answer: which checks ran, what failed."""

    algorithm: str
    labels: Tuple[Hashable, ...]
    passed: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def _check(self, name: str, condition: bool, detail: str) -> bool:
        if condition:
            self.passed.append(name)
        else:
            self.violations.append(f"{name}: {detail}")
        return condition

    def raise_if_failed(self) -> "Certificate":
        """Raise :class:`CertificationError` if any check failed."""
        if self.violations:
            raise CertificationError(
                f"{self.algorithm} answer for {list(self.labels)!r} failed "
                f"certification: " + "; ".join(self.violations)
            )
        return self

    def summary(self) -> str:
        if self.ok:
            return f"certified ({len(self.passed)} checks)"
        return "FAILED: " + "; ".join(self.violations)


def certify_result(
    graph: Graph,
    result: GSTResult,
    *,
    labels: Optional[Sequence[Hashable]] = None,
    epsilon: Optional[float] = None,
    expected_weight: Optional[float] = None,
) -> Certificate:
    """Re-validate ``result`` against ``graph`` from first principles.

    Checks performed:

    * **shape** — a finite ``weight`` comes with a tree and vice versa;
    * **tree** — every edge exists in the graph with the stored weight,
      the edge set is acyclic and connected, and every query group has
      a node in the tree (:meth:`SteinerTree.validate`);
    * **weight** — the recomputed edge-weight sum matches ``weight``;
    * **bounds** — ``0 ≤ lower_bound ≤ weight``, and ``optimal`` implies
      ``lower_bound == weight`` (a ratio-1 certificate);
    * **epsilon** — when ``epsilon`` is given and the solve was not
      cancelled, the exit guarantee ``weight ≤ (1+ε)·lower_bound``
      actually holds (``optimal`` answers satisfy it trivially);
    * **trace** — progress reports never cross (``LB ≤ UB``), the UB
      curve is non-increasing and the LB curve non-decreasing, no LB
      exceeds a proven optimum, timestamps are non-decreasing, and the
      final report matches the result;
    * **optimum** — when ``expected_weight`` (an independent reference,
      e.g. brute force) is given: never better than it, and equal to it
      when optimality is claimed.

    ``labels`` defaults to ``result.labels``.  ``epsilon`` should be
    passed only when the solve genuinely ran to its epsilon exit —
    budget-truncated anytime answers legitimately carry looser ratios.
    """
    query_labels: Tuple[Hashable, ...] = (
        tuple(labels) if labels is not None else tuple(result.labels)
    )
    cert = Certificate(algorithm=result.algorithm, labels=query_labels)

    has_tree = result.tree is not None
    finite = result.weight < INF
    cert._check(
        "shape",
        has_tree == finite,
        f"weight={result.weight!r} but tree is "
        f"{'present' if has_tree else 'absent'}",
    )

    if has_tree:
        tree: SteinerTree = result.tree  # type: ignore[assignment]
        try:
            tree.validate(graph, query_labels)
            cert.passed.append("tree")
        except GraphError as exc:
            cert.violations.append(f"tree: {exc}")
        recomputed = sum(w for _, _, w in tree.edges)
        cert._check(
            "weight",
            abs(recomputed - result.weight) <= _tol(result.weight),
            f"recomputed edge sum {recomputed!r} != reported "
            f"{result.weight!r}",
        )

    lb = result.lower_bound
    cert._check("lb-nonnegative", lb >= 0.0, f"lower_bound={lb!r} < 0")
    cert._check(
        "lb-noncrossing",
        lb <= result.weight + _tol(result.weight),
        f"lower_bound={lb!r} crosses weight={result.weight!r}",
    )
    if result.optimal:
        cert._check(
            "optimal-certificate",
            finite and abs(lb - result.weight) <= _tol(result.weight),
            f"optimal=True but lower_bound={lb!r} does not meet "
            f"weight={result.weight!r}",
        )

    if epsilon is not None and finite and not result.stats.cancelled:
        satisfied = result.optimal or (
            lb > 0.0
            and result.weight <= (1.0 + epsilon) * lb + _tol(result.weight)
        )
        cert._check(
            "epsilon-exit",
            satisfied,
            f"weight={result.weight!r} exceeds (1+{epsilon})*"
            f"lower_bound={lb!r} at exit",
        )

    _certify_trace(cert, result)

    if expected_weight is not None:
        cert._check(
            "not-better-than-optimum",
            result.weight >= expected_weight - _tol(expected_weight),
            f"weight={result.weight!r} beats the reference optimum "
            f"{expected_weight!r}",
        )
        if result.optimal:
            cert._check(
                "matches-optimum",
                abs(result.weight - expected_weight) <= _tol(expected_weight),
                f"claimed-optimal weight={result.weight!r} != reference "
                f"optimum {expected_weight!r}",
            )

    return cert


def _certify_trace(cert: Certificate, result: GSTResult) -> None:
    """The monotone non-crossing invariants of the progressive contract.

    A lower bound may never fall, and none may exceed a proven optimum:
    a bound that stays under its own upper bound can still be unsound.
    """
    previous_ub = INF
    previous_lb = 0.0
    previous_elapsed = -INF
    for i, point in enumerate(result.trace):
        if point.lower_bound > point.best_weight + _tol(point.best_weight):
            cert.violations.append(
                f"trace[{i}]: lower_bound={point.lower_bound!r} crosses "
                f"best_weight={point.best_weight!r}"
            )
            return
        if point.lower_bound < previous_lb - _tol(previous_lb):
            cert.violations.append(
                f"trace[{i}]: lower_bound={point.lower_bound!r} fell "
                f"from {previous_lb!r}"
            )
            return
        if result.optimal and point.lower_bound > result.weight + _tol(
            result.weight
        ):
            cert.violations.append(
                f"trace[{i}]: lower_bound={point.lower_bound!r} exceeds "
                f"the proven optimum {result.weight!r}"
            )
            return
        if point.best_weight > previous_ub + _tol(previous_ub):
            cert.violations.append(
                f"trace[{i}]: best_weight={point.best_weight!r} regressed "
                f"from {previous_ub!r}"
            )
            return
        if point.elapsed < previous_elapsed:
            cert.violations.append(
                f"trace[{i}]: elapsed={point.elapsed!r} went backwards"
            )
            return
        previous_ub = point.best_weight
        previous_lb = point.lower_bound
        previous_elapsed = point.elapsed
    if result.trace:
        final = result.trace[-1]
        if abs(final.best_weight - result.weight) > _tol(result.weight):
            cert.violations.append(
                f"trace: final best_weight={final.best_weight!r} != result "
                f"weight={result.weight!r}"
            )
            return
    cert.passed.append("trace")


def certify_incumbent(
    graph: Graph,
    labels: Sequence[Hashable],
    tree: Optional[SteinerTree],
    claimed_weight: float,
    lower_bound: float,
) -> None:
    """Validate one incumbent update; raises on the first violation.

    This is the engine's ``debug_certify`` hook — called on every
    ``new_best`` event, so it must be cheap (one tree walk) and must
    fail *loudly* at the offending pop rather than at the end of the
    solve.
    """
    violations: List[str] = []
    if tree is None:
        violations.append(f"incumbent weight {claimed_weight!r} has no tree")
    else:
        try:
            tree.validate(graph, labels)
        except GraphError as exc:
            violations.append(f"tree: {exc}")
        recomputed = sum(w for _, _, w in tree.edges)
        if abs(recomputed - claimed_weight) > _tol(claimed_weight):
            violations.append(
                f"recomputed weight {recomputed!r} != claimed "
                f"{claimed_weight!r}"
            )
    if lower_bound < 0.0:
        violations.append(f"lower_bound={lower_bound!r} < 0")
    if lower_bound > claimed_weight + _tol(claimed_weight):
        violations.append(
            f"lower_bound={lower_bound!r} crosses incumbent "
            f"{claimed_weight!r}"
        )
    if violations:
        raise CertificationError(
            f"incumbent update for {list(labels)!r} failed certification: "
            + "; ".join(violations)
        )

"""The resilience layer's contract under injected faults.

The batch isolation contract, strengthened: under injected hangs,
crashes and hostile load, ``run_batch`` never raises; cancelled queries
stop within a bounded number of state pops; admission rejects what the
policy or the deadline cannot afford; degraded outcomes carry a
feasible tree whose recorded gap respects the rung's epsilon — all of
it visible in ``QueryTrace`` fields.
"""

from __future__ import annotations

import pytest

import repro.core.solver as solver_mod
from repro.core import BasicSolver, GSTQuery, QueryContext
from repro.core.budget import Budget, CancellationToken
from repro.errors import (
    QueryCancelledError,
    QueryRejectedError,
)
from repro.graph import generators
from repro.verify import certify_result
from repro.service import (
    EPSILON_LADDER,
    AdmissionController,
    AdmissionPolicy,
    GraphIndex,
    QueryExecutor,
    RetryPolicy,
)

# The engine checks limits (including the cancellation token) every
# this many pops; the bounded-stop contract is stated in its terms.
from repro.core.engine import _LIMIT_CHECK_INTERVAL


@pytest.fixture
def graph():
    return generators.random_graph(
        60, 130, num_query_labels=6, label_frequency=4, seed=33
    )


@pytest.fixture
def index(graph):
    return GraphIndex(graph)


@pytest.fixture
def big_graph():
    # Big enough that BasicSolver pops thousands of states on a 5-label
    # query — room for mid-run cancellation to matter.
    return generators.random_graph(
        200, 500, num_query_labels=6, label_frequency=5, seed=11
    )


HEAVY = ["q0", "q1", "q2", "q3", "q4"]


# ----------------------------------------------------------------------
# Cooperative cancellation
# ----------------------------------------------------------------------
class TestCancellation:
    def test_precancelled_token_pops_nothing(self, big_graph):
        token = CancellationToken()
        token.cancel("pre-cancelled")
        budget = Budget().with_cancellation(token)
        result = BasicSolver(big_graph, HEAVY, budget=budget).solve()
        assert result.stats.cancelled
        assert result.stats.states_popped == 0
        # The anytime answer is the tree the cold label Dijkstras found.
        early = QueryContext.build(big_graph, GSTQuery(HEAVY)).early
        assert result.tree == early.tree
        assert result.weight == early.weight
        certify_result(big_graph, result).raise_if_failed()

    def test_midrun_cancel_stops_within_check_interval(self, big_graph):
        # Cancel at the first feasible answer: the engine must stop
        # within one limit-check interval of the cancellation point.
        clean = BasicSolver(big_graph, HEAVY).solve()
        assert clean.stats.states_popped > 2 * _LIMIT_CHECK_INTERVAL

        token = CancellationToken()

        def cancel_on_first_best(point):
            token.cancel("first feasible answer is good enough")

        result = BasicSolver(
            big_graph,
            HEAVY,
            budget=Budget().with_cancellation(token),
            on_progress=cancel_on_first_best,
        ).solve()
        assert result.stats.cancelled
        # The first progress event fires within the first check interval,
        # and at most one more interval elapses before the engine stops.
        assert result.stats.states_popped <= 2 * _LIMIT_CHECK_INTERVAL
        # The progressive contract: the incumbent is feasible and its
        # recorded gap is sound.
        assert result.tree is not None
        result.tree.validate(big_graph, HEAVY)
        assert result.weight >= clean.weight

    def test_cancelled_outcome_through_service(self, index):
        token = CancellationToken()
        token.cancel("user clicked stop")
        with QueryExecutor(index, max_workers=2) as executor:
            outcomes = executor.run_batch([["q0", "q1"]] * 4, cancel_token=token)
        assert [o.trace.status for o in outcomes] == ["cancelled"] * 4
        assert all(isinstance(o.error, QueryCancelledError) for o in outcomes)
        assert all(o.trace.cancelled for o in outcomes)
        assert all("user clicked stop" in str(o.error) for o in outcomes)

    def test_cancel_mid_batch_never_raises(self, big_graph):
        index = GraphIndex(big_graph)
        token = CancellationToken()
        queries = [HEAVY] * 12
        with QueryExecutor(index, max_workers=2, algorithm="basic") as executor:
            futures = [
                executor.submit(q, query_id=i, cancel_token=token)
                for i, q in enumerate(queries)
            ]
            token.cancel("mid-batch")
            outcomes = [f.result() for f in futures]
        assert len(outcomes) == len(queries)
        # Every outcome is a real outcome; none leaked an exception.
        assert {o.trace.status for o in outcomes} <= {"ok", "cancelled"}
        assert "cancelled" in [o.trace.status for o in outcomes]


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_estimate_grows_with_k_and_frequency(self, index):
        controller = AdmissionController(index)
        two = controller.estimate_states(["q0", "q1"])
        three = controller.estimate_states(["q0", "q1", "q2"])
        assert 0 < two < three

    def test_state_ceiling_rejects_with_typed_error(self, index):
        controller = AdmissionController(
            index, AdmissionPolicy(max_estimated_states=1)
        )
        with pytest.raises(QueryRejectedError) as info:
            controller.admit(["q0", "q1"], Budget())
        assert info.value.estimated_states > 1

    def test_deadline_aware_rejection(self, index):
        # The default policy still checks the estimate, priced at the
        # controller's calibration constant, against the deadline: half
        # the estimated time cannot fit, a minute easily does.
        controller = AdmissionController(index)
        labels = ["q0", "q1", "q2"]
        seconds = (
            controller.estimate_states(labels)
            / AdmissionController.STATES_PER_SECOND
        )
        tight = controller.assess(labels, Budget().with_deadline(seconds / 2))
        assert tight.action == "reject"
        assert "deadline" in tight.reason
        assert tight.estimated_seconds == seconds
        roomy = controller.assess(labels, Budget().with_deadline(60.0))
        assert roomy.action == "admit" and roomy.reason is None

    def test_rejected_query_is_isolated_in_batch(self, index):
        # A ceiling the two-label sibling fits under and the
        # three-label query (a 2^k - 1 factor of 7, not 3) does not.
        controller = AdmissionController(index)
        ceiling = controller.estimate_states(["q3", "q4"])
        assert controller.estimate_states(["q0", "q1", "q2"]) > ceiling
        with QueryExecutor(
            index,
            admission=AdmissionPolicy(max_estimated_states=ceiling),
            max_workers=2,
        ) as executor:
            outcomes = executor.run_batch([["q0", "q1", "q2"], ["q3", "q4"]])
        rejected, sibling = outcomes
        assert rejected.trace.status == "rejected"
        assert isinstance(rejected.error, QueryRejectedError)
        assert rejected.trace.admission["action"] == "reject"
        assert rejected.trace.attempts == 0  # no solver ever ran
        assert sibling.ok and sibling.result.optimal
        assert sibling.trace.admission["action"] == "admit"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_estimated_states=0)


# ----------------------------------------------------------------------
# Retry with degradation
# ----------------------------------------------------------------------
class BoomError(RuntimeError):
    pass


@pytest.fixture
def broken_top_rung(monkeypatch):
    """Make the 'pruneddp++' rung raise mid-search; count the attempts."""
    calls = {"n": 0}
    real = solver_mod.ALGORITHMS["pruneddp++"]

    class Exploding(real):
        def run_search(self, context, prepared=None):
            calls["n"] += 1
            raise BoomError("injected mid-search crash")

    monkeypatch.setitem(solver_mod.ALGORITHMS, "pruneddp++", Exploding)
    return calls


class TestRetryLadder:
    def test_degrades_one_rung_and_records_it(self, index, broken_top_rung):
        with QueryExecutor(
            index, retry_policy=RetryPolicy(max_retries=2)
        ) as executor:
            outcome = executor.run_batch([["q0", "q1"]])[0]
        assert outcome.ok
        assert outcome.algorithm == "pruneddp"          # one rung down
        assert outcome.trace.requested_algorithm == "pruneddp++"
        assert outcome.trace.degraded
        assert outcome.trace.attempts == 2
        assert [r["algorithm"] for r in outcome.trace.retries] == ["pruneddp++"]
        assert "injected" in outcome.trace.retries[0]["error"]
        assert broken_top_rung["n"] == 1

    def test_degraded_gap_respects_rung_epsilon(self, index, broken_top_rung):
        policy = RetryPolicy(max_retries=2)
        with QueryExecutor(index, retry_policy=policy) as executor:
            outcome = executor.run_batch([["q0", "q1", "q2"]])[0]
        assert outcome.ok and outcome.trace.degraded
        assert outcome.result.tree is not None
        # The degraded answer's recorded guarantee honors the rung's
        # epsilon: the gap never exceeds what the rung asked for.
        assert outcome.result.ratio <= 1 + EPSILON_LADDER[0] + 1e-9

    def test_infeasible_is_not_retried(self, index):
        with QueryExecutor(
            index, retry_policy=RetryPolicy(max_retries=3)
        ) as executor:
            outcome = executor.run_batch([["q0", "no-such-label"]])[0]
        assert outcome.trace.status == "infeasible"
        assert outcome.trace.attempts == 1
        assert outcome.trace.retries == []

    def test_exhausted_retries_fail_cleanly(self, index, monkeypatch):
        for name in ("pruneddp++", "pruneddp", "basic"):
            real = solver_mod.ALGORITHMS[name]

            class AlwaysBoom(real):  # noqa: B023 - bound per iteration below
                def run_search(self, context, prepared=None):
                    raise BoomError("everything is broken")

            monkeypatch.setitem(solver_mod.ALGORITHMS, name, AlwaysBoom)
        with QueryExecutor(
            index, retry_policy=RetryPolicy(max_retries=2)
        ) as executor:
            outcome = executor.run_batch([["q0", "q1"]])[0]
        assert not outcome.ok
        assert outcome.trace.status == "error"
        assert outcome.trace.attempts == 3
        assert len(outcome.trace.retries) == 2

    def test_plain_retry_without_degradation(self, index, broken_top_rung):
        policy = RetryPolicy(max_retries=2, degrade=False)
        with QueryExecutor(index, retry_policy=policy) as executor:
            outcome = executor.run_batch([["q0", "q1"]])[0]
        # Same (broken) algorithm every time: the query fails, but the
        # trace shows three faithful attempts at the requested rung.
        assert not outcome.ok
        assert outcome.trace.attempts == 3
        assert broken_top_rung["n"] == 3
        assert not outcome.trace.degraded

    def test_rung_epsilon_only_grows(self):
        policy = RetryPolicy()
        base = Budget(epsilon=0.5)
        _, first = policy.rung("pruneddp++", 1, base)
        assert first.epsilon == 0.5  # never shrinks below the caller's
        # Past the ladder's end, retries stay at its bottom rung and
        # loosest epsilon.
        algorithm, late = policy.rung("pruneddp++", 9, Budget())
        assert algorithm == "basic"
        assert late.epsilon == EPSILON_LADDER[-1]


# ----------------------------------------------------------------------
# Traces stay JSON-safe with every resilience field populated
# ----------------------------------------------------------------------
class TestTraceSerialization:
    def test_resilience_fields_survive_json(self, index, broken_top_rung):
        import json

        with QueryExecutor(
            index,
            admission=AdmissionPolicy(max_estimated_states=10**12),
            retry_policy=RetryPolicy(max_retries=2),
        ) as executor:
            outcome = executor.run_batch([["q0", "q1"]])[0]
        record = json.loads(outcome.trace.to_json())
        assert record["requested_algorithm"] == "pruneddp++"
        assert record["attempts"] == 2
        assert record["degraded"] is True
        assert record["admission"]["action"] == "admit"
        assert record["retries"][0]["algorithm"] == "pruneddp++"

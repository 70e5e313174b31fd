"""Budget semantics + the budget-passthrough regression suite.

The second half pins down the historical drift bug: a budget passed
through any public entry point must reach the search engine.  A spy
engine records every engine constructed; each test drives one entry
point and asserts the engine runs under the limits the caller asked
for.
"""

from __future__ import annotations

import time

import pytest

import repro.core.algorithms as algorithms_mod
from repro.core import Budget, PrunedDPPlusPlusSolver, solve_gst
from repro.core.dpbf import DPBFSolver
from repro.core.engine import SearchEngine
from repro.graph import generators
from repro.service import GraphIndex


@pytest.fixture
def graph():
    return generators.random_graph(
        40, 90, num_query_labels=5, label_frequency=3, seed=7
    )


class TestBudgetValue:
    def test_defaults(self):
        budget = Budget()
        assert budget.time_limit is None
        assert budget.epsilon == 0.0
        assert budget.max_states is None
        assert budget.deadline is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time_limit": -1.0},
            {"epsilon": -0.1},
            {"max_states": 0},
            {"max_states": -5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Budget(**kwargs)

    def test_frozen(self):
        with pytest.raises(Exception):
            Budget().time_limit = 3.0  # type: ignore[misc]

    def test_replace(self):
        derived = Budget(epsilon=0.5).replace(time_limit=2.0)
        assert derived.time_limit == 2.0
        assert derived.epsilon == 0.5

    def test_deadline_arithmetic(self):
        budget = Budget(time_limit=100.0).with_deadline(60.0)
        remaining = budget.remaining()
        assert remaining is not None and 0.0 < remaining <= 60.0
        assert not budget.expired()
        # The deadline clamps the per-query time limit.
        assert budget.effective_time_limit() <= 60.0

    def test_expired_deadline(self):
        budget = Budget().replace(deadline=time.perf_counter() - 1.0)
        assert budget.expired()
        assert budget.effective_time_limit() == 0.0

    def test_no_deadline_never_expires(self):
        budget = Budget(time_limit=0.0)
        assert not budget.expired()
        assert budget.effective_time_limit() == 0.0

    def test_negative_with_deadline_rejected(self):
        with pytest.raises(ValueError):
            Budget().with_deadline(-1.0)

    def test_with_deadline_keeps_earlier_when_tightening(self):
        """Outer 100s allowance, then nested 10s batch: 10s wins."""
        budget = Budget().with_deadline(100.0).with_deadline(10.0)
        remaining = budget.remaining()
        assert remaining is not None and remaining <= 10.0

    def test_with_deadline_keeps_earlier_when_loosening(self):
        """Outer 10s allowance, then nested 100s batch: a nested batch
        must not extend the allowance it inherited — 10s still wins."""
        budget = Budget().with_deadline(10.0).with_deadline(100.0)
        remaining = budget.remaining()
        assert remaining is not None and remaining <= 10.0

    def test_with_cancellation_round_trip(self):
        from repro.core.budget import CancellationToken

        token = CancellationToken()
        budget = Budget(time_limit=1.0).with_cancellation(token)
        assert budget.cancel_token is token
        assert not budget.cancelled()
        token.cancel("because")
        assert budget.cancelled()
        assert token.reason == "because"
        assert budget.to_dict()["cancelled"] is True

    def test_to_dict_is_json_friendly(self):
        import json

        record = Budget(time_limit=1.0).with_deadline(5.0).to_dict()
        json.dumps(record)
        assert record["time_limit"] == 1.0
        assert record["deadline_remaining"] <= 5.0


# ----------------------------------------------------------------------
# Budget-passthrough regression: every entry point → the engine.
# ----------------------------------------------------------------------
@pytest.fixture
def engine_spy(monkeypatch):
    """Record every SearchEngine constructed."""
    engines = []

    class SpyEngine(SearchEngine):
        def __init__(self, context, **kwargs):
            super().__init__(context, **kwargs)
            engines.append(self)

    monkeypatch.setattr(algorithms_mod, "SearchEngine", SpyEngine)
    return engines


LIMITS = dict(time_limit=5.0, epsilon=0.25, max_states=100_000)


def _assert_limits(engine: SearchEngine) -> None:
    assert engine.time_limit == 5.0
    assert engine.epsilon == 0.25
    assert engine.max_states == 100_000


class TestKwargsReachEngine:
    def test_solver_class_budget(self, graph, engine_spy):
        progress, feasible = [], []
        PrunedDPPlusPlusSolver(
            graph,
            ["q0", "q1"],
            budget=Budget(**LIMITS),
            on_progress=progress.append,
            on_feasible=feasible.append,
        ).solve()
        (engine,) = engine_spy
        _assert_limits(engine)
        assert engine.on_progress is not None
        assert engine.on_feasible is not None
        assert progress, "on_progress callback never fired"

    def test_solve_gst_budget(self, graph, engine_spy):
        solve_gst(graph, ["q0", "q1"], budget=Budget(**LIMITS))
        _assert_limits(engine_spy[0])

    def test_graph_index_budget(self, graph, engine_spy):
        GraphIndex(graph).solve(["q0", "q1"], budget=Budget(**LIMITS))
        _assert_limits(engine_spy[0])

    @pytest.mark.parametrize("algorithm", ["basic", "pruneddp", "pruneddp+"])
    def test_every_engine_algorithm(self, graph, engine_spy, algorithm):
        solve_gst(
            graph, ["q0", "q1"], algorithm=algorithm, budget=Budget(**LIMITS)
        )
        _assert_limits(engine_spy[0])

    def test_deadline_clamps_engine_time_limit(self, graph, engine_spy):
        budget = Budget(time_limit=100.0).with_deadline(10.0)
        GraphIndex(graph).solve(["q0", "q1"], budget=budget)
        assert engine_spy[0].time_limit <= 10.0


class TestExpiredDeadlineRegression:
    """``remaining()`` must clamp at 0.0 — never report negative time.

    The historical bug: an already-passed deadline made ``remaining()``
    return a negative number, which admission control then multiplied
    into a negative allowance and reported in budgets' ``to_dict``.
    """

    def _expired_budget(self) -> Budget:
        return Budget().replace(deadline=time.perf_counter() - 5.0)

    def test_remaining_is_clamped_at_zero(self):
        budget = self._expired_budget()
        assert budget.remaining() == 0.0
        assert budget.expired()

    def test_to_dict_never_reports_negative_remaining(self):
        record = self._expired_budget().to_dict()
        assert record["deadline_remaining"] == 0.0

    def test_expired_deadline_rejecting_admission(self, graph):
        from repro.errors import QueryRejectedError
        from repro.service.resilience import AdmissionController

        controller = AdmissionController(GraphIndex(graph))
        decision = controller.assess(["q0", "q1"], self._expired_budget())
        # No time left: the default policy rejects on the deadline, and
        # the reason reports a zero allowance, never a negative one.
        assert decision.action == "reject"
        assert "deadline" in decision.reason
        assert "-" not in decision.reason.split("allowance")[-1]
        with pytest.raises(QueryRejectedError):
            controller.admit(["q0", "q1"], self._expired_budget())

    def test_expired_deadline_entering_engine(self, graph, engine_spy):
        budget = self._expired_budget()
        # The engine runs under a zero (not negative) limit.
        assert budget.effective_time_limit() == 0.0
        PrunedDPPlusPlusSolver(graph, ["q0", "q1"], budget=budget).solve()
        assert engine_spy[0].time_limit == 0.0

    def test_expired_deadline_fail_fasts_at_index(self, graph):
        from repro.errors import LimitExceededError

        with pytest.raises(LimitExceededError):
            GraphIndex(graph).solve(["q0", "q1"], budget=self._expired_budget())


class TestDPBFBudget:
    """DPBF has no shared engine; its budget is honored internally."""

    def test_max_states_interrupts(self, graph):
        result = DPBFSolver(graph, ["q0", "q1"], budget=Budget(max_states=1)).solve()
        assert not result.optimal

    def test_matches_progressive_optimum(self, graph):
        dpbf = DPBFSolver(graph, ["q0", "q2"]).solve()
        pruned = PrunedDPPlusPlusSolver(graph, ["q0", "q2"]).solve()
        assert dpbf.weight == pytest.approx(pruned.weight)

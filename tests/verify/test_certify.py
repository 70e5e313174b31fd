"""Solution-certifier tests: the checker must catch every lie."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.result import GSTResult, ProgressPoint, SearchStats
from repro.core.solver import solve_gst
from repro.core.tree import SteinerTree
from repro.errors import CertificationError
from repro.graph import generators
from repro.verify import certify_incumbent, certify_result

INF = float("inf")


@pytest.fixture
def instance():
    graph = generators.random_graph(
        20, 40, num_query_labels=3, label_frequency=3, seed=7
    )
    return graph, ["q0", "q1", "q2"]


@pytest.fixture
def solved(instance):
    graph, labels = instance
    return graph, labels, solve_gst(graph, labels, algorithm="pruneddp++")


def test_real_answer_certifies(solved):
    graph, labels, result = solved
    cert = certify_result(graph, result, labels=labels, epsilon=0.0)
    assert cert.ok, cert.violations
    assert "tree" in cert.passed
    assert "weight" in cert.passed
    assert "trace" in cert.passed
    cert.raise_if_failed()  # no-op when ok


def test_every_tier_certifies(instance):
    graph, labels = instance
    for algorithm in ("dpbf", "basic", "pruneddp", "pruneddp+", "pruneddp++"):
        result = solve_gst(graph, labels, algorithm=algorithm)
        cert = certify_result(graph, result, labels=labels)
        assert cert.ok, (algorithm, cert.violations)


def test_understated_weight_caught(solved):
    graph, labels, result = solved
    lied = dataclasses.replace(result, weight=result.weight / 2.0, trace=[])
    cert = certify_result(graph, lied, labels=labels)
    assert not cert.ok
    assert any("weight" in v for v in cert.violations)


def test_missing_coverage_caught(solved):
    graph, labels, result = solved
    cert = certify_result(graph, result, labels=labels + ["q-not-covered"])
    assert not cert.ok
    assert any("tree" in v for v in cert.violations)


def test_non_tree_edge_set_caught(solved):
    graph, labels, result = solved
    # Duplicating an edge turns the edge set into a multigraph cycle.
    cyclic = SteinerTree(list(result.tree.edges) + [result.tree.edges[0]])
    lied = dataclasses.replace(
        result, tree=cyclic, weight=cyclic.weight, trace=[]
    )
    cert = certify_result(graph, lied, labels=labels)
    assert any("tree" in v for v in cert.violations)


def test_fabricated_edge_caught(solved):
    graph, labels, result = solved
    u, v, w = result.tree.edges[0]
    forged = SteinerTree(
        [(a, b, x * 0.5 if (a, b) == (u, v) else x) for a, b, x in result.tree.edges]
    )
    lied = dataclasses.replace(
        result, tree=forged, weight=forged.weight, trace=[]
    )
    cert = certify_result(graph, lied, labels=labels)
    assert any("tree" in v for v in cert.violations)


def test_shape_mismatch_caught(solved):
    graph, labels, result = solved
    no_tree = dataclasses.replace(result, tree=None, trace=[])
    cert = certify_result(graph, no_tree, labels=labels)
    assert any("shape" in v for v in cert.violations)


def test_false_optimal_certificate_caught(solved):
    graph, labels, result = solved
    # optimal=True with a lower bound that does not meet the weight:
    # GSTResult.__post_init__ normalizes optimal answers, so build the
    # inconsistency by mutating after construction (as a buggy engine
    # or deserializer would).
    lied = dataclasses.replace(result, trace=[])
    lied.lower_bound = result.weight / 2.0
    lied.optimal = True
    cert = certify_result(graph, lied, labels=labels)
    assert any("optimal-certificate" in v for v in cert.violations)


def test_crossed_lower_bound_caught(solved):
    graph, labels, result = solved
    lied = dataclasses.replace(result, optimal=False, trace=[])
    lied.lower_bound = result.weight * 2.0
    cert = certify_result(graph, lied, labels=labels)
    assert any("lb-noncrossing" in v for v in cert.violations)


def test_epsilon_exit_enforced(solved):
    graph, labels, result = solved
    loose = dataclasses.replace(result, optimal=False, trace=[])
    loose.lower_bound = result.weight / 10.0
    cert = certify_result(graph, loose, labels=labels, epsilon=0.1)
    assert any("epsilon-exit" in v for v in cert.violations)
    # Without an epsilon claim the same anytime answer is fine.
    assert certify_result(graph, loose, labels=labels).ok


def test_trace_invariants_enforced(solved):
    graph, labels, result = solved
    regressed = dataclasses.replace(
        result,
        trace=[
            ProgressPoint(0.0, result.weight, 0.0),
            ProgressPoint(0.1, result.weight * 2.0, 0.0),
        ],
    )
    cert = certify_result(graph, regressed, labels=labels)
    assert any("regressed" in v for v in cert.violations)

    stale_final = dataclasses.replace(
        result, trace=[ProgressPoint(0.0, result.weight * 2.0, 0.0)]
    )
    cert = certify_result(graph, stale_final, labels=labels)
    assert any("final" in v for v in cert.violations)


def test_falling_lower_bound_caught(solved):
    # Every point keeps LB <= UB, but the bound falls: one of the two
    # points was unsound.
    graph, labels, result = solved
    w = result.weight
    fell = dataclasses.replace(
        result,
        trace=[
            ProgressPoint(0.0, w * 1.5, w * 0.8),
            ProgressPoint(0.1, w, w * 0.5),
            ProgressPoint(0.2, w, w),
        ],
    )
    cert = certify_result(graph, fell, labels=labels)
    assert any("fell" in v for v in cert.violations), cert.violations


def test_lower_bound_past_the_optimum_caught(solved):
    # An early point below its own UB but above the proven optimum: a
    # bound that overshoots f* without crossing its incumbent.
    graph, labels, result = solved
    assert result.optimal
    w = result.weight
    overshoot = dataclasses.replace(
        result,
        trace=[
            ProgressPoint(0.0, w * 2.0, w * 1.1),
            ProgressPoint(0.1, w, w),
        ],
    )
    cert = certify_result(graph, overshoot, labels=labels)
    assert any("proven optimum" in v for v in cert.violations), cert.violations


def test_reference_optimum_checks(solved):
    graph, labels, result = solved
    better = certify_result(
        graph, result, labels=labels, expected_weight=result.weight * 2.0
    )
    assert any("beats" in v for v in better.violations)
    worse = certify_result(
        graph, result, labels=labels, expected_weight=result.weight / 2.0
    )
    assert any("matches-optimum" in v for v in worse.violations)
    exact = certify_result(
        graph, result, labels=labels, expected_weight=result.weight
    )
    assert exact.ok, exact.violations


def test_raise_if_failed_raises(solved):
    graph, labels, result = solved
    lied = dataclasses.replace(result, weight=result.weight / 2.0, trace=[])
    cert = certify_result(graph, lied, labels=labels)
    with pytest.raises(CertificationError):
        cert.raise_if_failed()


def test_infeasible_result_certifies(path_graph):
    # An empty anytime answer (cancelled before any work) is consistent.
    empty = GSTResult(
        algorithm="Basic",
        labels=("x", "y"),
        tree=None,
        weight=INF,
        lower_bound=0.0,
        optimal=False,
        stats=SearchStats(cancelled=True),
    )
    cert = certify_result(path_graph, empty, labels=["x", "y"], epsilon=0.0)
    assert cert.ok, cert.violations


class TestCertifyIncumbent:
    def test_valid_incumbent_passes(self, solved):
        graph, labels, result = solved
        certify_incumbent(
            graph, labels, result.tree, result.weight, result.lower_bound
        )

    def test_missing_tree_raises(self, path_graph):
        with pytest.raises(CertificationError):
            certify_incumbent(path_graph, ["x", "y"], None, 3.0, 0.0)

    def test_weight_mismatch_raises(self, solved):
        graph, labels, result = solved
        with pytest.raises(CertificationError):
            certify_incumbent(
                graph, labels, result.tree, result.weight / 2.0, 0.0
            )

    def test_crossing_bound_raises(self, solved):
        graph, labels, result = solved
        with pytest.raises(CertificationError):
            certify_incumbent(
                graph, labels, result.tree, result.weight, result.weight * 2.0
            )

    def test_engine_hook_runs_clean(self, instance):
        graph, labels = instance
        for algorithm in ("basic", "pruneddp", "pruneddp+", "pruneddp++"):
            result = solve_gst(
                graph, labels, algorithm=algorithm, debug_certify=True
            )
            assert result.optimal

"""Differential sweep: every tier against every other on random instances.

One *round* draws a random graph (:func:`repro.graph.generators.random_graph`)
and a random query, runs it through every algorithm tier — the
brute-force subset oracle, the independent DPBF implementation, and the
four engine-backed progressive solvers — certifies each answer with
:mod:`repro.verify.certify`, and demands that all finite weights agree
(infeasibility must agree too: a tier seeing no covering tree while
another returns one is a disagreement, not an error).

On a failure the instance is greedily *minimized* — query labels, then
edges, then isolated nodes are dropped while the failure persists — and
the shrunken instance is serialized via :mod:`repro.graph.io` next to a
JSON report, so ``repro verify --graph <stem> --labels ...`` replays it.

Instance generation is deterministic in ``seed``; a sweep over rounds
``[seed, seed + rounds)`` is exactly reproducible, which is what the CI
smoke job and ``scripts/fuzz_nightly.sh`` rely on.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.bruteforce import brute_force_gst
from ..core.budget import Budget
from ..core.result import GSTResult
from ..core.solver import ALGORITHMS, solve_gst
from ..errors import InfeasibleQueryError, ReproError
from ..graph import generators
from ..graph.graph import Graph
from ..graph.io import save_graph
from .certify import Certificate, certify_result
from .metamorphic import clone_graph, metamorphic_checks

__all__ = [
    "TIERS",
    "BRUTE_FORCE_FUZZ_NODES",
    "TierRun",
    "RoundReport",
    "SweepReport",
    "generate_instance",
    "verify_instance",
    "run_round",
    "run_sweep",
    "minimize_reproducer",
    "write_reproducer",
]

INF = float("inf")
TIERS: Tuple[str, ...] = (
    "bruteforce",
    "dpbf",
    "basic",
    "pruneddp",
    "pruneddp+",
    "pruneddp++",
)
# Subset enumeration is 2^n; past this the sweep leans on DPBF (an
# independent non-engine implementation) as the exact reference.
BRUTE_FORCE_FUZZ_NODES = 12
_WEIGHT_TOL = 1e-6


@dataclass
class TierRun:
    """One tier's outcome on one instance."""

    algorithm: str
    weight: float = INF
    infeasible: bool = False
    error: Optional[str] = None
    certificate: Optional[Certificate] = None

    @property
    def ok(self) -> bool:
        return self.error is None and (
            self.certificate is None or self.certificate.ok
        )

    def describe(self) -> str:
        if self.error is not None:
            return f"error: {self.error}"
        if self.infeasible:
            return "infeasible"
        text = f"weight={self.weight:g}"
        if self.certificate is not None:
            text += f" [{self.certificate.summary()}]"
        return text


@dataclass
class RoundReport:
    """One differential round: the instance plus every tier's verdict."""

    seed: int
    num_nodes: int
    num_edges: int
    labels: Tuple[Hashable, ...]
    runs: Dict[str, TierRun] = field(default_factory=dict)
    disagreement: Optional[str] = None
    violations: List[str] = field(default_factory=list)
    reproducer: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.disagreement is None and not self.violations


@dataclass
class SweepReport:
    """Aggregate of a fuzz sweep; ``ok`` means zero failures of any kind."""

    rounds: int = 0
    certified: int = 0
    skipped_bruteforce: int = 0
    failures: List[RoundReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.failures)} FAILING ROUNDS"
        return (
            f"fuzz: {self.rounds} rounds, {self.certified} answers "
            f"certified, {self.skipped_bruteforce} rounds too large for "
            f"brute force — {verdict}"
        )


# ----------------------------------------------------------------------
# Instance generation and per-instance verification
# ----------------------------------------------------------------------
def generate_instance(
    seed: int, *, max_nodes: int = 24, max_labels: int = 5
) -> Tuple[Graph, List[str]]:
    """The deterministic random instance of round ``seed``.

    Most instances are connected (every query feasible); a fraction are
    deliberately left to chance so the infeasible/disconnected paths of
    every tier are exercised too.  Weights are strictly positive, as the
    PrunedDP family requires.
    """
    rng = random.Random(f"repro.verify/{seed}")
    num_nodes = rng.randint(4, max(4, max_nodes))
    num_labels = rng.randint(2, max(2, max_labels))
    graph = generators.random_graph(
        num_nodes,
        num_nodes - 1 + rng.randint(0, num_nodes),
        num_query_labels=num_labels,
        label_frequency=rng.randint(1, 3),
        weight_range=(1.0, 10.0),
        connected=rng.random() < 0.85,
        seed=rng.randrange(2**31),
    )
    k = rng.randint(2, num_labels)
    labels = rng.sample([f"q{i}" for i in range(num_labels)], k)
    return graph, labels


def _run_tier(
    graph: Graph,
    labels: Sequence[Hashable],
    algorithm: str,
    *,
    epsilon: float = 0.0,
    certify: bool = True,
    debug_certify: bool = False,
) -> TierRun:
    run = TierRun(algorithm=algorithm)
    try:
        if algorithm == "bruteforce":
            weight, _tree = brute_force_gst(graph, labels)
            run.weight = weight
            run.infeasible = weight == INF
            return run
        kwargs = {}
        if debug_certify and algorithm != "dpbf":
            # DPBF is non-progressive: it has no incumbents to certify
            # until it terminates.
            kwargs["debug_certify"] = True
        result: GSTResult = solve_gst(
            graph,
            labels,
            algorithm=algorithm,
            budget=Budget(epsilon=epsilon),
            **kwargs,
        )
    except InfeasibleQueryError:
        run.infeasible = True
        return run
    except ReproError as exc:
        run.error = f"{type(exc).__name__}: {exc}"
        return run
    run.weight = result.weight
    run.infeasible = result.weight == INF
    if certify:
        run.certificate = certify_result(
            graph, result, labels=labels, epsilon=epsilon
        )
    return run


def verify_instance(
    graph: Graph,
    labels: Sequence[Hashable],
    *,
    algorithms: Optional[Sequence[str]] = None,
    epsilon: float = 0.0,
    certify: bool = True,
    debug_certify: bool = False,
    seed: int = -1,
) -> RoundReport:
    """Run every tier on one instance; cross-check and certify.

    ``algorithms`` defaults to every tier applicable to the instance
    (brute force is skipped above :data:`BRUTE_FORCE_FUZZ_NODES` nodes).
    DPBF ignores ``epsilon`` (it is exact or nothing), which is fine:
    its weight must still satisfy the agreement rule below.
    """
    report = RoundReport(
        seed=seed,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        labels=tuple(labels),
    )
    tiers = tuple(algorithms) if algorithms is not None else TIERS
    for name in tiers:
        if name != "bruteforce" and name not in ALGORITHMS:
            raise ValueError(f"unknown tier {name!r}")
        if name == "bruteforce" and graph.num_nodes > BRUTE_FORCE_FUZZ_NODES:
            continue
        run = _run_tier(
            graph,
            labels,
            name,
            epsilon=epsilon,
            certify=certify,
            debug_certify=debug_certify,
        )
        report.runs[name] = run
        if run.error is not None:
            report.violations.append(f"{name}: {run.error}")
        if run.certificate is not None and not run.certificate.ok:
            report.violations.append(f"{name}: {run.certificate.summary()}")
    _cross_check(report, epsilon)
    return report


def _cross_check(report: RoundReport, epsilon: float) -> None:
    """All tiers must agree on feasibility; exact weights must match.

    With ``epsilon > 0`` a progressive tier may stop up to ``(1+ε)``
    above the optimum, so agreement is then one-sided: within ``(1+ε)``
    of the best exact answer and never below it.
    """
    runs = [run for run in report.runs.values() if run.error is None]
    if not runs:
        return
    feasibility = {run.infeasible for run in runs}
    if len(feasibility) > 1:
        detail = ", ".join(f"{r.algorithm}={r.describe()}" for r in runs)
        report.disagreement = f"feasibility disagreement: {detail}"
        return
    if feasibility == {True}:
        return
    reference = min(run.weight for run in runs)
    slack = 1.0 + epsilon
    for run in runs:
        tol = _WEIGHT_TOL * max(1.0, abs(reference))
        if run.weight < reference - tol or run.weight > reference * slack + tol:
            detail = ", ".join(
                f"{r.algorithm}={r.weight:g}" for r in report.runs.values()
            )
            report.disagreement = (
                f"weight disagreement (reference {reference:g}, "
                f"epsilon {epsilon:g}): {detail}"
            )
            return


def run_round(
    seed: int,
    *,
    max_nodes: int = 24,
    max_labels: int = 5,
    algorithms: Optional[Sequence[str]] = None,
    epsilon: float = 0.0,
    certify: bool = True,
    debug_certify: bool = False,
    metamorphic: bool = False,
) -> RoundReport:
    """One seeded differential round (generate → run tiers → compare)."""
    graph, labels = generate_instance(
        seed, max_nodes=max_nodes, max_labels=max_labels
    )
    report = verify_instance(
        graph,
        labels,
        algorithms=algorithms,
        epsilon=epsilon,
        certify=certify,
        debug_certify=debug_certify,
        seed=seed,
    )
    if metamorphic and report.ok:
        feasible = any(
            not run.infeasible and run.error is None
            for run in report.runs.values()
        )
        if feasible:
            base = next(
                run.weight
                for run in report.runs.values()
                if run.error is None and not run.infeasible
            )
            report.violations.extend(
                f"metamorphic: {text}"
                for text in metamorphic_checks(
                    graph, labels, seed=seed, base_weight=base
                )
            )
    return report


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def run_sweep(
    rounds: int,
    *,
    seed: int = 0,
    max_nodes: int = 24,
    max_labels: int = 5,
    algorithms: Optional[Sequence[str]] = None,
    epsilon: float = 0.0,
    debug_certify: bool = False,
    metamorphic_every: int = 0,
    reproducer_dir: Optional[str] = None,
    on_round: Optional[Callable[[RoundReport], None]] = None,
) -> SweepReport:
    """``rounds`` differential rounds starting at ``seed``.

    ``metamorphic_every=N`` additionally runs the metamorphic transforms
    every N-th round (0 disables them).  When ``reproducer_dir`` is set,
    each failing round is minimized and serialized there.
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    sweep = SweepReport()
    for offset in range(rounds):
        round_seed = seed + offset
        metamorphic = metamorphic_every > 0 and offset % metamorphic_every == 0
        report = run_round(
            round_seed,
            max_nodes=max_nodes,
            max_labels=max_labels,
            algorithms=algorithms,
            epsilon=epsilon,
            debug_certify=debug_certify,
            metamorphic=metamorphic,
        )
        sweep.rounds += 1
        sweep.certified += sum(
            run.certificate is not None for run in report.runs.values()
        )
        sweep.skipped_bruteforce += "bruteforce" not in report.runs
        if not report.ok:
            if report.disagreement is not None and reproducer_dir is not None:
                graph, labels = generate_instance(
                    round_seed, max_nodes=max_nodes, max_labels=max_labels
                )
                graph, labels = minimize_reproducer(
                    graph,
                    labels,
                    lambda g, l: _still_disagrees(
                        g, l, algorithms=algorithms, epsilon=epsilon
                    ),
                )
                report.reproducer = write_reproducer(
                    graph, labels, report, reproducer_dir
                )
            sweep.failures.append(report)
        if on_round is not None:
            on_round(report)
    return sweep


def _still_disagrees(
    graph: Graph,
    labels: Sequence[Hashable],
    *,
    algorithms: Optional[Sequence[str]],
    epsilon: float,
) -> bool:
    if not labels:
        return False
    try:
        report = verify_instance(
            graph, labels, algorithms=algorithms, epsilon=epsilon, certify=False
        )
    except ReproError:
        return False
    return report.disagreement is not None


# ----------------------------------------------------------------------
# Minimization and reproducer serialization
# ----------------------------------------------------------------------
def minimize_reproducer(
    graph: Graph,
    labels: Sequence[Hashable],
    failing: Callable[[Graph, Sequence[Hashable]], bool],
    *,
    max_passes: int = 4,
) -> Tuple[Graph, List[Hashable]]:
    """Greedy delta-debugging: shrink while ``failing`` stays true.

    Three reduction moves, iterated to a fixed point (or ``max_passes``):
    drop a query label, drop an edge, drop nodes that are isolated and
    unlabelled-for-the-query.  Every candidate is re-checked with
    ``failing`` before being kept, so the result still reproduces.
    """
    labels = list(labels)
    if not failing(graph, labels):
        return graph, labels
    for _ in range(max_passes):
        changed = False
        if len(labels) > 1:
            for label in list(labels):
                trial = [x for x in labels if x != label]
                if trial and failing(graph, trial):
                    labels = trial
                    changed = True
        for u, v, _w in list(graph.edges()):
            trial_graph, _ = clone_graph(graph, skip_edge=(u, v))
            if failing(trial_graph, labels):
                graph = trial_graph
                changed = True
        keep = [
            node
            for node in range(graph.num_nodes)
            if graph.degree(node) > 0
            or any(graph.has_label(node, label) for label in labels)
        ]
        if len(keep) < graph.num_nodes:
            trial_graph, _ = clone_graph(graph, keep_nodes=keep)
            if failing(trial_graph, labels):
                graph = trial_graph
                changed = True
        if not changed:
            break
    return graph, labels


def write_reproducer(
    graph: Graph,
    labels: Sequence[Hashable],
    report: RoundReport,
    directory: str,
) -> str:
    """Serialize a failing instance; returns the graph file stem.

    Writes ``<stem>.edges`` / ``<stem>.labels`` (the :mod:`repro.graph.io`
    format) plus ``<stem>.json`` describing the failure and the exact
    ``repro verify`` command that replays it.
    """
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f"disagreement-seed{report.seed}")
    save_graph(graph, stem)
    label_text = ",".join(str(label) for label in labels)
    record = {
        "seed": report.seed,
        "labels": [str(label) for label in labels],
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "disagreement": report.disagreement,
        "violations": report.violations,
        "weights": {
            name: ("inf" if run.weight == INF else run.weight)
            for name, run in report.runs.items()
        },
        "replay": f"repro verify --graph {stem} --labels {label_text}",
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return stem

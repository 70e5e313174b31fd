"""Regeneration harness for every table and figure of the paper.

Each ``figure_*`` / ``table_*`` function reproduces one experiment on
the scaled datasets: it runs the same algorithm set over the same
parameter sweep and emits the same rows/series the paper plots, plus
the shape checks EXPERIMENTS.md records (who wins, by what factor).

All functions return a :class:`FigureResult` whose ``text`` is a
ready-to-print ASCII rendition and whose ``series`` holds the raw
numbers for programmatic assertions (the pytest benchmarks use both).

Scaled defaults: the paper sweeps knum ∈ 5..8 and kwf ∈ 200..1600 on
10M+-node graphs in C++; pure Python explores ~10⁴ states/second, so
the default sweeps use knum ∈ 4..6 and the scaled kwf pools (4..32)
on ~10³-node graphs.  Pass larger ``knums`` / ``scale`` for a heavier
run — the harness is size-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.banks2 import Banks2Solver
from ..core.algorithms import PrunedDPPlusPlusSolver
from ..core.budget import Budget
from .datasets import DEFAULT_KWF, KWF_VALUES
from .metrics import format_bytes, format_seconds, format_table, mean
from .runner import (
    ALL_ALGORITHMS,
    PROGRESSIVE_ALGORITHMS,
    RATIO_CHECKPOINTS,
    SuiteResult,
    run_query,
    run_suite,
)
from .workloads import make_workload

__all__ = [
    "FigureResult",
    "figure_time_vs_ratio_knum",
    "figure_time_vs_ratio_kwf",
    "figure_memory_vs_ratio_knum",
    "figure_memory_vs_ratio_kwf",
    "figure_progressive_bounds",
    "figure_large_knum",
    "table_banks_comparison",
    "table_all_algorithms",
]


@dataclass
class FigureResult:
    """One regenerated experiment: raw series + printable text."""

    name: str
    text: str
    # series[(panel, algorithm)] -> list of values along the x axis
    series: Dict[Tuple, List[float]] = field(default_factory=dict)
    suites: Dict[Tuple, SuiteResult] = field(default_factory=dict)

    def print(self) -> None:  # pragma: no cover - convenience
        print(self.text)


# ----------------------------------------------------------------------
# Figures 4/5/14/15 — time vs ratio, varying knum, per dataset
# ----------------------------------------------------------------------
def figure_time_vs_ratio_knum(
    dataset: str,
    *,
    scale: str = "small",
    knums: Sequence[int] = (4, 5, 6),
    kwf: int = DEFAULT_KWF,
    num_queries: int = 3,
    algorithms: Sequence[str] = PROGRESSIVE_ALGORITHMS,
    seed: int = 0,
    budget: Optional[Budget] = None,
) -> FigureResult:
    """Time to each approximation ratio, one panel per ``knum``.

    Paper: Fig 4 (DBLP), Fig 5 (IMDB), Fig 14 (LiveJournal),
    Fig 15 (RoadUSA).
    """
    blocks: List[str] = []
    out = FigureResult(name=f"time-vs-ratio knum sweep [{dataset}/{scale}]", text="")
    for knum in knums:
        graph, queries = make_workload(
            dataset, scale=scale, knum=knum, kwf=kwf,
            num_queries=num_queries, seed=seed,
        )
        suite = run_suite(graph, list(queries), algorithms, budget=budget)
        out.suites[(knum,)] = suite
        rows = []
        for algorithm in algorithms:
            values = [
                suite.mean_time_to_ratio(algorithm, target)
                for target in RATIO_CHECKPOINTS
            ]
            out.series[(knum, algorithm)] = values
            rows.append(
                [algorithm] + [format_seconds(v) for v in values]
            )
        headers = ["algorithm"] + [f"r<={t:g}" for t in RATIO_CHECKPOINTS]
        blocks.append(
            format_table(headers, rows, title=f"knum={knum} (kwf={kwf})")
        )
    out.text = (
        f"== {out.name} ==\n"
        "mean seconds until the proven ratio reaches each checkpoint\n\n"
        + "\n\n".join(blocks)
    )
    return out


# ----------------------------------------------------------------------
# Figures 6/7 — time vs ratio, varying kwf
# ----------------------------------------------------------------------
def figure_time_vs_ratio_kwf(
    dataset: str,
    *,
    scale: str = "small",
    knum: int = 5,
    kwfs: Sequence[int] = KWF_VALUES,
    num_queries: int = 3,
    algorithms: Sequence[str] = PROGRESSIVE_ALGORITHMS,
    seed: int = 0,
    budget: Optional[Budget] = None,
) -> FigureResult:
    """Time to each ratio, one panel per label frequency ``kwf``.

    Paper: Fig 6 (DBLP), Fig 7 (IMDB).
    """
    blocks: List[str] = []
    out = FigureResult(name=f"time-vs-ratio kwf sweep [{dataset}/{scale}]", text="")
    for kwf in kwfs:
        graph, queries = make_workload(
            dataset, scale=scale, knum=knum, kwf=kwf,
            num_queries=num_queries, seed=seed,
        )
        suite = run_suite(graph, list(queries), algorithms, budget=budget)
        out.suites[(kwf,)] = suite
        rows = []
        for algorithm in algorithms:
            values = [
                suite.mean_time_to_ratio(algorithm, target)
                for target in RATIO_CHECKPOINTS
            ]
            out.series[(kwf, algorithm)] = values
            rows.append([algorithm] + [format_seconds(v) for v in values])
        headers = ["algorithm"] + [f"r<={t:g}" for t in RATIO_CHECKPOINTS]
        blocks.append(format_table(headers, rows, title=f"kwf={kwf} (knum={knum})"))
    out.text = (
        f"== {out.name} ==\n"
        "mean seconds until the proven ratio reaches each checkpoint\n\n"
        + "\n\n".join(blocks)
    )
    return out


# ----------------------------------------------------------------------
# Figures 8/9 — memory vs ratio (same sweeps, byte estimates)
# ----------------------------------------------------------------------
def figure_memory_vs_ratio_knum(
    dataset: str,
    *,
    scale: str = "small",
    knums: Sequence[int] = (4, 5, 6),
    kwf: int = DEFAULT_KWF,
    num_queries: int = 3,
    algorithms: Sequence[str] = PROGRESSIVE_ALGORITHMS,
    seed: int = 0,
) -> FigureResult:
    """Peak memory (estimated bytes) per algorithm, varying knum.

    Paper: Fig 8.  The paper reports memory at each ratio; states are
    monotone over a run so the peak at completion dominates — we report
    the per-algorithm peak, which is the figure's right-hand edge, plus
    popped-state counts (the quantity memory is proportional to).
    """
    blocks: List[str] = []
    out = FigureResult(name=f"memory knum sweep [{dataset}/{scale}]", text="")
    for knum in knums:
        graph, queries = make_workload(
            dataset, scale=scale, knum=knum, kwf=kwf,
            num_queries=num_queries, seed=seed,
        )
        suite = run_suite(graph, list(queries), algorithms)
        out.suites[(knum,)] = suite
        rows = []
        for algorithm in algorithms:
            peak = suite.mean_peak_bytes(algorithm)
            states = suite.mean_states(algorithm)
            out.series[(knum, algorithm)] = [peak, states]
            rows.append([algorithm, format_bytes(peak), f"{states:.0f}"])
        blocks.append(
            format_table(
                ["algorithm", "peak-mem", "popped-states"],
                rows,
                title=f"knum={knum} (kwf={kwf})",
            )
        )
    out.text = f"== {out.name} ==\n\n" + "\n\n".join(blocks)
    return out


def figure_memory_vs_ratio_kwf(
    dataset: str,
    *,
    scale: str = "small",
    knum: int = 5,
    kwfs: Sequence[int] = KWF_VALUES,
    num_queries: int = 3,
    algorithms: Sequence[str] = PROGRESSIVE_ALGORITHMS,
    seed: int = 0,
) -> FigureResult:
    """Peak memory per algorithm, varying kwf.  Paper: Fig 9."""
    blocks: List[str] = []
    out = FigureResult(name=f"memory kwf sweep [{dataset}/{scale}]", text="")
    for kwf in kwfs:
        graph, queries = make_workload(
            dataset, scale=scale, knum=knum, kwf=kwf,
            num_queries=num_queries, seed=seed,
        )
        suite = run_suite(graph, list(queries), algorithms)
        out.suites[(kwf,)] = suite
        rows = []
        for algorithm in algorithms:
            peak = suite.mean_peak_bytes(algorithm)
            states = suite.mean_states(algorithm)
            out.series[(kwf, algorithm)] = [peak, states]
            rows.append([algorithm, format_bytes(peak), f"{states:.0f}"])
        blocks.append(
            format_table(
                ["algorithm", "peak-mem", "popped-states"],
                rows,
                title=f"kwf={kwf} (knum={knum})",
            )
        )
    out.text = f"== {out.name} ==\n\n" + "\n\n".join(blocks)
    return out


# ----------------------------------------------------------------------
# Figure 10 — progressive UB/LB convergence
# ----------------------------------------------------------------------
def figure_progressive_bounds(
    dataset: str,
    *,
    scale: str = "small",
    knum: int = 6,
    kwf: int = DEFAULT_KWF,
    algorithms: Sequence[str] = PROGRESSIVE_ALGORITHMS,
    seed: int = 0,
    samples: int = 8,
) -> FigureResult:
    """UB/LB trajectories of one query per algorithm (paper Fig 10).

    Emits ``samples`` evenly-spaced trace rows per algorithm; the series
    store the full ``(elapsed, UB, LB)`` trace for assertions
    (monotonicity, gap closure).
    """
    graph, queries = make_workload(
        dataset, scale=scale, knum=knum, kwf=kwf, num_queries=1, seed=seed
    )
    labels = list(queries)[0]
    blocks: List[str] = []
    out = FigureResult(name=f"progressive bounds [{dataset}/{scale}]", text="")
    for algorithm in algorithms:
        run = run_query(algorithm, graph, labels)
        trace = run.result.trace
        out.series[("trace", algorithm)] = [
            (p.elapsed, p.best_weight, p.lower_bound) for p in trace
        ]
        rows = []
        step = max(1, len(trace) // samples)
        shown = trace[::step]
        if trace and shown[-1] is not trace[-1]:
            shown.append(trace[-1])
        for point in shown:
            ub = "inf" if point.best_weight == float("inf") else f"{point.best_weight:.3f}"
            rows.append(
                [
                    format_seconds(point.elapsed),
                    ub,
                    f"{point.lower_bound:.3f}",
                    "inf" if point.ratio == float("inf") else f"{point.ratio:.3f}",
                ]
            )
        blocks.append(
            format_table(
                ["t", "UB", "LB", "ratio"], rows, title=f"{algorithm}"
            )
        )
    out.text = (
        f"== {out.name} == (knum={knum}, kwf={kwf}, query={list(labels)})\n\n"
        + "\n\n".join(blocks)
    )
    return out


# ----------------------------------------------------------------------
# Figure 16 — PrunedDP++ at relatively large knum
# ----------------------------------------------------------------------
def figure_large_knum(
    dataset: str,
    *,
    scale: str = "small",
    knums: Sequence[int] = (7, 8),
    kwf: int = DEFAULT_KWF,
    seed: int = 0,
    budget: Optional[Budget] = None,
) -> FigureResult:
    """PrunedDP++ alone at the largest query sizes (paper Fig 16)."""
    blocks: List[str] = []
    out = FigureResult(name=f"PrunedDP++ large knum [{dataset}/{scale}]", text="")
    for knum in knums:
        graph, queries = make_workload(
            dataset, scale=scale, knum=knum, kwf=kwf, num_queries=1, seed=seed
        )
        labels = list(queries)[0]
        run = run_query("PrunedDP++", graph, labels, budget=budget)
        trace = run.result.trace
        out.series[(knum, "PrunedDP++")] = [
            (p.elapsed, p.best_weight, p.lower_bound) for p in trace
        ]
        out.suites[(knum,)] = None  # type: ignore[assignment]
        near = run.result.time_to_ratio(1.41)
        opt = run.result.time_to_ratio(1.0)
        blocks.append(
            f"knum={knum}: weight={run.result.weight:.3f} "
            f"optimal={run.result.optimal} "
            f"t(ratio<=1.41)={format_seconds(near)} "
            f"t(optimal)={format_seconds(opt)} "
            f"states={run.states_popped}"
        )
    out.text = f"== {out.name} ==\n" + "\n".join(blocks)
    return out


# ----------------------------------------------------------------------
# Tables 2/3 — comparison with BANKS-II
# ----------------------------------------------------------------------
def table_banks_comparison(
    dataset: str,
    *,
    scale: str = "small",
    configurations: Sequence[Tuple[int, int]] = ((4, 8), (5, 8), (5, 4), (5, 16)),
    num_queries: int = 3,
    seed: int = 0,
) -> FigureResult:
    """BANKS-II vs PrunedDP++ (paper Tables 2/3).

    Columns mirror the paper: BANKS-II total time and its achieved
    approximation ratio (vs the exact optimum PrunedDP++ computes),
    PrunedDP++ total time, and ``T_r`` — the time PrunedDP++ needed to
    produce an answer at least as good as BANKS-II's.
    """
    rows = []
    out = FigureResult(name=f"BANKS-II vs PrunedDP++ [{dataset}/{scale}]", text="")
    for knum, kwf in configurations:
        graph, queries = make_workload(
            dataset, scale=scale, knum=knum, kwf=kwf,
            num_queries=num_queries, seed=seed,
        )
        banks_times, banks_ratios, pp_times, tr_times = [], [], [], []
        for labels in queries:
            banks = Banks2Solver(graph, labels).solve()
            pp = PrunedDPPlusPlusSolver(graph, labels).solve()
            banks_times.append(banks.stats.total_seconds)
            pp_times.append(pp.stats.total_seconds)
            if pp.weight > 0:
                banks_ratios.append(banks.weight / pp.weight)
            else:
                banks_ratios.append(1.0)
            # T_r: first trace point with UB <= BANKS-II's weight.
            tr = next(
                (
                    p.elapsed
                    for p in pp.trace
                    if p.best_weight <= banks.weight + 1e-9
                ),
                pp.stats.total_seconds,
            )
            tr_times.append(tr)
        out.series[(knum, kwf)] = [
            mean(banks_times),
            mean(banks_ratios),
            mean(pp_times),
            mean(tr_times),
        ]
        rows.append(
            [
                str(knum),
                str(kwf),
                format_seconds(mean(banks_times)),
                f"{mean(banks_ratios):.2f}",
                format_seconds(mean(pp_times)),
                format_seconds(mean(tr_times)),
            ]
        )
    out.text = format_table(
        ["knum", "kwf", "BANKS-II time", "BANKS-II ratio", "PrunedDP++ time", "T_r"],
        rows,
        title=f"== {out.name} ==",
    )
    return out


# ----------------------------------------------------------------------
# Extended comparison — every algorithm in the package on one workload
# ----------------------------------------------------------------------
def table_all_algorithms(
    dataset: str,
    *,
    scale: str = "small",
    knum: int = 5,
    kwf: int = DEFAULT_KWF,
    num_queries: int = 2,
    algorithms: Sequence[str] = ALL_ALGORITHMS,
    seed: int = 42,
) -> FigureResult:
    """Quality-vs-work Pareto table across all solvers and heuristics.

    Goes beyond the paper's Table 2/3 by positioning every baseline in
    the package (DPBF, BANKS-I/II, BLINKS, DistanceNetwork) against the
    four progressive algorithms on one workload: answer weight relative
    to the optimum, explored states, wall time, and whether optimality
    was proven.
    """
    graph, queries = make_workload(
        dataset, scale=scale, knum=knum, kwf=kwf,
        num_queries=num_queries, seed=seed,
    )
    suite = run_suite(graph, list(queries), algorithms)
    out = FigureResult(name=f"all-algorithms table [{dataset}/{scale}]", text="")
    out.suites[("all",)] = suite

    optimum = min(
        suite.mean_weight(a) for a in algorithms if suite.all_optimal(a)
    )
    # Zero-weight optima (a single node covering everything) are
    # possible on tiny workloads: fall back to ratio 1 for zero/zero.
    def ratio_of(weight: float) -> float:
        if optimum > 0:
            return weight / optimum
        return 1.0 if weight <= 1e-12 else float("inf")

    rows = []
    for algorithm in algorithms:
        weight = suite.mean_weight(algorithm)
        out.series[("row", algorithm)] = [
            ratio_of(weight),
            suite.mean_states(algorithm),
            suite.mean_total_seconds(algorithm),
        ]
        rows.append(
            [
                algorithm,
                f"{ratio_of(weight):.3f}",
                f"{suite.mean_states(algorithm):.0f}",
                format_seconds(suite.mean_total_seconds(algorithm)),
                str(suite.all_optimal(algorithm)),
            ]
        )
    out.text = format_table(
        ["algorithm", "weight/opt", "states", "time", "proven-optimal"],
        rows,
        title=f"== {out.name} == (knum={knum}, kwf={kwf})",
    )
    return out

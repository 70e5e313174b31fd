#!/usr/bin/env python
"""Progressive / anytime behaviour on a larger graph (paper Fig 10).

Runs all four progressive algorithms on a synthetic DBLP-scale workload
and prints each one's upper-bound / lower-bound convergence — the
monotone (UB decreasing, LB increasing) trajectories that define the
paper's "progressive" property — followed by a demonstration of
interrupting PrunedDP++ by time limit and by target ratio.

Run:  python examples/progressive_anytime_demo.py
"""

from repro.bench import make_workload
from repro.core import (
    BasicSolver,
    Budget,
    PrunedDPSolver,
    PrunedDPPlusSolver,
    PrunedDPPlusPlusSolver,
)


def main() -> None:
    graph, queries = make_workload(
        "dblp", scale="small", knum=6, kwf=8, num_queries=1, seed=11
    )
    labels = list(queries)[0]
    print(f"graph: {graph}")
    print(f"query: {list(labels)}\n")

    for solver_cls in (
        BasicSolver,
        PrunedDPSolver,
        PrunedDPPlusSolver,
        PrunedDPPlusPlusSolver,
    ):
        result = solver_cls(graph, labels).solve()
        print(f"-- {result.algorithm}: optimal weight {result.weight:g} "
              f"in {result.stats.total_seconds:.2f}s, "
              f"{result.stats.states_popped} states --")
        # Show the first few and last few progressive reports.
        trace = result.trace
        shown = trace[:4] + ([trace[-1]] if len(trace) > 4 else [])
        for point in shown:
            ub = "inf" if point.best_weight == float("inf") else f"{point.best_weight:.2f}"
            print(f"   t={point.elapsed*1e3:8.1f}ms  UB={ub:>8}  "
                  f"LB={point.lower_bound:7.2f}  ratio<={point.ratio:.3f}"
                  if point.ratio != float('inf') else
                  f"   t={point.elapsed*1e3:8.1f}ms  UB={ub:>8}  LB={point.lower_bound:7.2f}")
        print()

    # Anytime: stop as soon as a 1.5-approximation is proven.
    result = PrunedDPPlusPlusSolver(graph, labels, budget=Budget(epsilon=0.5)).solve()
    print(f"epsilon=0.5  -> weight={result.weight:g} proven ratio<={result.ratio:.3f} "
          f"after {result.stats.states_popped} states")

    # Anytime: hard 50 ms budget.
    result = PrunedDPPlusPlusSolver(
        graph, labels, budget=Budget(time_limit=0.05)
    ).solve()
    print(f"50ms budget  -> weight={result.weight:g} proven ratio<={result.ratio:.3f} "
          f"(optimal proven: {result.optimal})")


if __name__ == "__main__":
    main()

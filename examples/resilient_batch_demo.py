#!/usr/bin/env python
"""The resilience layer: every mechanism that keeps a batch alive.

Serves a workload through a :class:`repro.service.QueryExecutor` wired
with all three resilience mechanisms, demonstrating each in turn:

1. admission control — an oversized query is rejected *before* any
   search runs, with the estimated cost on the typed error;
2. cooperative cancellation — a batch is cancelled mid-flight; running
   queries return their incumbent (bounded-gap) answers, queued ones
   stop without popping a single state;
3. retry with degradation — queries on a solver booby-trapped to crash
   are rescued one rung down the ``pruneddp++ → pruneddp → basic``
   ladder, with the ladder's first epsilon bounding their gap.

Run:  python examples/resilient_batch_demo.py
"""

import threading

import repro.core.solver as solver_mod
from repro import (
    AdmissionPolicy,
    Budget,
    CancellationToken,
    GraphIndex,
    QueryExecutor,
    QueryRejectedError,
    RetryPolicy,
)
from repro.graph import generators


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    graph = generators.random_graph(
        300, 800, num_query_labels=8, label_frequency=6, seed=5
    )
    index = GraphIndex(graph)
    print(f"graph: {graph}")

    # --- 1. admission control -----------------------------------------
    banner("admission control")
    with QueryExecutor(
        index, admission=AdmissionPolicy(max_estimated_states=50_000)
    ) as ex:
        outcomes = ex.run_batch([
            ["q0", "q1"],                                # cheap: admitted
            [f"q{i}" for i in range(8)],                 # 2^8 states: rejected
        ])
    for o in outcomes:
        if isinstance(o.error, QueryRejectedError):
            print(f"  {list(o.labels)!r:50s} rejected "
                  f"(~{o.error.estimated_states:,} states)")
        else:
            print(f"  {list(o.labels)!r:50s} {o.trace.status} "
                  f"weight={o.result.weight:.1f}")

    # --- 2. cooperative cancellation ----------------------------------
    banner("cooperative cancellation")
    token = CancellationToken()
    heavy = [[f"q{i}" for i in range(6)]] * 8
    with QueryExecutor(index, max_workers=2, algorithm="basic") as ex:
        timer = threading.Timer(0.05, token.cancel, args=("demo deadline",))
        timer.start()
        outcomes = ex.run_batch(heavy, cancel_token=token)
        timer.cancel()
    statuses = [o.trace.status for o in outcomes]
    print(f"  statuses after cancel: {statuses}")
    kept = [o for o in outcomes if o.trace.status == "cancelled" and o.ok]
    if kept:
        o = kept[0]
        print(f"  incumbent kept: weight={o.result.weight:.1f} "
              f"ratio<={o.result.ratio:.2f} (bounded-gap, still valid)")

    # --- 3. retry with degradation ------------------------------------
    banner("retry with degradation")
    real = solver_mod.ALGORITHMS["pruneddp++"]

    class Crashing(real):
        def run_search(self, context, prepared=None):
            raise RuntimeError("simulated solver crash")

    solver_mod.ALGORITHMS["pruneddp++"] = Crashing
    try:
        with QueryExecutor(
            index, max_workers=1, retry_policy=RetryPolicy(max_retries=2)
        ) as ex:
            outcomes = ex.run_batch([["q0", f"q{i + 1}"] for i in range(3)])
    finally:
        solver_mod.ALGORITHMS["pruneddp++"] = real
    for o in outcomes:
        print(f"  {list(o.labels)!r:20s} {o.trace.status} via {o.algorithm} "
              f"(attempts={o.trace.attempts} degraded={o.trace.degraded} "
              f"ratio<={o.result.ratio:.2f})")

    # --- everything composes with plain budgets -----------------------
    banner("all together")
    with QueryExecutor(
        index,
        max_workers=4,
        admission=AdmissionPolicy(max_estimated_states=10**9),
        retry_policy=RetryPolicy(max_retries=1),
        budget=Budget(epsilon=0.1),
    ) as ex:
        outcomes = ex.run_batch(
            [["q0", "q1"], ["q2", "q3"], ["q4", "q5"]], deadline=10.0
        )
    for o in outcomes:
        print(f"  {list(o.labels)!r:20s} {o.trace.status} "
              f"ratio<={o.result.ratio:.2f} "
              f"admitted={o.trace.admission['action'] == 'admit'}")


if __name__ == "__main__":
    main()

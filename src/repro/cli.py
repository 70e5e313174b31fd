"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``       Run a GST query over a graph stored on disk.
``batch``       Serve a file of queries concurrently over one shared index.
``serve``       Run the streaming TCP query server (:mod:`repro.server`):
                clients get a PROGRESS frame per improved incumbent and
                a terminal RESULT; SIGTERM/SIGINT drain gracefully.
``precompute``  Materialize a persistent precompute store (``repro.store``).
``generate``    Produce a synthetic dataset (edge/label files).
``info``        Summarize a stored graph.
``bench``       Regenerate one of the paper's figures/tables.
``resume``      Resume checkpointed queries (``batch --checkpoint-dir``)
                to completion after a crash or interruption.
``verify``      Cross-check every algorithm tier on one instance and
                certify each answer (replays minimized fuzz reproducers).
``metrics``     Dump the process-wide metrics registry (:mod:`repro.obs`)
                in Prometheus text exposition format — optionally after
                running a query workload so the counters are non-zero.
``fuzz``        Seeded differential sweep over random instances
                (:mod:`repro.verify`); failures are minimized and saved.

``solve`` and ``batch`` accept ``--store PATH`` to warm-start from a
store built by ``precompute``: per-label distance tables are preloaded
and the epsilon-aware result cache is consulted/updated.  An unusable
store (corrupt, version skew, graph fingerprint mismatch) fails closed
— a warning is printed and the query runs cold.

Graphs on disk use the two-file format of :mod:`repro.graph.io`
(``<stem>.edges`` + ``<stem>.labels``).  Query files for ``batch`` hold
one query per line as comma-separated labels (``#`` comments and blank
lines are skipped).
"""

from __future__ import annotations

import argparse
import sys
import time as _time
from typing import List, Optional

from .bench import figures
from .core.budget import Budget
from .core.solver import ALGORITHMS, solve_gst
from .core.topr import top_r_trees
from .errors import ReproError, StoreError
from .graph import generators
from .graph.io import load_graph, save_graph

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Efficient and progressive Group Steiner Tree search "
        "(SIGMOD 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a GST query over a stored graph")
    solve.add_argument("--graph", required=True, help="graph file stem")
    solve.add_argument(
        "--labels", required=True,
        help="comma-separated query labels, e.g. q0,q1,q2",
    )
    solve.add_argument(
        "--algorithm",
        default="pruneddp++",
        choices=sorted(ALGORITHMS) + ["auto"],
    )
    solve.add_argument("--epsilon", type=float, default=0.0,
                       help="stop at a proven (1+eps)-approximation")
    solve.add_argument("--time-limit", type=float, default=None,
                       help="wall-clock budget in seconds")
    solve.add_argument("--top", type=int, default=1,
                       help="report the best TOP distinct answers")
    solve.add_argument("--exact-top", action="store_true",
                       help="with --top: exact enumeration instead of "
                            "the progressive-search harvest")
    solve.add_argument("--progress", action="store_true",
                       help="print UB/LB events while solving")
    solve.add_argument("--quiet", action="store_true",
                       help="print only the final weight")
    solve.add_argument("--json", action="store_true",
                       help="emit the full result record as JSON")
    solve.add_argument("--dot", action="store_true",
                       help="emit the answer tree as Graphviz DOT")
    solve.add_argument("--profile", action="store_true",
                       help="run the solve under cProfile and print the top "
                            "25 functions by cumulative time to stderr")
    solve.add_argument("--chart", action="store_true",
                       help="draw the UB/LB convergence chart")
    solve.add_argument("--store", default=None, metavar="PATH",
                       help="warm-start from a precompute store directory "
                            "(falls back to cold solve if unusable)")

    batch = sub.add_parser(
        "batch",
        help="serve a file of queries concurrently over one shared index",
    )
    batch.add_argument("--graph", required=True, help="graph file stem")
    batch.add_argument(
        "--queries", required=True,
        help="query file: one comma-separated label set per line",
    )
    batch.add_argument(
        "--algorithm",
        default="pruneddp++",
        choices=sorted(ALGORITHMS) + ["auto"],
    )
    batch.add_argument("--max-workers", type=int, default=None,
                       help="executor thread count (default: cpu-bound)")
    batch.add_argument("--time-limit", type=float, default=None,
                       help="per-query wall-clock budget in seconds")
    batch.add_argument("--epsilon", type=float, default=0.0,
                       help="stop each query at a proven (1+eps)-approximation")
    batch.add_argument("--max-states", type=int, default=None,
                       help="per-query cap on popped DP states")
    batch.add_argument("--deadline", type=float, default=None,
                       help="whole-batch wall-clock allowance in seconds")
    batch.add_argument("--traces", default=None,
                       help="write per-query JSONL traces to this file")
    batch.add_argument("--retries", type=int, default=0, metavar="N",
                       help="re-run a query up to N times when an attempt "
                            "fails with an unexpected error or a dead fleet "
                            "worker (a time limit is no failure: the query "
                            "returns its anytime answer)")
    batch.add_argument("--degrade", action="store_true",
                       help="each retry drops one rung down the "
                            "pruneddp++>pruneddp>basic ladder with a "
                            "growing epsilon (bounded-gap degraded answers); "
                            "without --retries, allows 1 retry")
    batch.add_argument("--admission", type=int, default=None, metavar="STATES",
                       help="reject queries whose estimated DP state space "
                            "exceeds STATES (admission control)")
    batch.add_argument("--quiet", action="store_true",
                       help="print only the summary line")
    batch.add_argument("--store", default=None, metavar="PATH",
                       help="warm-start from a precompute store directory; "
                            "successful answers are persisted back "
                            "(falls back to cold serving if unusable)")
    batch.add_argument("--workers", type=int, default=None, metavar="N",
                       help="solve in a fleet of N persistent worker "
                            "processes sharing one shared-memory copy of "
                            "the graph (default: solve on the executor's "
                            "threads)")
    batch.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="write engine checkpoints here; interrupted or "
                            "crashed queries resume from their latest "
                            "checkpoint (see the 'resume' command)")
    batch.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="POPS",
                       help="checkpoint cadence in engine state pops "
                            "(default 2000; a 2s wall-clock trigger always "
                            "runs alongside)")
    batch.add_argument("--max-rss-mb", type=float, default=None,
                       help="with --workers: memory watchdog — a worker over "
                            "this RSS mid-query is checkpointed and killed, "
                            "an idle one is replaced before its next query")
    batch.add_argument("--worker-timeout", type=float, default=None,
                       help="with --workers: hard wall-clock kill deadline "
                            "per query in seconds")

    serve = sub.add_parser(
        "serve",
        help="run the streaming TCP query server (repro.server)",
    )
    serve.add_argument("--graph", required=True, help="graph file stem")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7464,
                       help="TCP port (0 picks a free one; default 7464)")
    serve.add_argument(
        "--algorithm",
        default="pruneddp++",
        choices=sorted(ALGORITHMS) + ["auto"],
        help="default algorithm for queries that do not choose one",
    )
    serve.add_argument("--epsilon", type=float, default=0.0,
                       help="default per-query (1+eps) stopping gap")
    serve.add_argument("--time-limit", type=float, default=None,
                       help="default per-query wall-clock budget in seconds")
    serve.add_argument("--max-states", type=int, default=None,
                       help="default per-query cap on popped DP states")
    serve.add_argument("--max-workers", type=int, default=None,
                       help="executor thread count (default: cpu-bound)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="solve in a fleet of N persistent worker "
                            "processes sharing one shared-memory copy of "
                            "the graph: multi-core throughput, no PROGRESS "
                            "streaming")
    serve.add_argument("--max-inflight", type=int, default=4,
                       help="concurrent queries allowed per connection")
    serve.add_argument("--admission", type=int, default=None, metavar="STATES",
                       help="reject queries whose estimated DP state space "
                            "exceeds STATES (admission control)")
    serve.add_argument("--traces", default=None,
                       help="write per-query JSONL traces to this file "
                            "(flushed and closed on drain)")
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="warm-start from a precompute store directory "
                            "(falls back to cold serving if unusable)")
    serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="checkpoint in-flight queries here when a drain "
                            "has to cancel them")
    serve.add_argument("--drain-grace", type=float, default=None,
                       metavar="SECONDS",
                       help="on SIGTERM/SIGINT: wait this long for in-flight "
                            "queries before cancelling them (default: wait)")
    serve.add_argument("--metrics-port", type=int, default=None, metavar="N",
                       help="also serve the Prometheus text exposition of "
                            "the metrics registry over HTTP on this port "
                            "(0 picks a free one; default: off)")

    res = sub.add_parser(
        "resume",
        help="resume checkpointed queries to completion",
    )
    res.add_argument("--graph", required=True, help="graph file stem")
    res.add_argument("--checkpoint", default=None, metavar="FILE",
                     help="one checkpoint file to resume")
    res.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="resume every checkpoint found in DIR")
    res.add_argument("--time-limit", type=float, default=None,
                     help="per-query wall-clock budget in seconds "
                          "(default: run to proven optimality)")
    res.add_argument("--json", action="store_true",
                     help="emit one JSON record per resumed query")
    res.add_argument("--quiet", action="store_true",
                     help="print only the summary line")

    pre = sub.add_parser(
        "precompute",
        help="materialize a persistent precompute store for a graph",
    )
    pre.add_argument("--graph", required=True, help="graph file stem")
    pre.add_argument("--out", required=True, help="store directory to write")
    pre.add_argument("--top-k", type=int, default=64,
                     help="precompute tables for the K hottest labels")
    pre.add_argument("--labels", default=None,
                     help="comma-separated labels to precompute "
                          "(overrides --top-k selection)")
    pre.add_argument("--queries", default=None,
                     help="workload file (one comma-separated label set per "
                          "line) guiding hot-label selection")
    pre.add_argument("--solve", action="store_true",
                     help="with --queries: also pre-solve the workload and "
                          "persist the answers in the result cache")
    pre.add_argument(
        "--algorithm",
        default="pruneddp++",
        choices=sorted(ALGORITHMS) + ["auto"],
        help="algorithm tier used with --solve",
    )
    pre.add_argument("--epsilon", type=float, default=0.0,
                     help="with --solve: stop each pre-solved query at a "
                          "proven (1+eps)-approximation")

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument(
        "--kind", required=True,
        choices=["dblp", "imdb", "powerlaw", "road", "random"],
    )
    gen.add_argument("--out", required=True, help="output file stem")
    gen.add_argument("--size", type=int, default=500,
                     help="approximate node count")
    gen.add_argument("--query-labels", type=int, default=20,
                     help="number of controlled-frequency query labels")
    gen.add_argument("--label-frequency", type=int, default=8,
                     help="nodes per query label (the paper's kwf)")
    gen.add_argument("--seed", type=int, default=0)

    info = sub.add_parser("info", help="summarize a stored graph")
    info.add_argument("--graph", required=True, help="graph file stem")

    metrics = sub.add_parser(
        "metrics",
        help="dump the metrics registry in Prometheus text format",
    )
    metrics.add_argument("--graph", default=None, help="graph file stem: "
                         "run a workload first so counters are non-zero")
    metrics.add_argument("--queries", default=None,
                         help="query file to run before dumping "
                              "(requires --graph)")
    metrics.add_argument(
        "--algorithm",
        default="pruneddp++",
        choices=sorted(ALGORITHMS) + ["auto"],
        help="algorithm for the --queries workload",
    )

    verify = sub.add_parser(
        "verify",
        help="run every algorithm tier on one query and certify the answers",
    )
    verify.add_argument("--graph", required=True, help="graph file stem")
    verify.add_argument(
        "--labels", required=True,
        help="comma-separated query labels, e.g. q0,q1,q2",
    )
    verify.add_argument(
        "--algorithm", action="append", default=None, metavar="TIER",
        choices=sorted(ALGORITHMS) + ["bruteforce"],
        help="tier to include (repeatable; default: all applicable)",
    )
    verify.add_argument("--epsilon", type=float, default=0.0,
                        help="allow progressive tiers a proven (1+eps) gap")
    verify.add_argument("--debug-certify", action="store_true",
                        help="also certify every incumbent update inside "
                             "the engines (slower, pinpoints the bad pop)")
    verify.add_argument("--quiet", action="store_true",
                        help="print only the verdict line")

    fuzz = sub.add_parser(
        "fuzz",
        help="seeded differential fuzz sweep across all algorithm tiers",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first round seed (rounds use seed..seed+N-1)")
    fuzz.add_argument("--rounds", type=int, default=200,
                      help="number of random instances to sweep")
    fuzz.add_argument("--max-nodes", type=int, default=24,
                      help="largest random graph to generate")
    fuzz.add_argument("--max-labels", type=int, default=5,
                      help="largest query-label pool to generate")
    fuzz.add_argument("--epsilon", type=float, default=0.0,
                      help="fuzz the anytime mode at this epsilon instead "
                           "of exact agreement")
    fuzz.add_argument("--metamorphic", type=int, default=0, metavar="N",
                      help="run the metamorphic transforms every N-th "
                           "round (0 = off)")
    fuzz.add_argument("--debug-certify", action="store_true",
                      help="certify every incumbent update inside the "
                           "engines during the sweep")
    fuzz.add_argument("--out", default="fuzz-failures", metavar="DIR",
                      help="directory for minimized reproducers "
                           "(created only on failure)")
    fuzz.add_argument("--quiet", action="store_true",
                      help="print only the summary line")

    bench = sub.add_parser("bench", help="regenerate a paper experiment")
    bench.add_argument(
        "--experiment", required=True,
        choices=["fig4", "fig6", "fig8", "fig10", "fig16", "table2"],
    )
    bench.add_argument("--dataset", default="dblp",
                       choices=["dblp", "imdb", "livejournal", "roadusa"])
    bench.add_argument("--scale", default="tiny",
                       choices=["tiny", "small", "medium"])

    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _index_with_store(graph, store_path: str):
    """A GraphIndex warm-started from ``store_path`` — or cold.

    The fail-closed contract: any :class:`~repro.errors.StoreError`
    (corruption, version skew, fingerprint mismatch) prints a warning
    and returns a cold index, so a bad artifact can never corrupt or
    block a solve.
    """
    from .service import GraphIndex

    index = GraphIndex(graph)
    try:
        warmed = index.attach_store(store_path)
    except StoreError as exc:
        print(
            f"warning: precompute store {store_path!r} is unusable ({exc}); "
            "continuing with a cold index",
            file=sys.stderr,
        )
    else:
        cached = len(index.result_cache) if index.result_cache is not None else 0
        print(
            f"store: warmed {warmed} label tables, {cached} cached answers "
            f"from {store_path}",
            file=sys.stderr,
        )
    return index


def _budget(args: argparse.Namespace) -> Budget:
    """The query limits a command's flags set (a flag it lacks sets none)."""
    return Budget(
        time_limit=getattr(args, "time_limit", None),
        epsilon=getattr(args, "epsilon", 0.0),
        max_states=getattr(args, "max_states", None),
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    labels = [token for token in args.labels.split(",") if token]
    budget = _budget(args)

    on_progress = None
    if args.progress:
        def on_progress(point):
            ub = "inf" if point.best_weight == float("inf") else f"{point.best_weight:g}"
            print(
                f"t={point.elapsed:8.3f}s  UB={ub:>10}  "
                f"LB={point.lower_bound:10.4f}",
                file=sys.stderr,
            )

    if args.top > 1:
        from .core.topr import exact_top_r_trees

        top_fn = exact_top_r_trees if args.exact_top else top_r_trees
        # Top-r answers are not an anytime solve: only the time limit
        # applies.
        trees = top_fn(
            graph, labels, args.top, budget=budget.replace(epsilon=0.0)
        )
        for i, tree in enumerate(trees, 1):
            print(f"# answer {i}: weight={tree.weight:g}")
            if not args.quiet:
                print(tree.render(graph))
        return 0

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if args.store is not None:
            index = _index_with_store(graph, args.store)
            result = index.solve(
                labels,
                algorithm=args.algorithm,
                budget=budget,
                on_progress=on_progress,
            )
            index.save_results()
        else:
            result = solve_gst(
                graph,
                labels,
                algorithm=args.algorithm,
                budget=budget,
                on_progress=on_progress,
            )
    finally:
        if profiler is not None:
            import pstats

            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    if args.dot:
        if result.tree is None:
            print("error: no feasible tree found", file=sys.stderr)
            return 2
        print(result.tree.to_dot(graph))
        return 0
    if args.quiet:
        print(f"{result.weight:g}")
        return 0
    print(f"algorithm : {result.algorithm}")
    print(f"weight    : {result.weight:g}")
    print(f"optimal   : {result.optimal}")
    if not result.optimal:
        print(f"ratio     : <= {result.ratio:.4f}")
    print(f"states    : {result.stats.states_popped} popped, "
          f"{result.stats.peak_live_states} peak live")
    print(f"time      : {result.stats.total_seconds:.3f}s "
          f"(init {result.stats.init_seconds:.3f}s)")
    if result.tree is not None:
        print(result.tree.render(graph))
    if args.chart and result.trace:
        from .bench.plotting import progressive_chart

        trace = [
            (p.elapsed, p.best_weight, p.lower_bound) for p in result.trace
        ]
        print()
        print(progressive_chart({result.algorithm: trace}))
    return 0


def _read_query_file(path: str) -> List[List[str]]:
    """Parse a batch query file: one comma-separated label set per line."""
    queries: List[List[str]] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot read query file: {exc}") from None
    with handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            labels = [token.strip() for token in line.split(",") if token.strip()]
            if not labels:
                raise ReproError(f"{path}:{lineno}: empty query line")
            queries.append(labels)
    if not queries:
        raise ReproError(f"{path}: no queries found")
    return queries


def _cmd_batch(args: argparse.Namespace) -> int:
    import signal

    from .core.budget import CancellationToken
    from .service import (
        AdmissionPolicy,
        GraphIndex,
        QueryExecutor,
        RetryPolicy,
        TraceSink,
        WorkerPolicy,
    )

    if args.workers is None and (
        args.max_rss_mb is not None or args.worker_timeout is not None
    ):
        raise ReproError(
            "--max-rss-mb and --worker-timeout supervise worker processes; "
            "add --workers N"
        )
    graph = load_graph(args.graph)
    queries = _read_query_file(args.queries)
    budget = _budget(args)
    if args.retries < 0:
        raise ReproError("--retries must be >= 0")
    retry_policy = None
    if args.retries > 0 or args.degrade:
        retry_policy = RetryPolicy(
            max_retries=max(1, args.retries), degrade=args.degrade
        )
    admission = (
        AdmissionPolicy(max_estimated_states=args.admission)
        if args.admission is not None
        else None
    )
    worker_policy = None
    if (
        args.max_rss_mb is not None
        or args.worker_timeout is not None
        or args.checkpoint_every is not None
    ):
        policy_kwargs = dict(
            max_rss_mb=args.max_rss_mb,
            hard_timeout_seconds=args.worker_timeout,
        )
        if args.checkpoint_every is not None:
            policy_kwargs["checkpoint_every_pops"] = args.checkpoint_every
        worker_policy = WorkerPolicy(**policy_kwargs)
    sink = TraceSink(args.traces) if args.traces else None
    if args.store is not None:
        index = _index_with_store(graph, args.store)
    else:
        index = GraphIndex(graph)

    # Graceful interruption: SIGINT/SIGTERM cancel the shared token
    # instead of killing the process mid-write.  In-flight engines
    # checkpoint (when --checkpoint-dir is set) and return their best
    # anytime answers, queued queries come back "cancelled", and the
    # partial-results summary below still prints — so an interrupted
    # batch is resumable, not lost.
    token = CancellationToken()
    interrupted: dict = {"signum": None}

    def _on_signal(signum, frame):
        if interrupted["signum"] is None:
            interrupted["signum"] = signum
            name = signal.Signals(signum).name
            print(
                f"\n{name}: cancelling batch — in-flight queries are "
                "checkpointing and returning their best answers...",
                file=sys.stderr,
            )
            token.cancel(f"interrupted by {name}")

    previous_handlers = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[signum] = signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass

    started = _time.perf_counter()
    try:
        with QueryExecutor(
            index,
            max_workers=args.max_workers,
            algorithm=args.algorithm,
            budget=budget,
            trace_sink=sink,
            retry_policy=retry_policy,
            admission=admission,
            checkpoint_dir=args.checkpoint_dir,
            worker_policy=worker_policy,
            workers=args.workers,
        ) as executor:
            outcomes = executor.run_batch(
                queries, deadline=args.deadline, cancel_token=token
            )
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        if sink is not None:
            sink.close()
    total = _time.perf_counter() - started

    ok = 0
    degraded = rejected = retried = 0
    for outcome in outcomes:
        trace = outcome.trace
        if outcome.ok:
            ok += 1
            weight = outcome.result.weight
            detail = (
                f"weight={weight:g} "
                f"{'optimal' if outcome.result.optimal else 'anytime'}"
            )
            if trace.degraded:
                detail += f" degraded->{trace.algorithm}"
        else:
            detail = trace.error or "failed"
        degraded += trace.degraded
        rejected += trace.status == "rejected"
        retried += trace.attempts > 1
        if not args.quiet:
            print(
                f"[{outcome.query_id:>3}] {trace.status:<10} "
                f"{','.join(str(l) for l in outcome.labels):<30} "
                f"{trace.wall_seconds * 1e3:8.1f} ms  {detail}"
            )
    qps = len(outcomes) / total if total > 0 else float("inf")
    if executor.worker_pool is not None:
        mode = f"{executor.worker_pool.workers} fleet workers"
    else:
        mode = f"{executor.max_workers} thread workers"
    print(
        f"batch: {len(outcomes)} queries ({ok} ok, {len(outcomes) - ok} "
        f"failed) in {total:.3f}s = {qps:.1f} q/s [{args.algorithm}, {mode}]"
    )
    if degraded or rejected or retried:
        print(
            f"resilience: {retried} retried, {degraded} degraded, "
            f"{rejected} rejected"
        )
    checkpoints = sum(o.trace.checkpoints for o in outcomes)
    resumed = sum(o.trace.resumed_from is not None for o in outcomes)
    restarts = sum(o.trace.worker_restarts for o in outcomes)
    watchdog = sum(o.trace.watchdog_kills for o in outcomes)
    if checkpoints or resumed or restarts or watchdog:
        print(
            f"durability: {checkpoints} checkpoints written, {resumed} "
            f"queries resumed, {restarts} workers restarted, "
            f"{watchdog} watchdog kills"
        )
    if sink is not None:
        print(f"traces: {sink.count} records -> {args.traces}")
    if args.store is not None and index.store is not None:
        hits = sum(o.trace.result_cache == "hit" for o in outcomes)
        saved = index.save_results()
        print(
            f"store: {hits} result-cache hits; persisted {saved} answers "
            f"-> {args.store}"
        )
    if interrupted["signum"] is not None:
        name = signal.Signals(interrupted["signum"]).name
        cancelled_n = sum(o.trace.status == "cancelled" for o in outcomes)
        # A cancelled query with an incumbent still counts as ok above;
        # here "completed" means it actually ran to its natural end.
        completed = sum(
            o.ok and o.trace.status != "cancelled" for o in outcomes
        )
        print(
            f"interrupted by {name}: partial results above — "
            f"{completed} completed, {cancelled_n} cancelled"
        )
        if args.checkpoint_dir is not None:
            print(
                "resume interrupted queries with: repro resume "
                f"--graph {args.graph} --checkpoint-dir {args.checkpoint_dir}"
            )
        return 130 if interrupted["signum"] == signal.SIGINT else 143
    return 0 if ok > 0 else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .server import GSTServer
    from .service import AdmissionPolicy, GraphIndex

    graph = load_graph(args.graph)
    if args.store is not None:
        index = _index_with_store(graph, args.store)
    else:
        index = GraphIndex(graph)
    budget = _budget(args)
    admission = (
        AdmissionPolicy(max_estimated_states=args.admission)
        if args.admission is not None
        else None
    )

    executor_kwargs: dict = {
        "max_workers": args.max_workers,
        "trace_sink": args.traces,
        "admission": admission,
        "checkpoint_dir": args.checkpoint_dir,
        "workers": args.workers,
    }

    async def _run() -> int:
        server = GSTServer(
            index,
            host=args.host,
            port=args.port,
            algorithm=args.algorithm,
            budget=budget,
            max_inflight=args.max_inflight,
            drain_grace=args.drain_grace,
            metrics_port=args.metrics_port,
            **executor_kwargs,
        )
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        received: dict = {"signum": None}

        def _on_signal(signum: int) -> None:
            if received["signum"] is None:
                received["signum"] = signum
                stop.set()

        # Handlers go in before the banner: a supervisor may signal as
        # soon as it reads the banner, and that signal must drain.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _on_signal, signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        mode = (
            f"fleet of {args.workers} workers"
            if args.workers is not None
            else "in-process threads"
        )
        print(
            f"serving {args.graph} ({index.num_nodes} nodes, "
            f"{index.num_edges} edges) on {server.host}:{server.port} "
            f"[{args.algorithm}, {mode}]",
            flush=True,
        )
        if server.metrics_port is not None:
            print(
                f"metrics: http://{server.host}:{server.metrics_port}/metrics",
                flush=True,
            )
        serving = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        name = signal.Signals(received["signum"]).name
        print(
            f"{name}: draining — no new queries; waiting for "
            f"{server.inflight_queries} in flight...",
            file=sys.stderr,
            flush=True,
        )
        await server.drain()
        serving.cancel()
        try:
            await serving
        except asyncio.CancelledError:
            pass
        stats = server.stats
        print(
            f"drained: {stats.results_sent} results, "
            f"{stats.progress_frames_sent} progress frames, "
            f"{stats.errors_sent} errors over "
            f"{stats.connections_accepted} connections",
            flush=True,
        )
        # A drain is the server's *normal* end of life, so it exits 0
        # (unlike batch, where an interrupt means lost work).
        return 0

    return asyncio.run(_run())


def _cmd_resume(args: argparse.Namespace) -> int:
    import glob
    import os

    from .service import GraphIndex, resume_query
    from .service.durability import CHECKPOINT_SUFFIX

    if (args.checkpoint is None) == (args.checkpoint_dir is None):
        raise ReproError(
            "resume needs exactly one of --checkpoint / --checkpoint-dir"
        )
    if args.checkpoint is not None:
        paths = [args.checkpoint]
    else:
        paths = sorted(
            glob.glob(
                os.path.join(args.checkpoint_dir, f"*{CHECKPOINT_SUFFIX}")
            )
        )
        if not paths:
            print(
                f"resume: no checkpoints in {args.checkpoint_dir} — "
                "nothing to do"
            )
            return 0
    graph = load_graph(args.graph)
    index = GraphIndex(graph)
    budget = _budget(args)
    ok = failed = 0
    for path in paths:
        try:
            outcome = resume_query(index, path, budget=budget)
        except StoreError as exc:
            # Typed fail-closed surface: a truncated / corrupt /
            # version-skewed / wrong-graph checkpoint is reported, not
            # silently re-solved — the caller decides what to discard.
            print(f"resume: {exc}", file=sys.stderr)
            failed += 1
            continue
        trace = outcome.trace
        if outcome.ok:
            ok += 1
            result = outcome.result
            if args.json:
                import json

                record = trace.to_dict()
                record["checkpoint"] = path
                print(json.dumps(record, sort_keys=True))
            elif not args.quiet:
                print(
                    f"{os.path.basename(path):<28} "
                    f"{','.join(str(l) for l in outcome.labels):<30} "
                    f"weight={result.weight:g} "
                    f"{'optimal' if result.optimal else 'anytime'} "
                    f"({trace.wall_seconds * 1e3:.1f} ms, "
                    f"+{trace.checkpoints} checkpoints)"
                )
        else:
            failed += 1
            print(
                f"resume: {os.path.basename(path)} failed: {trace.error}",
                file=sys.stderr,
            )
    print(f"resume: {ok} completed, {failed} failed of {len(paths)}")
    return 0 if failed == 0 else 2


def _cmd_precompute(args: argparse.Namespace) -> int:
    from .store import build_store

    graph = load_graph(args.graph)
    workload = _read_query_file(args.queries) if args.queries else None
    if args.solve and workload is None:
        raise ReproError("--solve requires --queries")
    labels = None
    if args.labels is not None:
        labels = [token for token in args.labels.split(",") if token]
        if not labels:
            raise ReproError("--labels given but empty")
    report = build_store(
        graph,
        args.out,
        top_k=args.top_k,
        labels=labels,
        workload=workload,
        graph_stem=args.graph,
    )
    print(report.summary())
    if args.solve:
        index = _index_with_store(graph, args.out)
        budget = _budget(args)
        ok = 0
        for labels_q in workload:
            outcome = index.execute(
                labels_q, algorithm=args.algorithm, budget=budget
            )
            ok += outcome.ok
        saved = index.save_results()
        print(
            f"pre-solved {ok}/{len(workload)} workload queries; "
            f"persisted {saved} answers to the result cache"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    kind = args.kind
    common = dict(
        num_query_labels=args.query_labels,
        label_frequency=args.label_frequency,
        seed=args.seed,
    )
    if kind == "dblp":
        graph = generators.dblp_like(
            num_papers=args.size * 3 // 5,
            num_authors=args.size * 2 // 5,
            **common,
        )
    elif kind == "imdb":
        graph = generators.imdb_like(
            num_movies=args.size * 3 // 5,
            num_people=args.size * 2 // 5,
            **common,
        )
    elif kind == "powerlaw":
        graph = generators.powerlaw(args.size, **common)
    elif kind == "road":
        side = max(2, int(args.size ** 0.5))
        graph = generators.road_grid(side, side, **common)
    else:
        graph = generators.random_graph(args.size, args.size * 2, **common)
    edges_path, labels_path = save_graph(graph, args.out)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges to "
          f"{edges_path} and {labels_path}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    degrees = [graph.degree(v) for v in graph.nodes()] or [0]
    print(f"nodes        : {graph.num_nodes}")
    print(f"edges        : {graph.num_edges}")
    print(f"total weight : {graph.total_weight:g}")
    print(f"labels       : {graph.num_labels}")
    print(f"max degree   : {max(degrees)}")
    print(f"avg degree   : {sum(degrees) / len(degrees):.2f}")
    frequencies = sorted(
        (graph.label_frequency(label) for label in graph.all_labels()),
        reverse=True,
    )
    if frequencies:
        print(f"label freq   : max={frequencies[0]} "
              f"median={frequencies[len(frequencies) // 2]}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import get_registry, register_all

    registry = get_registry()
    # Register every known family up front so the dump is the complete
    # metric inventory even when a counter has never fired.
    register_all(registry)
    if args.queries is not None and args.graph is None:
        raise ReproError("--queries requires --graph")
    if args.graph is not None:
        from .service import GraphIndex, QueryExecutor

        graph = load_graph(args.graph)
        index = GraphIndex(graph)
        queries = (
            _read_query_file(args.queries) if args.queries is not None else []
        )
        if queries:
            with QueryExecutor(index, algorithm=args.algorithm) as executor:
                executor.run_batch(queries)
    sys.stdout.write(registry.render_exposition())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_instance

    graph = load_graph(args.graph)
    labels = [token for token in args.labels.split(",") if token]
    report = verify_instance(
        graph,
        labels,
        algorithms=args.algorithm,
        epsilon=args.epsilon,
        debug_certify=args.debug_certify,
    )
    if not args.quiet:
        for name, run in report.runs.items():
            print(f"{name:<12}: {run.describe()}")
    if report.ok:
        feasible = [
            run for run in report.runs.values() if not run.infeasible
        ]
        if feasible:
            print(
                f"verify: {len(report.runs)} tiers agree, "
                f"weight={feasible[0].weight:g} — OK"
            )
        else:
            print(f"verify: {len(report.runs)} tiers agree — infeasible")
        return 0
    if report.disagreement is not None:
        print(f"verify: {report.disagreement}", file=sys.stderr)
    for violation in report.violations:
        print(f"verify: {violation}", file=sys.stderr)
    return 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .verify import run_sweep

    if args.rounds <= 0:
        raise ReproError("--rounds must be positive")
    progress_every = max(1, args.rounds // 10)
    started = _time.perf_counter()

    def on_round(report):
        done = report.seed - args.seed + 1
        if not args.quiet and done % progress_every == 0:
            elapsed = _time.perf_counter() - started
            print(
                f"fuzz: {done}/{args.rounds} rounds "
                f"({elapsed:.1f}s)", file=sys.stderr
            )
        if not report.ok:
            print(
                f"fuzz: seed {report.seed} FAILED: "
                f"{report.disagreement or '; '.join(report.violations)}",
                file=sys.stderr,
            )

    sweep = run_sweep(
        args.rounds,
        seed=args.seed,
        max_nodes=args.max_nodes,
        max_labels=args.max_labels,
        epsilon=args.epsilon,
        debug_certify=args.debug_certify,
        metamorphic_every=args.metamorphic,
        reproducer_dir=args.out,
        on_round=on_round,
    )
    print(sweep.summary())
    for report in sweep.failures:
        if report.reproducer is not None:
            print(
                f"fuzz: reproducer for seed {report.seed}: "
                f"{report.reproducer}(.edges/.labels/.json)",
                file=sys.stderr,
            )
    return 0 if sweep.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    dataset, scale = args.dataset, args.scale
    if args.experiment == "fig4":
        fig = figures.figure_time_vs_ratio_knum(dataset, scale=scale)
    elif args.experiment == "fig6":
        fig = figures.figure_time_vs_ratio_kwf(dataset, scale=scale)
    elif args.experiment == "fig8":
        fig = figures.figure_memory_vs_ratio_knum(dataset, scale=scale)
    elif args.experiment == "fig10":
        fig = figures.figure_progressive_bounds(dataset, scale=scale)
    elif args.experiment == "fig16":
        fig = figures.figure_large_knum(dataset, scale=scale)
    else:  # table2
        fig = figures.table_banks_comparison(dataset, scale=scale)
    print(fig.text)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "resume": _cmd_resume,
    "precompute": _cmd_precompute,
    "generate": _cmd_generate,
    "info": _cmd_info,
    "metrics": _cmd_metrics,
    "verify": _cmd_verify,
    "fuzz": _cmd_fuzz,
    "bench": _cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, ValueError) as error:
        # ValueError covers invalid limit values (Budget, max_workers,
        # deadline) raised by library-level validation.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away mid-print: not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

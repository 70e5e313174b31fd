#!/usr/bin/env python3
"""The serving benchmark: four workloads through a real ``repro serve``.

Run one workload (the form a harness calls)::

    python3 perf/run.py --workload dblp-progressive --seed 1 --seconds 20 --trace 0

or all four (or those named by repeated ``--workload``), printing every
metric by name with its unit::

    python3 perf/run.py --seed 1 --seconds 20 [--trace 1] [--out runs.jsonl]

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` serves with ``--traces`` and reports the per-layer ones,
writing one span tree per query to ``--spans`` (JSONL).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every answer
passed the correctness gate.  Scratch files go under ``.perf_work/``
in the checkout and are removed when the run ends.

The benchmark, the server and its workers run on one core, and the
end-to-end durations are read on a clock that counts only their own
CPU time, at that core's measured speed (see ``speed.py``), so that
other tenants of a shared host move them little.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perf_work")

if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.exit(f"perf/run.py: no repro sources under {SRC}; run it from a full checkout")
sys.path.insert(0, SRC)

from repro.graph.graph import Graph  # noqa: E402
from repro.graph.io import load_graph, save_graph  # noqa: E402
from repro.service import GraphIndex  # noqa: E402
from repro.store import build_store  # noqa: E402

from layers import (  # noqa: E402
    build_spans,
    cache_read_us,
    load_traces,
    percentile,
    probe_layers,
    trace_metrics,
    wire_metrics,
)
from loadgen import HarnessError, Judge, ServerProcess, canonical_answer, drive  # noqa: E402
from speed import CpuClock, SpeedProbe  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Inputs,
    Workload,
    distinct_label_sets,
    queries_digest,
)

SETUP_LAUNCHES = 5
# Label sets timed through an in-process fleet round trip and the
# result cache in the traced run.
PROBE_QUERIES = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Report:
    """One workload run: verdict, counts, metrics and provenance."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}  # name -> (value, samples)
        self.slowdown = None  # the core's median slowdown over the run
        self.cpu_share = None  # CPU-clock length of the timed phase / its wall length
        self.answers = {}
        self.fingerprint = None
        self.queries_sha256 = None

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check_drain(self, code: int) -> None:
        self.attempted += 1
        if code != 0:
            self.fail(f"serve exited {code} after SIGTERM, expected a clean drain (0)")

    def add_phase(self, phase) -> None:
        self.attempted += len(phase.samples) + len(phase.transport_failures)
        for problem in phase.transport_failures:
            self.fail(problem)
        for sample in phase.samples:
            if not sample.ok:
                self.fail(f"query {sample.query_id} {list(sample.labels)}: "
                          + "; ".join(sample.problems))
            if sample.answer is not None:
                key = ",".join(sample.labels)
                self.answers[key] = hashlib.sha256(sample.answer.encode()).hexdigest()[:16]

    @property
    def correct(self) -> bool:
        return self.failed == 0


@dataclass
class Setup:
    """A workload's generated inputs and where its server reads them."""

    workload: Workload
    inputs: Inputs
    graph: Graph  # as reloaded from ``stem``, exactly what the server loads
    stem: str
    store_dir: Optional[str]
    serve_args: List[str]
    workdir: str

    @property
    def log(self) -> str:
        return os.path.join(self.workdir, "serve.log")


def run_workload(name: str, seed: int, seconds: float, traced: bool, spans_out) -> Report:
    workload = WORKLOADS[name]
    report = Report(name, seed)
    workdir = os.path.join(WORK, f"{name}-s{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        started = time.perf_counter()
        inputs = workload.make_inputs(seed)
        report.metrics["graph_generate_s"] = (time.perf_counter() - started, 1)
        stem = os.path.join(workdir, "graph")
        save_graph(inputs.graph, stem)
        graph = load_graph(stem)
        report.fingerprint = GraphIndex(graph).snapshot.fingerprint
        report.queries_sha256 = queries_digest(inputs)
        setup = Setup(workload, inputs, graph, stem, None, list(workload.serve_args), workdir)
        if workload.uses_store:
            setup.store_dir = os.path.join(workdir, "store")
            sets = distinct_label_sets(inputs)
            started = time.perf_counter()
            build_store(graph, setup.store_dir, workload=sets,
                        top_k=len({label for labels in sets for label in labels}),
                        graph_stem=stem)
            report.metrics["store_build_s"] = (time.perf_counter() - started, 1)
            setup.serve_args += ["--store", setup.store_dir]
        try:
            if traced:
                _traced(report, setup, seconds, spans_out)
            else:
                _untraced(report, setup, seconds)
        except HarnessError:
            _print_log_tail(setup.log)
            raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def _serve_phase(report: Report, setup: Setup, seconds: float, probe: SpeedProbe,
                 extra_args=(), keep_frames: int = 0):
    """Launch, warm up, drive for ``seconds``, drain; returns the phase."""
    server = ServerProcess(ROOT, setup.stem, setup.serve_args + list(extra_args),
                           setup.log, probe)
    judge = Judge(setup.graph, keep_frames=keep_frames)
    warm = {}

    def on_warm() -> None:
        # Read once warm: by the end of a cold run the label cache has
        # grown with every query answered, so a faster server would
        # read as a bigger one.
        warm["rss"] = server.peak_rss_mb()

    workload, inputs = setup.workload, setup.inputs
    try:
        phase = drive(server.port, workload.connections, workload.warmup(inputs),
                      inputs.requests(), seconds, judge, on_warm, probe)
        phase.server = server
        phase.peak_rss_mb = warm["rss"]
        phase.frames = judge.frames
    except BaseException:
        server.kill()
        raise
    report.check_drain(server.stop())
    report.add_phase(phase)
    return phase


def _end_to_end(phase, launches, clock):
    """The timed end-to-end metrics, every duration in nominal seconds."""
    span = clock.span
    ok = [s for s in phase.samples if s.ok]
    latencies = [span(s.cpu_start, s.cpu_end) for s in ok]
    ttfp = [span(s.cpu_start, s.cpu_end) * s.ttfp for s in ok if s.ttfp is not None]
    ttr = [span(s.cpu_start, s.cpu_end) * s.ttr[1.41] for s in ok if 1.41 in s.ttr]
    setups = [span(server.spawned_at, server.ready_at) for server in launches]
    return {
        "latency_p50_s": (percentile(latencies, 0.5), len(latencies)),
        "latency_p90_s": (percentile(latencies, 0.9), len(latencies)),
        "ttfp_p50_s": (percentile(ttfp, 0.5), len(ttfp)),
        "ttr_1.41_p50_s": (percentile(ttr, 0.5), len(ttr)),
        "throughput_qps": (len(ok) / span(phase.cpu_started, phase.cpu_ended), len(ok)),
        "setup_s": (statistics.median(setups), len(setups)),
    }


def _untraced(report: Report, setup: Setup, seconds: float) -> None:
    probe = SpeedProbe(CpuClock())
    launches = []
    for _ in range(SETUP_LAUNCHES - 1):
        server = ServerProcess(ROOT, setup.stem, setup.serve_args, setup.log, probe)
        launches.append(server)
        report.check_drain(server.stop())
    phase = _serve_phase(report, setup, seconds, probe)
    launches.append(phase.server)
    clock = probe.clock()
    report.slowdown = clock.slowdown()
    report.cpu_share = (phase.cpu_ended - phase.cpu_started) / (phase.ended - phase.started)
    report.metrics.update(_end_to_end(phase, launches, clock))
    report.metrics["peak_rss_mb"] = (phase.peak_rss_mb, 1)


def _traced(report: Report, setup: Setup, seconds: float, spans_out) -> None:
    # The same traffic twice, half the time each: without and with the
    # server's trace sink, so the difference is the tracing overhead.
    probe = SpeedProbe(CpuClock())
    plain = _serve_phase(report, setup, seconds / 2, probe)
    traces_path = os.path.join(setup.workdir, "traces.jsonl")
    phase = _serve_phase(report, setup, seconds / 2, probe, ["--traces", traces_path],
                         keep_frames=5000)
    traces = load_traces(traces_path)
    origin = phase.samples[0].start if phase.samples else 0.0
    spans = build_spans(phase.samples, traces, origin)
    for span in spans:
        span["workload"] = setup.workload.name
        spans_out.write(json.dumps(span, sort_keys=True) + "\n")
    # The halves ran at different times, so compare them in nominal time.
    clock = probe.clock()
    report.metrics.update(trace_metrics(phase.samples, traces, spans, clock))
    report.metrics.update(wire_metrics(phase.frames))

    def p50(samples):
        return percentile([clock.span(s.cpu_start, s.cpu_end) for s in samples if s.ok], 0.5)

    untraced_p50 = p50(plain.samples)
    overhead = (p50(phase.samples) - untraced_p50) / untraced_p50 if untraced_p50 else 0.0
    report.metrics["tracing_overhead_share"] = (overhead, len(phase.samples))

    sample = distinct_label_sets(setup.inputs, limit=PROBE_QUERIES)
    store_dir = setup.store_dir
    if store_dir is None:
        store_dir = os.path.join(setup.workdir, "probe-store")
        started = time.perf_counter()
        build_store(setup.graph, store_dir, labels=sorted({l for q in sample for l in q}),
                    graph_stem=setup.stem)
        report.metrics["store_build_s"] = (time.perf_counter() - started, 1)
    reference = GraphIndex(load_graph(setup.stem))
    started = time.perf_counter()
    reference.attach_store(store_dir)
    report.metrics["store_attach_s"] = (time.perf_counter() - started, 1)

    # Every answer the traced server gave must be byte-identical to an
    # in-process solve of the same query (which also fills the result
    # cache read below).
    answers = {s.labels: s.answer for s in phase.samples if s.answer is not None}
    for labels, answer in answers.items():
        report.attempted += 1
        outcome = reference.execute(labels)
        if not outcome.ok:
            report.fail(f"in-process {list(labels)} failed: {outcome.error}")
        elif canonical_answer(outcome.result.weight, outcome.result.tree.edges) != answer:
            report.fail(f"server answer for {list(labels)} differs from in-process")
    report.metrics["result_cache_serve_us_p50"] = cache_read_us(
        reference, list(answers)[:PROBE_QUERIES]
    )
    report.metrics.update(probe_layers(setup.stem, sample))


def _print_log_tail(log: str) -> None:
    try:
        with open(log, encoding="utf-8") as handle:
            tail = handle.readlines()[-20:]
    except OSError:
        return
    sys.stderr.write("".join(f"  serve: {line}" for line in tail))


def _metric_table(spec: dict, traced: bool):
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def _record(report: Report, units: dict, args) -> dict:
    missing = sorted(set(units) - set(report.metrics))
    if missing:
        raise HarnessError(f"{report.workload}: metrics not produced: {missing}")
    return {
        "workload": report.workload,
        "seed": report.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "graph_fingerprint": report.fingerprint,
        "queries_sha256": report.queries_sha256,
        "metrics": {
            name: {
                "value": float(report.metrics[name][0]),
                "unit": unit,
                "samples": report.metrics[name][1],
            }
            for name, unit in units.items()
        },
        "core_slowdown": report.slowdown,
        "cpu_share": report.cpu_share,
        "answers": report.answers,
        "problems": report.problems[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="run this workload; may repeat (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced server")
    parser.add_argument("--out", help="append one JSON record per workload run here")
    parser.add_argument("--spans", help="span JSONL of a traced run "
                        "(default .perf_work/spans.jsonl)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    units = _metric_table(load_spec(), bool(args.trace))
    # The client, the server and its workers all run on one core, the
    # core the speed probe measures (see speed.py).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = args.workload or list(WORKLOADS)
    os.makedirs(WORK, exist_ok=True)
    spans_path = args.spans or os.path.join(WORK, "spans.jsonl")
    records = []
    try:
        with open(spans_path if args.trace else os.devnull, "w", encoding="utf-8") as spans_out:
            for name in names:
                report = run_workload(name, args.seed, args.seconds, bool(args.trace), spans_out)
                record = _record(report, units, args)
                records.append(record)
                _print_record(record)
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as handle:
                        handle.write(json.dumps(record, sort_keys=True) + "\n")
    except HarnessError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 2

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{record['workload']}.{name}": value
            for record in records
            for name, value in record["metrics"].items()
        }
    correct = all(record["correct"] for record in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {
            name: {"value": value["value"], "unit": value["unit"]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def _print_record(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} "
          f"{'correct' if record['correct'] else 'INCORRECT'} "
          f"({record['failed']} failed of {record['attempted']})")
    print(f"   graph fingerprint {record['graph_fingerprint']}")
    print(f"   queries sha256    {record['queries_sha256']}")
    for name, value in record["metrics"].items():
        print(f"   {name:28s} {value['value']:14.6g} {value['unit']:6s} n={value['samples']}")
    for problem in record["problems"]:
        print(f"   ! {problem}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

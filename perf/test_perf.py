"""Self-test of the benchmark harness at smoke size (about 40 s on 2 vCPUs).

    python3 -m pytest perf/test_perf.py

Runs all four workloads twice through ``perf/run.py`` with one-second
timed phases: untraced under ``PYTHONHASHSEED=1`` and traced under
``PYTHONHASHSEED=2``, as three concurrent runs spread over the cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


# (trace, PYTHONHASHSEED, workloads or None for all, core index)
_RUNS = (
    (0, "1", None, 0),
    (1, "2", ("fleet-powerlaw", "hot-repeat"), 1),
    (1, "2", ("dblp-progressive", "powerlaw-cold"), 0),
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perf")
    # run.py pins itself to the lowest core it may use; spread the runs
    # over the cores there are.
    cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    procs = []
    for number, (trace, hash_seed, workloads, core) in enumerate(_RUNS):
        out = tmp / f"run{number}.jsonl"
        spans = tmp / f"spans{number}.jsonl"
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--seed", str(SEED),
                "--seconds", "1", "--trace", str(trace), "--out", str(out),
                "--spans", str(spans)]
        for workload in workloads or ():
            argv += ["--workload", workload]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        pin = None
        if cores:
            def pin(core=cores[core % len(cores)]):
                os.sched_setaffinity(0, {core})
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, preexec_fn=pin)
        procs.append((trace, proc, out, spans))
    results = {0: {}, 1: {}, "spans": []}
    for trace, proc, out, spans in procs:
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        last = json.loads(stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        with open(out, encoding="utf-8") as handle:
            results[trace].update((r["workload"], r) for r in map(json.loads, handle))
        if trace:
            with open(spans, encoding="utf-8") as handle:
                results["spans"].extend(json.loads(line) for line in handle)
    return results


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_every_metric_emitted_with_its_unit_for_every_workload(runs):
    spec = _spec()
    workloads = {w["name"] for w in spec["workloads"]}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        assert set(runs[trace]) == workloads
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        for record in runs[trace].values():
            emitted = {name: m["unit"] for name, m in record["metrics"].items()}
            assert emitted == expected, record["workload"]
            assert record["attempted"] > 0 and record["failed"] == 0


def test_end_to_end_metrics_are_positive(runs):
    for record in runs[0].values():
        for name, metric in record["metrics"].items():
            assert metric["value"] > 0, (record["workload"], name)


def test_spans_nest_and_self_times_are_not_negative(runs):
    spans = runs["spans"]
    assert spans
    by_query = {}
    for span in spans:
        by_query.setdefault((span["workload"], span["query_id"]), {})[span["name"]] = span
    slack = 1e-9
    for tree in by_query.values():
        for span in tree.values():
            assert span["self"] >= -slack, span
            if span["parent"] is not None:
                parent = tree[span["parent"]]
                assert parent["start"] - slack <= span["start"], span
                assert span["end"] <= parent["end"] + slack, span


def test_stages_account_for_server_execute(runs):
    checked = 0
    for span in runs["spans"]:
        if span["name"] == "server.execute" and span["engine"]:
            stages = span["duration"] - span["self"]
            assert abs(stages - span["duration"]) <= 0.1 * span["duration"], span
            checked += 1
    assert checked > 0


def test_inputs_and_answers_do_not_depend_on_hash_seed_or_tracing(runs):
    for name, untraced in runs[0].items():
        traced = runs[1][name]
        assert untraced["graph_fingerprint"] == traced["graph_fingerprint"], name
        assert untraced["queries_sha256"] == traced["queries_sha256"], name
        common = set(untraced["answers"]) & set(traced["answers"])
        assert common, name
        for key in common:
            assert untraced["answers"][key] == traced["answers"][key], (name, key)

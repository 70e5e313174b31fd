"""Instrumentation tests: the registry must not drift from the traces.

The acceptance property of the observability layer: after a batch, the
default registry's query/engine/cache counters are *exactly* the sums
of the corresponding fields over the batch's ``QueryTrace`` records —
one recording point, no second bookkeeping path to disagree.
"""

import asyncio
import json
from collections import Counter as TallyCounter
from types import SimpleNamespace

import pytest

from repro.errors import RemoteQueryError
from repro.graph import generators
from repro.obs import MetricsRegistry, get_registry, instruments
from repro.server import AsyncGSTClient, GSTServer
from repro.service import GraphIndex, QueryExecutor


@pytest.fixture
def graph():
    return generators.random_graph(
        120, 360, num_query_labels=6, label_frequency=4, seed=11
    )


def _counter_value(counter, **labels):
    return counter.labels(**labels).value if labels else counter.value()


class _Deltas:
    """Before/after snapshot helper for the process-wide registry."""

    def __init__(self):
        self._before = {}

    def mark(self, name, counter, **labels):
        self._before[name] = (counter, labels, _counter_value(counter, **labels))

    def delta(self, name):
        counter, labels, before = self._before[name]
        return _counter_value(counter, **labels) - before


def test_batch_counters_match_traces_exactly(graph):
    registry = get_registry()
    queries = [["q0", "q1"], ["q2", "q3"], ["q0", "q4", "q5"]]

    deltas = _Deltas()
    queries_counter = instruments.queries_total(registry)
    engine = instruments.engine_events(registry)
    caches = instruments.label_cache_events(registry)
    deltas.mark("popped", engine, event="popped")
    deltas.mark("pushed", engine, event="pushed")
    deltas.mark("pruned", engine, event="pruned")
    deltas.mark(
        "improved", engine, event="incumbent_improved"
    )
    deltas.mark("cache_hit", caches, event="hit")
    deltas.mark("cache_miss", caches, event="miss")

    def _query_samples():
        return {
            (s["labels"]["status"], s["labels"]["algorithm"]): s["value"]
            for s in queries_counter.samples()
        }

    per_label_before = _query_samples()
    query_seconds = registry.get("gst_query_seconds")
    seconds_count_before = 0
    if query_seconds is not None:
        samples = query_seconds.samples()
        seconds_count_before = samples[0]["count"] if samples else 0

    index = GraphIndex(graph)
    with QueryExecutor(index, algorithm="pruneddp++") as executor:
        outcomes = executor.run_batch(queries)
    assert len(outcomes) == 3

    traces = [outcome.trace for outcome in outcomes]
    # Per (status, algorithm) query counts: registry deltas must equal
    # the tally over traces exactly — no drift, no double counting.
    expected = TallyCounter(
        (trace.status, trace.algorithm) for trace in traces
    )
    per_label_after = _query_samples()
    observed = {
        key: per_label_after[key] - per_label_before.get(key, 0)
        for key in per_label_after
    }
    for key, count in expected.items():
        assert observed.get(key) == count

    # Engine counters: exact sums over traces, no drift.
    def trace_sum(key):
        return sum((trace.stats or {}).get(key, 0) for trace in traces)

    assert deltas.delta("popped") == trace_sum("states_popped")
    assert deltas.delta("pushed") == trace_sum("states_pushed")
    assert deltas.delta("pruned") == trace_sum("states_pruned")
    assert deltas.delta("improved") == trace_sum("incumbent_improvements")
    assert deltas.delta("cache_hit") == sum(t.cache_hits for t in traces)
    assert deltas.delta("cache_miss") == sum(t.cache_misses for t in traces)

    # Every query observed exactly one latency sample.
    samples = registry.get("gst_query_seconds").samples()
    assert samples[0]["count"] - seconds_count_before == len(traces)

    # The search actually did work, so the totals are non-trivial.
    assert trace_sum("states_popped") > 0
    assert trace_sum("incumbent_improvements") > 0


# Hits and misses: registry deltas against traces, with a store attached.
HITS_AND_MISSES = (
    ["q0", "q1"], ["q2", "q3"], ["q0", "q1"], ["q0", "q4", "q5"],
    ["q2", "q3"], ["q1", "no-such-label"], ["q0", "q1"],
)


def _hit_miss_state():
    """The counters a mix of hits and misses moves, keyed for deltas."""
    state = {
        ("queries", s["labels"]["status"], s["labels"]["algorithm"]): s["value"]
        for s in instruments.queries_total().samples()
    }
    seconds = instruments.query_seconds().samples()
    state["seconds"] = seconds[0]["count"] if seconds else 0
    served = instruments.result_cache_served()
    events = instruments.result_cache_events()
    for result in ("hit", "miss"):
        state[("served", result)] = served.labels(result=result).value
        state[("event", result)] = events.labels(event=result).value
    return state


def _assert_no_drift(before, traces, index):
    after = _hit_miss_state()
    delta = {key: after[key] - before.get(key, 0) for key in after}
    served = TallyCounter(trace.result_cache for trace in traces)
    assert served["hit"] and served["miss"], "the mix must hold both"
    assert served["hit"] + served["miss"] == len(traces)
    expected = TallyCounter(
        ("queries", trace.status, trace.algorithm) for trace in traces
    )
    for key in delta:
        if key[0] == "queries":
            assert delta[key] == expected.get(key, 0), key
    assert delta["seconds"] == len(traces)
    for result in ("hit", "miss"):
        assert delta[("served", result)] == served[result]
        # One lookup per query: a second lookup of a missed query
        # would count its miss twice.
        assert delta[("event", result)] == served[result]
    assert index.result_cache.hits == served["hit"]
    assert index.result_cache.misses == served["miss"]


def _check_store_backed_batch(store_index, workers):
    before = _hit_miss_state()
    with QueryExecutor(store_index, workers=workers) as executor:
        # One batch per query: a repeat then finds the answer its first
        # occurrence wrote back, whatever the thread timing.
        outcomes = [
            outcome
            for labels in HITS_AND_MISSES
            for outcome in executor.run_batch([labels])
        ]
    traces = [outcome.trace for outcome in outcomes]
    assert [t.result_cache for t in traces] == [
        "miss", "miss", "hit", "miss", "hit", "miss", "hit",
    ]
    _assert_no_drift(before, traces, store_index)


def test_store_backed_batch_hits_and_misses_match_traces(store_index):
    _check_store_backed_batch(store_index, workers=None)


def test_store_backed_fleet_batch_hits_and_misses_match_traces(store_index):
    """The same mix on a one-worker fleet: its infeasible query's miss
    is traced like an ok query's, as it is in-thread."""
    _check_store_backed_batch(store_index, workers=1)


def test_store_backed_server_hits_and_misses_match_traces(
    store_index, tmp_path
):
    sink = str(tmp_path / "traces.jsonl")

    async def scenario():
        async with GSTServer(store_index, trace_sink=sink) as server:
            client = await AsyncGSTClient.connect("127.0.0.1", server.port)
            for labels in HITS_AND_MISSES:
                try:
                    await client.solve(labels)
                except RemoteQueryError as exc:
                    assert exc.code == "infeasible"
            await client.close()

    before = _hit_miss_state()
    asyncio.run(scenario())
    with open(sink, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    assert len(records) == len(HITS_AND_MISSES)
    traces = [SimpleNamespace(**record) for record in records]
    _assert_no_drift(before, traces, store_index)


def test_queries_total_delta_matches_batch_size(graph):
    registry = get_registry()
    counter = instruments.queries_total(registry)
    before = sum(s["value"] for s in counter.samples())
    index = GraphIndex(graph)
    with QueryExecutor(index, algorithm="basic") as executor:
        outcomes = executor.run_batch([["q0", "q1"], ["q1", "q2"]])
    after = sum(s["value"] for s in counter.samples())
    assert after - before == len(outcomes) == 2


def test_record_query_trace_isolated_registry(graph):
    """Fold a real trace into a private registry and check the fields."""
    registry = MetricsRegistry()
    index = GraphIndex(graph)
    with QueryExecutor(index, algorithm="pruneddp++") as executor:
        outcome = executor.submit(["q0", "q1"]).result()
    trace = outcome.trace
    instruments.record_query_trace(trace, registry)

    counter = instruments.queries_total(registry)
    assert counter.value(status=trace.status, algorithm=trace.algorithm) == 1
    engine = instruments.engine_events(registry)
    assert engine.value(event="popped") == trace.stats["states_popped"]
    # An ok query with a finite ratio records its epsilon-at-exit.
    if trace.status == "ok":
        eps = registry.get("gst_epsilon_at_exit").samples()
        assert eps[0]["count"] == 1


def test_executor_queue_depth_returns_to_zero(graph):
    registry = get_registry()
    depth = instruments.executor_queue_depth(registry)
    index = GraphIndex(graph)
    with QueryExecutor(index, algorithm="basic") as executor:
        futures = [executor.submit(["q0", "q1"]) for _ in range(4)]
        for future in futures:
            future.result()
    assert depth.value() == 0.0


def test_register_all_materializes_full_inventory():
    registry = MetricsRegistry()
    instruments.register_all(registry)
    names = registry.names()
    assert "gst_queries_total" in names
    assert "gst_server_frames_total" in names
    assert "gst_traces_dropped_total" in names
    assert len(names) == len(instruments.inventory())
    # Rendering the idle inventory is valid exposition text.
    from repro.obs import parse_exposition

    parse_exposition(registry.render_exposition())

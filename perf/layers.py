"""Per-layer measurements for the traced run.

Two sources, both outside the program:

* the server's own ``--traces`` JSONL (one
  :class:`~repro.service.telemetry.QueryTrace` per query: engine stage
  timings, search counters, cache outcomes), joined to the client's
  request timings by query id into a span tree per query::

      client.request
        server.execute            (duration = trace.wall_seconds)
          context_build, bounds_build, search, feasible

  The server reports durations, not start times, so ``server.execute``
  is placed to end when the RESULT arrived and the stages are laid end
  to end from its start; a span's self time is its duration minus its
  children's.
* calls into the layers' public functions, timed in this process:
  graph load, snapshot build, shared-memory export, fleet spawn and
  round trip (:func:`probe_layers`), result-cache reads
  (:func:`cache_read_us`) and the wire codec replaying captured frames
  (:func:`wire_metrics`).
"""

from __future__ import annotations

import json
import statistics
import time
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench import RATIO_CHECKPOINTS
from repro.graph.io import load_graph
from repro.server.protocol import FrameDecoder, encode_frame
from repro.service import FleetPool, GraphIndex
from repro.service.telemetry import STAGES

from loadgen import Sample
from speed import NominalClock

__all__ = [
    "percentile",
    "load_traces",
    "build_spans",
    "trace_metrics",
    "wire_metrics",
    "probe_layers",
    "cache_read_us",
]

# Replay and cache-read probes repeat until they have run this long, so
# a microsecond timing rests on many calls.
_MIN_PROBE_SECONDS = 0.2


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _p50(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def load_traces(path: str) -> Dict[object, dict]:
    """The server's trace records keyed by query id."""
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return {record["query_id"]: record for record in records}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def build_spans(samples: Sequence[Sample], traces: Dict[object, dict], origin: float) -> List[dict]:
    """One span tree per timed request, times relative to ``origin``."""
    spans: List[dict] = []
    for sample in samples:
        tree = [_span(sample.query_id, "client.request", None,
                      sample.start - origin, sample.end - origin)]
        trace = traces.get(sample.query_id)
        if trace is not None:
            end = sample.end - origin
            start = end - trace["wall_seconds"]
            execute = _span(sample.query_id, "server.execute", "client.request", start, end)
            execute["status"] = trace["status"]
            execute["engine"] = _ran_engine(trace)
            tree.append(execute)
            cursor = start
            for stage in STAGES:
                if stage in trace["stages"]:
                    duration = trace["stages"][stage]
                    tree.append(_span(sample.query_id, stage, "server.execute",
                                      cursor, cursor + duration))
                    cursor += duration
        for span in tree:
            children = sum(
                child["duration"] for child in tree if child["parent"] == span["name"]
            )
            span["self"] = span["duration"] - children
        spans.extend(tree)
    return spans


def _ran_engine(trace: dict) -> bool:
    """Whether the query was solved (not answered from the result cache)."""
    return trace["status"] == "ok" and trace["result_cache"] != "hit" and bool(trace["stages"])


def _span(query_id, name: str, parent: Optional[str], start: float, end: float) -> dict:
    return {
        "query_id": query_id,
        "name": name,
        "parent": parent,
        "start": start,
        "end": end,
        "duration": end - start,
    }


# ----------------------------------------------------------------------
# Metrics from the traces and the client's samples
# ----------------------------------------------------------------------
def trace_metrics(samples: Sequence[Sample], traces: Dict[object, dict],
                  spans: Sequence[dict], clock: NominalClock) -> Dict[str, Tuple[float, int]]:
    """Per-layer metrics as ``{name: (value, samples)}``.

    The progress curve is read on ``clock``, like the end-to-end
    metrics; every other time is the server's own wall clock.
    """
    mine = [traces[s.query_id] for s in samples if s.query_id in traces]
    engine = [t for t in mine if _ran_engine(t)]
    walls = [t["wall_seconds"] for t in engine]
    total_wall = sum(walls)
    metrics: Dict[str, Tuple[float, int]] = {}
    for stage in STAGES:
        values = [t["stages"].get(stage, 0.0) for t in engine]
        metrics[f"{stage}_s_p50"] = (_p50(values), len(values))
        metrics[f"{stage}_share"] = (_share(sum(values), total_wall), len(values))

    stats = [t["stats"] for t in engine]
    popped = sum(s["states_popped"] for s in stats)
    pushed = sum(s["states_pushed"] for s in stats)
    pruned = sum(s["states_pruned"] for s in stats)
    builds = sum(s["feasible_built"] for s in stats)
    improvements = sum(s["incumbent_improvements"] for s in stats)
    search_seconds = sum(t["stages"].get("search", 0.0) for t in engine)
    feasible_seconds = sum(t["stages"].get("feasible", 0.0) for t in engine)
    n = len(stats)
    metrics["states_popped_p50"] = (_p50([s["states_popped"] for s in stats]), n)
    metrics["states_per_s"] = (_share(popped, search_seconds), n)
    metrics["prune_ratio"] = (_share(pruned, pushed + pruned), n)
    metrics["peak_live_states_p50"] = (_p50([s["peak_live_states"] for s in stats]), n)
    metrics["feasible_builds_p50"] = (_p50([s["feasible_built"] for s in stats]), n)
    metrics["feasible_s_per_build"] = (_share(feasible_seconds, builds), n)
    metrics["feasible_yield"] = (_share(improvements, builds), n)
    metrics["execute_self_s_p50"] = (
        _p50([t["wall_seconds"] - sum(t["stages"].values()) for t in engine]), n
    )

    hits = sum(t["cache_hits"] for t in engine)
    lookups = hits + sum(t["cache_misses"] for t in engine)
    metrics["label_cache_hit_ratio"] = (_share(hits, lookups), lookups)
    memo = [t["bounds_cache"] for t in engine if t.get("bounds_cache")]
    memo_hits = sum(m["hits"] for m in memo)
    memo_lookups = memo_hits + sum(m["misses"] for m in memo)
    metrics["bounds_memo_hit_ratio"] = (_share(memo_hits, memo_lookups), memo_lookups)
    consulted = [t for t in mine if t["result_cache"] in ("hit", "miss")]
    result_hits = sum(t["result_cache"] == "hit" for t in consulted)
    metrics["result_cache_hit_ratio"] = (_share(result_hits, len(consulted)), len(consulted))

    requests = [s for s in spans if s["name"] == "client.request"]
    overhead = [
        s["self"] for s in requests if s["query_id"] in traces
    ]
    metrics["server_overhead_s_p50"] = (_p50(overhead), len(overhead))
    metrics["server_overhead_share"] = (
        _share(sum(overhead), sum(s["duration"] for s in requests if s["query_id"] in traces)),
        len(overhead),
    )

    metrics["wire_frames_per_query"] = (
        _share(sum(s.frame_count for s in samples), len(samples)), len(samples)
    )
    sizes = [s.result_bytes for s in samples if s.result_bytes is not None]
    metrics["wire_result_bytes_p50"] = (_p50(sizes), len(sizes))
    for checkpoint in RATIO_CHECKPOINTS:
        if checkpoint == 1.41:
            continue  # an end-to-end metric
        values = [clock.span(s.cpu_start, s.cpu_end) * s.ttr[checkpoint]
                  for s in samples if checkpoint in s.ttr]
        metrics[f"ttr_{checkpoint:g}_p50_s"] = (_p50(values), len(values))
    return metrics


def wire_metrics(frames: Sequence[dict]) -> Dict[str, Tuple[float, int]]:
    """Replay captured frames through the codec: microseconds per frame."""
    if not frames:
        return {"wire_encode_us_per_frame": (0.0, 0), "wire_decode_us_per_frame": (0.0, 0)}
    encoded = [encode_frame(frame) for frame in frames]

    def encode_all() -> None:
        for frame in frames:
            encode_frame(frame)

    def decode_all() -> None:
        decoder = FrameDecoder()
        for chunk in encoded:
            decoder.feed(chunk)

    return {
        "wire_encode_us_per_frame": (_per_call_us(encode_all, len(frames)), len(frames)),
        "wire_decode_us_per_frame": (_per_call_us(decode_all, len(frames)), len(frames)),
    }


def _per_call_us(batch, calls_per_batch: int) -> float:
    batches = 0
    started = time.perf_counter()
    while True:
        batch()
        batches += 1
        elapsed = time.perf_counter() - started
        if elapsed >= _MIN_PROBE_SECONDS:
            return elapsed / (batches * calls_per_batch) * 1e6


# ----------------------------------------------------------------------
# In-process probes of the layers' public calls
# ----------------------------------------------------------------------
def probe_layers(stem: str, sample: Sequence[Tuple[str, ...]]) -> Dict[str, Tuple[float, int]]:
    """Time graph load, snapshot build, shm export and the fleet on ``sample``."""
    loads, freezes = [], []
    for _ in range(3):
        started = time.perf_counter()
        graph = load_graph(stem)
        loads.append(time.perf_counter() - started)
        started = time.perf_counter()
        index = GraphIndex(graph)
        freezes.append(time.perf_counter() - started)
    metrics: Dict[str, Tuple[float, int]] = {
        "graph_load_s": (statistics.median(loads), len(loads)),
        "snapshot_build_s": (statistics.median(freezes), len(freezes)),
    }

    started = time.perf_counter()
    shared = index.snapshot.to_shared()
    metrics["shm_export_s"] = (time.perf_counter() - started, 1)
    metrics["shm_bytes"] = (float(shared.size), 1)
    shared.unlink()
    shared.close()

    started = time.perf_counter()
    pool = FleetPool(index, workers=1)
    metrics["fleet_spawn_s"] = (time.perf_counter() - started, 1)
    ipc = []
    try:
        for labels in sample:
            started = time.perf_counter()
            outcome = pool.execute(labels)
            ipc.append(time.perf_counter() - started - outcome.trace.wall_seconds)
    finally:
        pool.shutdown()
        # Creating a shared segment started multiprocessing's resource
        # tracker process; every segment is unlinked now, so stop and
        # reap it rather than leave it to outlive the run.
        stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop_tracker is not None:
            stop_tracker()
    metrics["fleet_ipc_s_p50"] = (_p50(ipc), len(ipc))
    return metrics


def cache_read_us(index: GraphIndex, sample: Sequence[Tuple[str, ...]]) -> Tuple[float, int]:
    """p50 microseconds of ``GraphIndex.cached_outcome`` over ``sample``."""
    reads = []
    deadline = time.perf_counter() + _MIN_PROBE_SECONDS
    while time.perf_counter() < deadline:
        for labels in sample:
            started = time.perf_counter()
            index.cached_outcome(labels)
            reads.append((time.perf_counter() - started) * 1e6)
    return _p50(reads), len(reads)

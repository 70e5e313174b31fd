#!/usr/bin/env python
"""Server smoke: the streaming deployment shape, end to end.

The :mod:`repro.server` acceptance check, runnable anywhere (CI job,
cron, laptop): generate a graph, launch a real ``python -m repro
serve`` subprocess, query it over TCP with the blocking client, then
SIGTERM it.  It does this twice.

The cold leg serves the bare graph.  The run fails loudly unless

* the client observes at least one ``PROGRESS`` frame before the
  ``RESULT`` — the wire actually streams the anytime UB/LB curve, it
  does not batch it;
* the UB/LB ratio across the stream is non-increasing (the
  progressive contract survives serialization);
* the final answer *certifies*: the tree shipped over the wire is
  re-validated against the graph from first principles by
  :func:`repro.verify.certify_result`;
* SIGTERM drains gracefully — the server exits 0 after flushing its
  trace sink, and every line in the sink is whole JSON.

The store leg first runs ``precompute --solve`` on the query, then
serves with ``--store``.  The query must come back as a result-cache
hit: a lone ``RESULT`` with no ``PROGRESS`` frame, an answer that
certifies, a trace line whose ``result_cache`` is ``"hit"``, and a
drain that exits 0.

The malformed leg first sends one frame the decoder cannot read (JSON
nested past the recursion limit).  It must get ``ERROR
code=protocol`` and a hang-up; a fresh connection must then be
answered, and SIGTERM must still drain to exit 0.

Exit code 0 on success, 1 with a diagnostic on any violation.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import time

QUERY = ["q0", "q1", "q2"]
# A frame whose JSON nests past the recursion limit.
MALFORMED = b"[" * 200_000


class SmokeFailure(Exception):
    pass


def fail(message: str) -> int:
    print(f"server_smoke: FAIL: {message}", file=sys.stderr)
    return 1


def solve(port):
    """Stream QUERY on a fresh connection; every update."""
    from repro.server import GSTClient

    with GSTClient("127.0.0.1", port, timeout=60) as client:
        return list(client.solve_stream(QUERY))


def malformed_then_solve(port):
    """Send MALFORMED, read to the hang-up, then :func:`solve`."""
    from repro.server.protocol import FrameDecoder

    decoder = FrameDecoder()
    frames = []
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(struct.pack(">I", len(MALFORMED)) + MALFORMED)
        while True:
            data = sock.recv(65536)
            if not data:
                break
            frames.extend(decoder.feed(data))
    seen = [(frame["type"], frame.get("code")) for frame in frames]
    if seen != [("hello", None), ("error", "protocol")]:
        raise SmokeFailure(
            f"a malformed frame got {seen}, expected HELLO, then ERROR "
            "code=protocol and a hang-up"
        )
    return solve(port)


def stream(serve_args, traces, exchange=solve):
    """Launch ``serve``, run ``exchange(port)``, SIGTERM; its updates and traces."""
    # --port 0 lets the OS pick; the server announces the bound port on
    # stdout, which is the smoke's only coupling to its output format.
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--traces", traces, *serve_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        # A store-backed server reports its warm load first.
        output = []
        match = None
        while match is None:
            line = proc.stdout.readline()
            if not line:
                raise SmokeFailure(f"no port announcement in: {output!r}")
            output.append(line)
            match = re.search(r"^serving .* on \S+:(\d+)", line)
        updates = exchange(int(match.group(1)))
        proc.send_signal(signal.SIGTERM)
        try:
            returncode = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            raise SmokeFailure("server did not drain within 60s of SIGTERM")
        if returncode != 0:
            raise SmokeFailure(f"drain exited {returncode}, expected 0")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not updates or not updates[-1].final:
        raise SmokeFailure("stream did not end with a RESULT frame")
    with open(traces, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    if len(records) != 1 or records[0]["status"] != "ok":
        raise SmokeFailure(f"trace sink not flushed correctly: {records}")
    return updates, records[0]


def certify(graph, final) -> None:
    """Rebuild a GSTResult from the wire payload and certify it.

    The answer a remote client holds is exactly as trustworthy as an
    in-process one.
    """
    from repro.core.result import GSTResult, SearchStats
    from repro.core.tree import SteinerTree
    from repro.verify.certify import certify_result

    frame = final.result
    result = GSTResult(
        algorithm=frame["algorithm"],
        labels=tuple(QUERY),
        tree=SteinerTree(
            [tuple(edge) for edge in frame["tree"]["edges"]],
            nodes=frame["tree"]["nodes"],
        ),
        weight=frame["weight"],
        lower_bound=frame["lower_bound"],
        optimal=frame["optimal"],
        stats=SearchStats(),
    )
    certificate = certify_result(graph, result, labels=QUERY)
    if not certificate.ok:
        raise SmokeFailure(
            f"answer failed certification: {certificate.violations}"
        )


def cold_leg(graph, stem, tmp) -> str:
    updates, _ = stream(
        ["--graph", stem, "--algorithm", "basic"],
        os.path.join(tmp, "cold-traces.jsonl"),
    )
    progress = updates[:-1]
    if not progress:
        raise SmokeFailure("no PROGRESS frame arrived before the RESULT")
    ratios = [u.ratio for u in updates]
    if any(b > a + 1e-9 for a, b in zip(ratios, ratios[1:])):
        raise SmokeFailure(f"UB/LB ratio increased along the stream: {ratios}")
    certify(graph, updates[-1])
    return (
        f"cold: {len(progress)} progress frames, final weight "
        f"{updates[-1].best_weight:g} certified, drained exit 0"
    )


def store_leg(graph, stem, tmp) -> str:
    queries = os.path.join(tmp, "queries.txt")
    store = os.path.join(tmp, "store")
    with open(queries, "w", encoding="utf-8") as handle:
        handle.write(",".join(QUERY) + "\n")
    built = subprocess.run(
        [
            sys.executable, "-m", "repro", "precompute", "--graph", stem,
            "--out", store, "--queries", queries, "--solve",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if built.returncode != 0:
        raise SmokeFailure(
            f"precompute --solve exited {built.returncode}: {built.stderr}"
        )
    updates, record = stream(
        ["--graph", stem, "--store", store],
        os.path.join(tmp, "store-traces.jsonl"),
    )
    if len(updates) != 1:
        raise SmokeFailure(
            f"a stored answer came with {len(updates) - 1} PROGRESS frames"
        )
    certify(graph, updates[-1])
    if record.get("result_cache") != "hit":
        raise SmokeFailure(f"the query was not a result-cache hit: {record}")
    return (
        f"store: cache hit, final weight {updates[-1].best_weight:g} "
        "certified, drained exit 0"
    )


def malformed_leg(graph, stem, tmp) -> str:
    updates, _ = stream(
        ["--graph", stem],
        os.path.join(tmp, "malformed-traces.jsonl"),
        exchange=malformed_then_solve,
    )
    certify(graph, updates[-1])
    return (
        "malformed: ERROR code=protocol, a fresh connection answered, "
        "drained exit 0"
    )


def main() -> int:
    from repro.graph import generators
    from repro.graph.io import save_graph

    tmp = tempfile.mkdtemp(prefix="server-smoke-")
    stem = os.path.join(tmp, "graph")
    graph = generators.random_graph(
        200, 600, num_query_labels=6, label_frequency=5, seed=11
    )
    save_graph(graph, stem)
    try:
        cold = cold_leg(graph, stem, tmp)
        warm = store_leg(graph, stem, tmp)
        malformed = malformed_leg(graph, stem, tmp)
    except SmokeFailure as exc:
        return fail(str(exc))
    print(f"server_smoke: OK — {cold}; {warm}; {malformed}")
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"server_smoke: {time.perf_counter() - started:.1f}s", file=sys.stderr)
    sys.exit(code)

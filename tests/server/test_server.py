"""End-to-end tests for the streaming query server.

The server runs on a background thread with its own event loop; tests
talk to it through the real TCP stack with the blocking client —
the exact deployment shape of ``python -m repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import struct
import sys
import threading
import time

import pytest

import repro.core.solver as solver_mod
import repro.server.server as server_mod
from repro import GraphIndex, solve_gst
from repro.errors import ProtocolError, RemoteQueryError
from repro.graph import generators
from repro.obs import instruments
from repro.server import AsyncGSTClient, GSTClient, GSTServer
from repro.server.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    cancel_frame,
    encode_frame,
    hello_frame,
    load_number,
    query_frame,
)

INF = float("inf")


class ServerHarness:
    """A GSTServer on a daemon thread, drained on close."""

    def __init__(self, index, **kwargs) -> None:
        self._index = index
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._error: list = []
        self.server: GSTServer = None
        self.loop: asyncio.AbstractEventLoop = None
        self._stopped: asyncio.Event = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError(f"server failed to start: {self._error}")

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # pragma: no cover - harness diagnostics
            self._error.append(exc)
            self._ready.set()

    async def _main(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self.server = GSTServer(self._index, port=0, **self._kwargs)
        await self.server.start()
        self._ready.set()
        await self._stopped.wait()
        await self.server.drain()

    @property
    def port(self) -> int:
        return self.server.port

    def drain(self, grace=None) -> None:
        """Run a drain from the test thread; blocks until complete."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(grace), self.loop
        )
        future.result(timeout=30)

    def start_drain(self, grace=None):
        """Kick off a drain without waiting (for mid-drain assertions)."""
        return asyncio.run_coroutine_threadsafe(
            self.server.drain(grace), self.loop
        )

    def close(self) -> None:
        if self.loop is not None:
            self.loop.call_soon_threadsafe(self._stopped.set)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "server thread failed to exit"

    def __enter__(self) -> "ServerHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _terminal_frame(client: GSTClient, query_id) -> dict:
    """Read raw frames until ``query_id``'s terminal RESULT/ERROR.

    Tests that multiplex several queries on one blocking connection
    (unsupported by the public iterator API on purpose) read the wire
    directly through the client's decoder.
    """
    while True:
        frame = client._next_frame()
        if frame.get("id") == query_id and frame["type"] in ("result", "error"):
            return frame


@pytest.fixture
def graph():
    return generators.random_graph(
        150, 450, num_query_labels=6, label_frequency=5, seed=7
    )


def _assert_early_answer(frame):
    """A cold query cancelled before its search popped a state.

    Its anytime answer is the tree its label Dijkstras found, sent as a
    RESULT with ``status="cancelled"``.
    """
    assert frame["type"] == "result", frame
    assert frame["status"] == "cancelled"
    assert frame["tree"] is not None
    assert frame["stats"]["states_popped"] == 0


@pytest.fixture
def hanging_pruneddp(monkeypatch):
    """Swap pruneddp++ for a solver that wedges until cancelled."""
    real = solver_mod.ALGORITHMS["pruneddp++"]

    class Hanging(real):
        def run_search(self, context, prepared=None):
            while not self.budget.cancelled():
                time.sleep(0.005)
            return super().run_search(context, prepared)

    monkeypatch.setitem(solver_mod.ALGORITHMS, "pruneddp++", Hanging)
    return Hanging


class TestStreaming:
    def test_cold_query_streams_before_its_context_is_built(
        self, graph, tmp_path
    ):
        """A cold query's first PROGRESS comes from its label Dijkstras,
        so it was made before the context build (init_seconds) ended."""
        traces = str(tmp_path / "traces.jsonl")
        with ServerHarness(graph, trace_sink=traces) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                updates = list(client.solve_stream(["q0", "q1", "q2", "q3"]))
        with open(traces, encoding="utf-8") as handle:
            (record,) = [json.loads(line) for line in handle]
        first, final = updates[0], updates[-1]
        assert not first.final and final.final
        assert first.best_weight < float("inf")
        assert first.elapsed < record["stats"]["init_seconds"]

    def test_progress_frames_before_result(self, graph):
        """The acceptance criterion: a query over real TCP yields >= 2
        PROGRESS frames with non-increasing UB/LB ratio, then RESULT."""
        labels = ["q0", "q1", "q2", "q3"]
        with ServerHarness(graph, algorithm="basic") as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                updates = list(client.solve_stream(labels))
        progress = [u for u in updates if not u.final]
        assert len(progress) >= 2
        # The stream is the paper's anytime curve: UB never increases,
        # LB never decreases, so the ratio is non-increasing.
        for earlier, later in zip(updates, updates[1:]):
            assert later.ratio <= earlier.ratio + 1e-12
            assert later.best_weight <= earlier.best_weight + 1e-12
            assert later.lower_bound >= earlier.lower_bound - 1e-12
        final = updates[-1]
        assert final.final and final.status == "ok"
        assert updates[:-1] == progress  # RESULT strictly last
        # The streamed answer matches an in-process exact solve.
        expected = solve_gst(graph, labels, algorithm="basic")
        assert final.best_weight == pytest.approx(expected.weight)
        assert final.result["optimal"] is True

    def test_hello_frame_describes_server(self, graph):
        with ServerHarness(graph, max_inflight=2) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                hello = client.hello
        assert hello["graph"]["nodes"] == graph.num_nodes
        assert hello["max_inflight"] == 2

    def test_sequential_queries_on_one_connection(self, graph):
        with ServerHarness(graph, algorithm="basic") as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                first = client.solve(["q0", "q1"])
                second = client.solve(["q2", "q3"])
        assert first.final and second.final
        assert first.query_id != second.query_id

    def test_async_client(self, graph):
        labels = ["q0", "q1", "q2"]

        async def scenario():
            async with GSTServer(graph, algorithm="basic") as server:
                client = await AsyncGSTClient.connect(
                    "127.0.0.1", server.port
                )
                updates = []
                async for update in client.solve_stream(labels):
                    updates.append(update)
                await client.close()
                return updates

        updates = asyncio.run(scenario())
        assert len(updates) >= 3 and updates[-1].final

    def test_epsilon_override_stops_early(self, graph):
        """A per-query epsilon terminates at a proven (1+eps) gap."""
        with ServerHarness(graph, algorithm="basic") as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                final = client.solve(["q0", "q1", "q2"], epsilon=0.5)
        assert final.ratio <= 1.5 + 1e-9


STRESS_QUERIES = (
    ("q0", "q1", "q2"),
    ("q1", "q3", "q4"),
    ("q2", "q4", "q5"),
    ("q0", "q3", "q5", "q1"),
    ("q0", "q2", "q4"),
    ("q1", "q2", "q5", "q3"),
)


class TestProgressBursts:
    """PROGRESS points cross from the engine thread to the loop in bursts."""

    def test_stress_every_point_arrives_once_in_order(self, graph):
        # The streamed (UB, LB) sequence of every query must equal its
        # in-process progress trace, with every PROGRESS before the
        # query's RESULT: a lost, duplicated or reordered point fails.
        # A cold query's stream starts with the points its label
        # Dijkstras report, so every label is cached first: the traces
        # below and the served streams are then both warm.
        index = GraphIndex(graph)
        for label in sorted({label for labels in STRESS_QUERIES for label in labels}):
            index.cache.distances(label)
        expected = {
            labels: [
                (point.best_weight, point.lower_bound)
                for point in index.execute(
                    labels, algorithm="basic"
                ).result.trace
            ]
            for labels in STRESS_QUERIES
        }
        assert all(len(trace) >= 2 for trace in expected.values())
        in_flight, rounds = 4, 6
        # Time-bounded: past the deadline no connection starts a round
        # beyond its third.
        deadline = time.monotonic() + 3.0
        failures: list = []
        streams: list = []

        def connection(harness, offset: int) -> None:
            try:
                with GSTClient("127.0.0.1", harness.port) as client:
                    for round_no in range(rounds):
                        if round_no >= 3 and time.monotonic() > deadline:
                            break
                        sent = {}
                        for slot in range(in_flight):
                            labels = STRESS_QUERIES[
                                (offset + round_no + slot) % len(STRESS_QUERIES)
                            ]
                            query_id = f"{offset}-{round_no}-{slot}"
                            sent[query_id] = labels
                            client._send(query_frame(query_id, labels))
                        frames = {query_id: [] for query_id in sent}
                        open_ids = set(sent)
                        while open_ids:
                            frame = client._next_frame()
                            query_id = frame.get("id")
                            assert query_id in open_ids, frame
                            frames[query_id].append(frame)
                            if frame["type"] != "progress":
                                open_ids.discard(query_id)
                        for query_id, labels in sent.items():
                            streams.append((labels, frames[query_id]))
            except BaseException as exc:  # surfaced by the main thread
                failures.append(exc)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServerHarness(
                index,
                algorithm="basic",
                max_workers=(os.cpu_count() or 1) + 2,
                max_inflight=in_flight,
            ) as harness:
                before = harness.server.stats.progress_frames_sent
                threads = [
                    threading.Thread(target=connection, args=(harness, i))
                    for i in range(3)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                sent_progress = (
                    harness.server.stats.progress_frames_sent - before
                )
        finally:
            sys.setswitchinterval(switch_interval)
        assert not failures, failures
        assert len(streams) >= 3 * 3 * in_flight
        for labels, frames in streams:
            *progress, terminal = frames
            assert terminal["type"] == "result", terminal
            assert all(frame["type"] == "progress" for frame in progress)
            assert [
                (load_number(f["best_weight"]), f["lower_bound"])
                for f in progress
            ] == expected[labels]
        assert sent_progress == sum(len(frames) - 1 for _, frames in streams)

    def test_a_burst_is_one_write(self, graph, monkeypatch):
        """Points reported while the loop is busy go out in one write."""
        real = solver_mod.ALGORITHMS["basic"]
        solved = threading.Event()
        harness_box: list = []

        class BlocksTheLoop(real):
            def build_context(self):
                # Occupy the loop before the first point, which the cold
                # label Dijkstras report, so every point of the solve is
                # pending when it next runs.
                loop_blocked = threading.Event()

                def block() -> None:
                    loop_blocked.set()
                    solved.wait(10)

                harness_box[0].loop.call_soon_threadsafe(block)
                assert loop_blocked.wait(10)
                return super().build_context()

            def run_search(self, context, prepared=None):
                try:
                    return super().run_search(context, prepared)
                finally:
                    solved.set()

        monkeypatch.setitem(solver_mod.ALGORITHMS, "basic", BlocksTheLoop)
        writes: list = []
        real_send = server_mod._Connection.send

        def send(conn, frame_bytes: bytes) -> None:
            writes.append(FrameDecoder().feed(frame_bytes))
            real_send(conn, frame_bytes)

        monkeypatch.setattr(server_mod._Connection, "send", send)
        with ServerHarness(graph, algorithm="basic") as harness:
            harness_box.append(harness)
            with GSTClient("127.0.0.1", harness.port) as client:
                updates = list(client.solve_stream(["q0", "q1", "q2", "q3"]))
        progress_writes = [
            frames for frames in writes
            if any(frame["type"] == "progress" for frame in frames)
        ]
        assert len(progress_writes) == 1
        (burst,) = progress_writes
        assert [frame["type"] for frame in burst] == ["progress"] * len(burst)
        assert len(burst) == len(updates) - 1 >= 2
        assert writes[-1][-1]["type"] == "result"


@pytest.fixture
def future_server():
    """A socket server whose HELLO speaks the next protocol version."""
    hello = hello_frame(graph={}, algorithm="basic", max_inflight=1)
    frame = encode_frame(dict(hello, version=PROTOCOL_VERSION + 1))
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            with conn:
                conn.settimeout(5)
                conn.sendall(frame)
                try:
                    conn.recv(1)  # until the client hangs up
                except OSError:
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield listener.getsockname()[1]
    stop.set()
    thread.join(timeout=10)
    listener.close()


class TestHello:
    """Both clients refuse a HELLO of another protocol version."""

    def test_blocking_client_refuses_another_version(self, future_server):
        with pytest.raises(ProtocolError, match="protocol 2"):
            GSTClient("127.0.0.1", future_server, timeout=5)

    def test_async_client_refuses_another_version(self, future_server):
        async def connect():
            await AsyncGSTClient.connect("127.0.0.1", future_server)

        with pytest.raises(ProtocolError, match="protocol 2"):
            asyncio.run(connect())


class TestErrors:
    def test_infeasible_query_is_typed_error(self, graph):
        with ServerHarness(graph) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                with pytest.raises(RemoteQueryError) as excinfo:
                    client.solve(["q0", "no-such-label"])
        assert excinfo.value.code == "infeasible"

    def test_admission_rejection_is_typed_error(self, graph):
        from repro.service import AdmissionPolicy

        with ServerHarness(
            graph, admission=AdmissionPolicy(max_estimated_states=1)
        ) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                with pytest.raises(RemoteQueryError) as excinfo:
                    client.solve(["q0", "q1", "q2"])
        assert excinfo.value.code == "rejected"
        assert excinfo.value.details.get("estimated_states", 0) > 1

    def test_bad_request_empty_labels(self, graph):
        with ServerHarness(graph) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                client._send(query_frame(1, []))
                frame = _terminal_frame(client, 1)
        assert frame["type"] == "error"
        assert frame["code"] == "bad_request"

    @pytest.mark.parametrize("bad_id", [[1], {"a": 1}])
    def test_non_scalar_id_is_bad_request(self, graph, bad_id):
        with ServerHarness(graph, algorithm="basic") as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                client._send(query_frame(bad_id, ["q0", "q1"]))
                frame = _terminal_frame(client, bad_id)
                assert frame["type"] == "error"
                assert frame["code"] == "bad_request"
                # The connection survives and still answers.
                final = client.solve(["q0", "q1"])
        assert final.final and final.status == "ok"

    @pytest.mark.parametrize("bad_id", [[1], {"a": 1}])
    def test_non_scalar_cancel_is_a_noop(self, graph, hanging_pruneddp, bad_id):
        with ServerHarness(graph) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                client._send(query_frame(1, ["q0", "q1"]))
                assert _wait_until(
                    lambda: harness.server.inflight_queries == 1
                )
                client._send(cancel_frame(bad_id))
                # The connection is alive: a STATS round trip answers,
                # and the query in flight was not cancelled.
                stats = client.stats()
                assert stats["inflight"] == 1
                assert stats["server"]["queries_cancelled"] == 0
                client.cancel(1)
                frame = _terminal_frame(client, 1)
        _assert_early_answer(frame)

    @pytest.mark.parametrize("algorithm", ["nope", 5])
    def test_bad_algorithm_is_bad_request(self, graph, algorithm):
        with ServerHarness(graph) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                client._send(query_frame(1, ["q0", "q1"], algorithm=algorithm))
                frame = _terminal_frame(client, 1)
        assert frame["type"] == "error"
        assert frame["code"] == "bad_request"
        # The message names the choices.
        assert "'pruneddp++'" in frame["message"]
        assert "'auto'" in frame["message"]

    @pytest.mark.parametrize(
        "override", [{"epsilon": "x"}, {"max_states": [1]}, {"epsilon": -1}]
    )
    def test_bad_budget_is_bad_request(self, store_index, override):
        with ServerHarness(store_index) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                client._send(dict(query_frame(1, ["q0", "q1"]), **override))
                frame = _terminal_frame(client, 1)
        assert frame["type"] == "error"
        assert frame["code"] == "bad_request"

    @pytest.mark.parametrize(
        "payload",
        [
            b"[" * 200_000,
            b'{"type": "query", "id": ' + b"9" * 5000 + b"}",
            b'{"type": ["query"]}',
            b'{"type": {"query": 1}}',
        ],
        ids=["deep-nesting", "long-integer", "list-type", "object-type"],
    )
    def test_malformed_frame_is_a_protocol_error(self, graph, payload):
        """A frame the decoder cannot read gets ``ERROR code=protocol``
        and a hang-up, is counted, and leaves the server answering."""
        with ServerHarness(graph, algorithm="basic") as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                client._sock.sendall(struct.pack(">I", len(payload)) + payload)
                frame = client._next_frame()
                assert frame["type"] == "error" and frame["id"] is None
                assert frame["code"] == "protocol"
                with pytest.raises(ProtocolError, match="closed"):
                    client._next_frame()
            assert harness.server.stats.protocol_errors == 1
            with GSTClient("127.0.0.1", harness.port) as client:
                final = client.solve(["q0", "q1"])
        assert final.final and final.status == "ok"

    def test_overloaded_beyond_max_inflight(self, graph, hanging_pruneddp):
        with ServerHarness(graph, max_inflight=1, max_workers=4) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                client._send(query_frame(1, ["q0", "q1"]))
                assert _wait_until(
                    lambda: harness.server.stats.queries_received == 1
                )
                client._send(query_frame(2, ["q2", "q3"]))
                overloaded = _terminal_frame(client, 2)
                assert overloaded["type"] == "error"
                assert overloaded["code"] == "overloaded"
                # Unwedge query 1 so teardown is immediate.
                client.cancel(1)
                _assert_early_answer(_terminal_frame(client, 1))


class TestCancellation:
    def test_client_disconnect_cancels_server_side_search(
        self, graph, hanging_pruneddp
    ):
        """The acceptance criterion: a vanished client must not leave a
        worker wedged — its token fires and the engine stops within the
        resilience pop bound."""
        with ServerHarness(graph, max_workers=1) as harness:
            client = GSTClient("127.0.0.1", harness.port)
            client._send(query_frame(1, ["q0", "q1"]))
            assert _wait_until(lambda: harness.server.inflight_queries == 1)
            client.close()  # vanish mid-query
            assert _wait_until(
                lambda: harness.server.inflight_queries == 0, timeout=10
            ), "server-side search was not cancelled after disconnect"
            assert harness.server.stats.queries_cancelled >= 1

    def test_cancel_frame_stops_query(self, graph, hanging_pruneddp):
        with ServerHarness(graph) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                client._send(query_frame(1, ["q0", "q1"]))
                assert _wait_until(
                    lambda: harness.server.inflight_queries == 1
                )
                client.cancel(1)
                frame = _terminal_frame(client, 1)
        # The wedge was cancelled before the search found an incumbent:
        # the answer is the tree the cold label Dijkstras found.
        _assert_early_answer(frame)


class TestDrain:
    def test_drain_waits_for_idle_connection_handlers(self, graph, caplog):
        """drain() returns after every connection handler has finished."""

        async def scenario():
            server = GSTServer(graph)
            await server.start()
            client = await AsyncGSTClient.connect("127.0.0.1", server.port)
            await server.drain()
            closed = server.stats.connections_closed
            # Exit right away, as a caller that drains and returns does:
            # asyncio.run's teardown cancels, and logs, any handler still
            # running.  The client's socket closes in that teardown too.
            client._writer.close()
            return closed

        with caplog.at_level("DEBUG", logger="asyncio"):
            closed = asyncio.run(scenario())
        assert closed == 1
        assert not [
            record for record in caplog.records
            if "CancelledError" in record.getMessage()
            or (record.exc_info and record.exc_info[0] is asyncio.CancelledError)
        ]

    def test_drain_rejects_new_queries_and_cancels_inflight(
        self, graph, hanging_pruneddp
    ):
        with ServerHarness(graph) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                client._send(query_frame(1, ["q0", "q1"]))
                assert _wait_until(
                    lambda: harness.server.inflight_queries == 1
                )
                drain_future = harness.start_drain(grace=0.2)
                assert _wait_until(lambda: harness.server.draining)
                client._send(query_frame(2, ["q2", "q3"]))
                frames = {}
                while len(frames) < 2:
                    frame = client._next_frame()
                    if frame["type"] in ("result", "error"):
                        frames[frame["id"]] = frame
                drain_future.result(timeout=30)
        # The new query was refused; the wedged one was cancelled by
        # the grace deadline instead of blocking the drain forever.
        assert frames[2]["type"] == "error"
        assert frames[2]["code"] == "draining"
        _assert_early_answer(frames[1])

    def test_drain_flushes_trace_sink(self, graph, tmp_path):
        traces = str(tmp_path / "traces.jsonl")
        with ServerHarness(
            graph, algorithm="basic", trace_sink=traces
        ) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                client.solve(["q0", "q1"])
            harness.drain()
            assert harness.server.executor.trace_sink.closed
        with open(traces, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == 1
        assert records[0]["status"] == "ok"

    def test_drain_is_idempotent(self, graph):
        with ServerHarness(graph) as harness:
            harness.drain()
            harness.drain()
        assert harness.server.draining


class TestStatsAndMetrics:
    def test_stats_frame_matches_wire_observations(self, graph):
        """The no-drift criterion on the wire: the STATS frame's server
        counters and registry snapshot equal the frames this client
        actually observed — counted independently on the client side."""
        from repro.obs import instruments

        frames_counter = instruments.server_frames()
        baselines = {
            key: frames_counter.labels(direction=key[0], type=key[1]).value
            for key in (
                ("sent", "result"),
                ("sent", "progress"),
                ("received", "query"),
            )
        }

        queries = [["q0", "q1"], ["q2", "q3"], ["q0", "q4"]]
        with ServerHarness(graph, algorithm="basic") as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                observed_progress = observed_results = 0
                for labels in queries:
                    for update in client.solve_stream(labels):
                        if update.final:
                            observed_results += 1
                        else:
                            observed_progress += 1
                stats = client.stats()

        assert stats["type"] == "stats"
        server = stats["server"]
        assert server["queries_received"] == len(queries)
        assert server["results_sent"] == observed_results == len(queries)
        assert server["progress_frames_sent"] == observed_progress
        assert observed_progress >= 2
        assert server["stats_frames_sent"] == 1
        assert stats["inflight"] == 0

        # The registry snapshot carried by the frame tells the same
        # story as the client-side tally — exactly, not approximately.
        samples = {
            (s["labels"]["direction"], s["labels"]["type"]): s["value"]
            for s in stats["metrics"]["gst_server_frames_total"]["samples"]
        }
        deltas = {
            key: samples[key] - baselines[key] for key in baselines
        }
        assert deltas[("sent", "result")] == observed_results
        assert deltas[("sent", "progress")] == observed_progress
        assert deltas[("received", "query")] == len(queries)

    def test_server_stats_view_never_disagrees_with_registry(self, graph):
        """ServerStats is a thin view over gst_server_events_total, so
        the two can never drift: whatever the attribute reports is the
        registry child's delta since server construction."""
        from repro.obs import instruments

        events = instruments.server_events()
        with ServerHarness(graph, algorithm="basic") as harness:
            base = events.labels(event="results_sent").value
            with GSTClient("127.0.0.1", harness.port) as client:
                client.solve(["q0", "q1"])
            assert harness.server.stats.results_sent == 1
            assert events.labels(event="results_sent").value - base == 1

    def test_metrics_http_endpoint_serves_valid_exposition(self, graph):
        import urllib.request

        from repro.obs import parse_exposition

        with ServerHarness(
            graph, algorithm="basic", metrics_port=0
        ) as harness:
            assert harness.server.metrics_port not in (None, 0)
            with GSTClient("127.0.0.1", harness.port) as client:
                client.solve(["q0", "q1"])
            url = f"http://127.0.0.1:{harness.server.metrics_port}/metrics"
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain"
                )
                text = response.read().decode("utf-8")
        families = parse_exposition(text)  # must be valid Prometheus text
        assert families["gst_queries_total"]["type"] == "counter"
        total = sum(v for _, _, v in families["gst_queries_total"]["samples"])
        assert total >= 1
        assert "gst_server_events_total" in families

    def test_metrics_endpoint_unknown_path_is_404(self, graph):
        import urllib.error
        import urllib.request

        with ServerHarness(graph, metrics_port=0) as harness:
            url = f"http://127.0.0.1:{harness.server.metrics_port}/nope"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=10)
            # The error holds the response and its socket open.
            excinfo.value.close()
            assert excinfo.value.code == 404


class TestResultCacheHits:
    """A store-backed server answers hits on its event loop."""

    def test_hit_answered_while_every_worker_is_blocked(
        self, store_index, hanging_pruneddp
    ):
        labels = ["q0", "q1", "q2"]
        depth = instruments.executor_queue_depth()
        with ServerHarness(
            store_index, max_workers=1, max_inflight=1
        ) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                # pruneddp++ wedges, so the first solve uses pruneddp.
                first = client.solve(labels, algorithm="pruneddp")
                assert first.result["stats"]["states_popped"] > 0
                # Wedge the only worker thread and the only slot.
                client._send(query_frame("wedge", ["q3", "q4"]))
                assert _wait_until(
                    lambda: harness.server.inflight_queries == 1
                )
                queued = depth.value()
                client._send(query_frame("hit", labels, algorithm="pruneddp"))
                frame = client._next_frame()
                while frame["id"] == "wedge" and frame["type"] == "progress":
                    # The wedge's cold label Dijkstras report before
                    # its search wedges.
                    frame = client._next_frame()
                assert depth.value() == queued
                assert harness.server.inflight_queries == 1
                client.cancel("wedge")
                _assert_early_answer(_terminal_frame(client, "wedge"))
        # The first frame for the hit is its RESULT: no PROGRESS, and
        # no "overloaded" error though the one slot was taken.
        assert frame["type"] == "result" and frame["id"] == "hit"
        assert frame["stats"]["states_popped"] == 0
        # Same answer, under the same solver name ("PrunedDP").
        skip = ("id", "stats")
        answer = {k: v for k, v in frame.items() if k not in skip}
        expected = {k: v for k, v in first.result.items() if k not in skip}
        assert answer == expected

    def test_certified_hits_evict_a_corrupted_entry(self, store_index):
        import dataclasses

        labels = ["q0", "q1", "q2"]
        honest = solve_gst(store_index.graph, labels)
        assert honest.weight > 0
        lied = dataclasses.replace(honest, trace=[])
        lied.weight = honest.weight / 2.0
        assert store_index.result_cache.put(labels, "pruneddp++", lied)
        with ServerHarness(store_index, certify_cache_hits=True) as harness:
            with GSTClient("127.0.0.1", harness.port) as client:
                solved = client.solve(labels)
                served = list(client.solve_stream(labels))
        # The lie failed certification, was evicted, and the query was
        # solved for real; the honest answer written back then served
        # the repeat as a hit with no PROGRESS frame.
        assert store_index.result_cache.evictions == 1
        assert solved.result["stats"]["states_popped"] > 0
        assert solved.best_weight == pytest.approx(honest.weight)
        assert len(served) == 1 and served[0].final
        assert served[0].result["stats"]["states_popped"] == 0
        assert served[0].best_weight == pytest.approx(honest.weight)


class TestConstruction:
    def test_fleet_serves_final_answers_only(self, graph):
        # A callback cannot cross the process boundary, so a fleet
        # server answers with the RESULT frame alone.
        labels = ["q0", "q1", "q2"]
        with ServerHarness(graph, workers=1) as harness:
            assert harness.server.executor.isolation == "fleet"
            with GSTClient("127.0.0.1", harness.port) as client:
                updates = list(client.solve_stream(labels))
        assert len(updates) == 1 and updates[0].final
        assert updates[0].status == "ok"
        expected = solve_gst(graph, labels)
        assert updates[0].best_weight == pytest.approx(expected.weight)

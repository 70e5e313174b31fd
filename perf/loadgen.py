"""Drive a real ``repro serve`` process from one asyncio loop.

:class:`ServerProcess` launches ``python -m repro serve`` and times its
start; :func:`drive` runs a closed loop over at most two
:class:`~repro.server.AsyncGSTClient` connections — each connection
sends its next query only after the previous one's RESULT (or ERROR)
arrived — and :class:`Judge` checks every answer as it comes back.
Both sample the core's speed with a :class:`~speed.SpeedProbe` while
they wait, from the server's spawn to the last answer, and read every
instant they time on the probe's :class:`~speed.CpuClock` as well as
on the wall clock.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench import RATIO_CHECKPOINTS
from repro.core.result import GSTResult, ProgressPoint, SearchStats
from repro.core.tree import SteinerTree
from repro.errors import ProtocolError, RemoteQueryError
from repro.server import AsyncGSTClient, GSTClient
from repro.server import protocol
from repro.server.protocol import load_number
from repro.verify import certify_result

from speed import SpeedProbe
from workloads import INFEASIBLE, Request

__all__ = [
    "HarnessError",
    "ServerProcess",
    "Sample",
    "Judge",
    "Phase",
    "drive",
    "canonical_answer",
]

HOST = "127.0.0.1"

_BANNER = re.compile(r"^serving .* on (\S+):(\d+) ")
_START_TIMEOUT = 120.0
_DRAIN_TIMEOUT = 120.0
# A speed sample (about 1 ms of CPU) this often during the timed phase.
_PROBE_PERIOD = 0.1


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``python -m repro serve`` subprocess.

    Its set-up runs from ``spawned_at`` to ``ready_at`` (CPU-clock
    instants), when the ``serving ... on host:port`` line came, which
    the server prints once it accepts connections.  From its spawn to
    its end, the server and the workers it forked before that line
    are watched by the probe's CPU clock.
    """

    def __init__(self, root: str, stem: str, extra: Sequence[str], log_path: str,
                 probe: SpeedProbe) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--graph", stem, "--host", HOST, "--port", "0", *extra,
        ]
        self._log = open(log_path, "a", encoding="utf-8")
        self._cpu = probe.cpu
        self.spawned_at = self._cpu.now()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self._pids = [self.proc.pid]
        self._cpu.watch(self.proc.pid)
        try:
            deadline = started + _START_TIMEOUT
            while True:
                # While the server starts, ``probe`` samples the speed.
                ready, _, _ = select.select([self.proc.stdout], [], [], _PROBE_PERIOD)
                if ready or time.perf_counter() >= deadline:
                    break
                probe.sample()
            line = self.proc.stdout.readline() if ready else ""
            self._pids = _process_tree(self.proc.pid)
            for pid in self._pids:
                self._cpu.watch(pid)
            self.ready_at = self._cpu.now()
            match = _BANNER.match(line)
            if match is None:
                raise HarnessError(
                    f"serve did not announce its port (got {line!r}); "
                    f"see {log_path}"
                )
            self.port = int(match.group(2))
            # serve prints its banner before installing its SIGTERM
            # handler; it answers a connection only after, so one HELLO
            # makes a SIGTERM from stop() a drain rather than a kill.
            GSTClient(HOST, self.port, timeout=_START_TIMEOUT).close()
        except BaseException:
            self.kill()
            raise

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus every process it forked, in MiB."""
        return sum(_vm_hwm_kib(pid) for pid in _process_tree(self.proc.pid)) / 1024.0

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.communicate(timeout=_DRAIN_TIMEOUT)
            return self.proc.returncode
        except subprocess.TimeoutExpired:
            self.kill()
            return -signal.SIGKILL
        finally:
            self._ended()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        self._ended()

    def _ended(self) -> None:
        for pid in self._pids:
            self._cpu.retire(pid)
        self._log.close()


def _process_tree(root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# The client side
# ----------------------------------------------------------------------
class _TapClient(AsyncGSTClient):
    """An AsyncGSTClient that records every frame it reads."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.frames: List[dict] = []

    async def _next_frame(self) -> dict:
        frame = await super()._next_frame()
        self.frames.append(frame)
        return frame


@dataclass
class Sample:
    """One timed request as the client saw it, after judging.

    ``start`` and ``end`` are wall-clock instants, ``cpu_start`` and
    ``cpu_end`` the same instants on the CPU clock.  ``ttfp`` and
    ``ttr`` place a frame of the stream on the request: the share of
    the request's wall time that had passed when the server made it
    (see :func:`_made_at`).
    """

    query_id: int
    labels: Tuple[str, ...]
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    ok: bool = True
    problems: List[str] = field(default_factory=list)
    ttfp: Optional[float] = None
    ttr: Dict[float, float] = field(default_factory=dict)
    frame_count: int = 0
    result_bytes: Optional[int] = None
    answer: Optional[str] = None  # canonical answer, feasible requests only


def canonical_answer(weight: float, edges) -> str:
    """An answer's canonical form: weight plus the sorted edge triples."""
    return json.dumps(
        {"weight": weight, "edges": sorted(tuple(edge) for edge in edges)},
        sort_keys=True,
    )


class Judge:
    """The correctness gate, applied to every request as it completes.

    * a feasible request must get RESULT ``status=ok``, ``optimal``,
      ratio 1, with a tree that :func:`repro.verify.certify_result`
      accepts against the reloaded graph (certified once per distinct
      answer, together with the PROGRESS trace that preceded it);
    * the ratios along the stream never increase, and no frame of a
      query arrives after its RESULT;
    * an expected-infeasible request must get ``ERROR code=infeasible``;
    * a label set must get the same weight every time it is asked.
    """

    def __init__(self, graph, keep_frames: int = 0) -> None:
        self.graph = graph
        self._certified = set()
        self._weights: Dict[Tuple[str, ...], float] = {}
        self._finished = set()
        self.keep_frames = keep_frames
        self.frames: List[dict] = []

    def judge(self, sample: Sample, request: Request, frames: List[dict],
              error: Optional[str]) -> Sample:
        """Check ``sample``'s answer: its stream ``frames`` and ERROR code."""
        query_id = sample.query_id
        sample.frame_count = len(frames)
        problems = sample.problems
        if len(self.frames) < self.keep_frames:
            self.frames.extend(frames)
        stale = {f.get("id") for f in frames if f.get("id") != query_id}
        if stale & self._finished:
            problems.append(f"frame for an answered query arrived later: {sorted(stale)}")
        self._finished.add(query_id)
        own = [f for f in frames if f.get("id") == query_id]
        if error is not None:
            if request.expect != INFEASIBLE or error != "infeasible":
                problems.append(f"ERROR {error} for {request.expect} request")
        elif request.expect == INFEASIBLE:
            problems.append("expected ERROR code=infeasible, got RESULT")
        else:
            self._judge_stream(sample, request, own)
        sample.ok = not problems
        return sample

    def _judge_stream(self, sample: Sample, request: Request, own) -> None:
        problems = sample.problems
        kinds = [f["type"] for f in own]
        if not kinds or kinds[-1] != protocol.RESULT or kinds.count(protocol.RESULT) != 1:
            problems.append(f"stream is not PROGRESS* RESULT: {kinds}")
            return
        if any(kind != protocol.PROGRESS for kind in kinds[:-1]):
            problems.append(f"unexpected frame in stream: {kinds}")
            return
        result = own[-1]
        previous = math.inf
        for frame in own:
            ratio = load_number(frame.get("ratio"))
            weight = load_number(frame.get("best_weight", frame.get("weight")))
            if ratio > previous + 1e-9:
                problems.append(f"ratio rose from {previous} to {ratio}")
            previous = min(previous, ratio)
            made_at = _made_at(sample, frame, result)
            if sample.ttfp is None and weight < math.inf and ratio < math.inf:
                sample.ttfp = made_at
            for checkpoint in RATIO_CHECKPOINTS:
                if checkpoint not in sample.ttr and ratio <= checkpoint + 1e-12:
                    sample.ttr[checkpoint] = made_at
        sample.result_bytes = len(protocol.encode_frame(result))
        if result.get("status") != "ok" or not result.get("optimal") \
                or load_number(result.get("ratio")) != 1.0:
            problems.append(
                f"not a proven optimum: status={result.get('status')} "
                f"optimal={result.get('optimal')} ratio={result.get('ratio')}"
            )
        tree = result.get("tree")
        if tree is None:
            problems.append("RESULT carries no tree")
            return
        weight = load_number(result["weight"])
        sample.answer = canonical_answer(weight, tree["edges"])
        known = self._weights.setdefault(request.labels, weight)
        if known != weight:
            problems.append(f"weight {weight} differs from earlier {known}")
        if sample.answer in self._certified:
            return
        answer = GSTResult(
            algorithm=result["algorithm"],
            labels=request.labels,
            tree=SteinerTree([tuple(e) for e in tree["edges"]], nodes=tree["nodes"]),
            weight=weight,
            lower_bound=load_number(result["lower_bound"]),
            optimal=bool(result["optimal"]),
            stats=SearchStats(cancelled=bool(result["stats"].get("cancelled"))),
            trace=[
                ProgressPoint(
                    float(f["elapsed"]),
                    load_number(f["best_weight"]),
                    load_number(f["lower_bound"]),
                )
                for f in own[:-1]
            ],
        )
        certificate = certify_result(self.graph, answer, labels=request.labels)
        if certificate.ok:
            self._certified.add(sample.answer)
        else:
            problems.append(certificate.summary())


def _made_at(sample: Sample, frame: dict, result: dict) -> float:
    """When the server made ``frame``, as a share of the request's wall time.

    A PROGRESS frame carries the engine's ``elapsed`` time, on the same
    scale as the RESULT's ``stats.total_seconds``; the RESULT is placed
    at the end of the request, so a PROGRESS frame is placed that much
    earlier.  When the client reads a PROGRESS frame depends on whether
    the scheduler lets it preempt the server (under SCHED_BATCH or
    SCHED_IDLE it does not); when the server made it does not.
    """
    if frame is result:
        return 1.0
    wall = sample.end - sample.start
    before_end = load_number(result["stats"]["total_seconds"]) - load_number(frame["elapsed"])
    return max(0.0, 1.0 - before_end / wall)


async def _exchange(client: _TapClient, query_id, labels) -> Optional[str]:
    """Send one QUERY and read to its RESULT; returns the ERROR code."""
    try:
        async for _ in client.solve_stream(labels, query_id=query_id):
            pass
    except RemoteQueryError as exc:
        return exc.code
    return None


@dataclass
class Phase:
    """What one closed-loop phase produced.

    The timed phase runs from ``started``, the first request, to
    ``ended``, the last answer (wall-clock instants; ``cpu_started``
    and ``cpu_ended`` on the CPU clock); the server fields are filled
    in by the caller that owns the server.
    """

    samples: List[Sample]
    started: float
    ended: float
    cpu_started: float
    cpu_ended: float
    transport_failures: List[str]
    server: Optional[ServerProcess] = None
    peak_rss_mb: float = 0.0
    frames: List[dict] = field(default_factory=list)


async def _drive(port: int, connections: int, warmup, requests: Iterator[Request],
                 seconds: float, judge: Judge, on_warm, probe: SpeedProbe) -> Phase:
    samples: List[Sample] = []
    failures: List[str] = []
    probing_done = asyncio.Event()

    async def probing() -> None:
        while not probing_done.is_set():
            probe.sample()
            try:
                await asyncio.wait_for(probing_done.wait(), _PROBE_PERIOD)
            except asyncio.TimeoutError:
                pass

    prober = asyncio.ensure_future(probing())
    cpu = probe.cpu
    clients = []
    try:
        for _ in range(connections):
            clients.append(await _TapClient.connect(HOST, port))
        for number, round_ in enumerate(warmup):
            codes = await asyncio.gather(*(
                _exchange(client, f"warm-{number}-{lane}", labels)
                for lane, (client, labels) in enumerate(zip(clients, round_))
            ))
            if any(code is not None for code in codes):
                raise HarnessError(f"warm-up query failed: {codes}")
        on_warm()
        ids = itertools.count()
        # The client keeps every sample; a full collection over them
        # would stall a request mid-flight, so none runs while timing.
        gc.collect()
        gc.disable()
        started, cpu_started = time.perf_counter(), cpu.now()
        deadline = started + seconds

        async def lane(client: _TapClient) -> None:
            while time.perf_counter() < deadline:
                request = next(requests, None)
                if request is None:
                    return
                query_id = next(ids)
                client.frames.clear()
                start, cpu_start = time.perf_counter(), cpu.now()
                try:
                    error = await _exchange(client, query_id, request.labels)
                except (ProtocolError, ConnectionError, OSError) as exc:
                    failures.append(f"query {query_id}: {type(exc).__name__}: {exc}")
                    return  # the connection is gone
                sample = Sample(query_id, request.labels, start, time.perf_counter(),
                                cpu_start, cpu.now())
                samples.append(judge.judge(sample, request, client.frames, error))

        await asyncio.gather(*(lane(client) for client in clients))
        ended, cpu_ended = time.perf_counter(), cpu.now()
    finally:
        gc.enable()
        probing_done.set()
        await prober
        for client in clients:
            await client.close()
    return Phase(samples, started, ended, cpu_started, cpu_ended, failures)


def drive(port: int, connections: int, warmup, requests: Iterator[Request],
          seconds: float, judge: Judge, on_warm, probe: SpeedProbe) -> Phase:
    """Warm up untimed, call ``on_warm()``, then run the closed loop.

    ``probe`` samples the core's speed every :data:`_PROBE_PERIOD`
    seconds from the first connection to the last answer.
    """
    return asyncio.run(
        _drive(port, connections, warmup, requests, seconds, judge, on_warm, probe)
    )


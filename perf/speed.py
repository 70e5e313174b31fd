"""The benchmark's own CPU time, the core's speed, and a nominal clock.

Two things other tenants of a shared host do to a timing, and what
this module does about each:

* **They take the core.**  Any process on the core the benchmark runs
  on delays the client and the server while it runs, by as much as
  the whole latency.  So every duration is read on a
  :class:`CpuClock`: the CPU seconds the benchmark's own processes
  (the client, each server and its fleet workers) have run.  With all
  of them on one core and nothing else there, a CPU second is a wall
  second; time the core spends on anyone else does not count.
* **They slow the core down**, by as much as 2x from one second to
  the next, through the caches and memory they share with it.  So
  while it runs, :class:`SpeedProbe` times a fixed pure-Python task on
  that core again and again.  The task is a heap-and-dict Dijkstra,
  the kind of work the server does, run twice: on a small graph that
  stays in the core's caches and on a large one that does not, since
  other tenants slow both kinds of work, but not equally.  It calls
  nothing of the program.  Its CPU time over :data:`NOMINAL_S` is the
  core's slowdown at that moment.

:meth:`SpeedProbe.clock` turns the samples into a :class:`NominalClock`
over the CPU clock that runs at the core's speed: a nominal second is
the time the core takes for work that takes one second on a core of
its own where the task runs in exactly ``NOMINAL_S``.  A duration read
on it stays the same for the same program whatever the host's load,
and a change to the program still moves it.
"""

from __future__ import annotations

import bisect
import heapq
import random
import statistics
import time
from typing import Dict, List, Sequence, Tuple

__all__ = ["NOMINAL_S", "CpuClock", "SpeedProbe", "NominalClock"]

# The task's CPU time on the nominal core.
NOMINAL_S = 0.002

# Nodes each Dijkstra settles, and the two graphs' sizes.
_SETTLES = 300
_SMALL_NODES = 400
_LARGE_NODES = 40000
_DEGREE = 4

# A sample's slowdown is the median of this many samples around it.
_SMOOTHING = 11

# Linux's clock id for the CPU time of a whole process (all its threads).
_CPUCLOCK_SCHED = 2

_graphs: List[List[List[Tuple[int, float]]]] = []


class CpuClock:
    """CPU seconds run by this process and the processes it watches.

    The speed probe's own runs are left out (:meth:`exclude`).  A
    watched process that has ended keeps its last reading, so the
    clock never runs backwards; :meth:`retire` stops reading a process
    before its pid can be reused.
    """

    def __init__(self) -> None:
        self._readings: Dict[int, float] = {}  # pid -> last CPU reading
        self._retired = 0.0
        self._excluded = 0.0

    def watch(self, pid: int) -> None:
        """Count ``pid``'s CPU time, all of it since the process began."""
        self._readings.setdefault(pid, 0.0)

    def retire(self, pid: int) -> None:
        """Stop reading ``pid`` (it has ended); its last reading stays."""
        self._retired += self._readings.pop(pid, 0.0)

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` of this process's CPU time out from now on."""
        self._excluded += seconds

    def now(self) -> float:
        total = time.process_time() - self._excluded + self._retired
        for pid in self._readings:
            try:
                self._readings[pid] = time.clock_gettime(((~pid) << 3) | _CPUCLOCK_SCHED)
            except OSError:
                pass  # it has ended; its last reading stands
            total += self._readings[pid]
        return total


def _make_graph(nodes: int, rng: random.Random) -> List[List[Tuple[int, float]]]:
    return [[(rng.randrange(nodes), rng.random()) for _ in range(_DEGREE)]
            for _ in range(nodes)]


def _dijkstra(adjacency: Sequence[Sequence[Tuple[int, float]]], source: int) -> int:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    settled = 0
    while heap and settled < _SETTLES:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        settled += 1
        for u, w in adjacency[v]:
            nd = d + w
            if nd < dist.get(u, float("inf")):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return settled


class SpeedProbe:
    """Samples of the reference task's CPU time, taken as the run goes.

    Each sample is stamped on ``cpu``, which leaves the task's own CPU
    time out.
    """

    def __init__(self, cpu: CpuClock) -> None:
        if not _graphs:
            rng = random.Random(20160626)
            _graphs.extend(_make_graph(n, rng) for n in (_SMALL_NODES, _LARGE_NODES))
        self.cpu = cpu
        self._sources = random.Random(1)
        self.samples: List[Tuple[float, float]] = []  # (CPU instant, slowdown)

    def sample(self) -> None:
        """Run the task once and record the core's slowdown."""
        sources = [self._sources.randrange(len(graph)) for graph in _graphs]
        at = self.cpu.now()
        started = time.thread_time()
        for graph, source in zip(_graphs, sources):
            _dijkstra(graph, source)
        spent = time.thread_time() - started
        self.cpu.exclude(spent)
        self.samples.append((at, spent / NOMINAL_S))

    def clock(self) -> "NominalClock":
        """The clock the samples so far describe."""
        if not self.samples:
            raise ValueError("no speed samples taken")
        samples = sorted(self.samples)
        half = _SMOOTHING // 2
        return NominalClock([
            (at, statistics.median(s for _, s in samples[max(0, i - half):i + half + 1]))
            for i, (at, _) in enumerate(samples)
        ])


class NominalClock:
    """CPU-clock instants mapped to nominal seconds.

    Between two samples the clock runs at the earlier one's speed;
    before the first and after the last, at theirs.
    """

    def __init__(self, samples: List[Tuple[float, float]]) -> None:
        self._times = [at for at, _ in samples]
        self._slowdowns = [slowdown for _, slowdown in samples]
        self._elapsed = [0.0]
        for (at, slowdown), (after, _) in zip(samples, samples[1:]):
            self._elapsed.append(self._elapsed[-1] + (after - at) / slowdown)

    def at(self, instant: float) -> float:
        """Nominal seconds from the first sample to ``instant``."""
        i = max(0, bisect.bisect_right(self._times, instant) - 1)
        return self._elapsed[i] + (instant - self._times[i]) / self._slowdowns[i]

    def span(self, start: float, end: float) -> float:
        """Nominal seconds between two CPU-clock instants."""
        return self.at(end) - self.at(start)

    def slowdown(self) -> float:
        """The median slowdown over the samples."""
        return statistics.median(self._slowdowns)

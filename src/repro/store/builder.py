"""Offline precompute builder: materialize per-label distance tables.

Section 3.1's preprocessing — one multi-source Dijkstra per query label
— is the dominant fixed cost of every solve, and on a serving workload
the same hot labels recur query after query.  The builder runs those
Dijkstras *once, offline*, for the top-K hottest labels (ranked by
workload occurrence when a workload is given, else by group size) and
serializes the resulting ``dist(v, ṽ_x)`` / parent arrays plus label
statistics to a versioned store directory that any later process can
warm-load.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, List, Optional, Sequence

from ..graph.graph import Graph
from ..graph.shortest_paths import multi_source_dijkstra
from .format import pack_label_table, write_header, write_record
from .manifest import Manifest

__all__ = ["BuildReport", "select_labels", "build_store", "resolve_label",
           "DISTANCES_NAME", "RESULTS_NAME"]

DISTANCES_NAME = "distances.bin"
RESULTS_NAME = "results.bin"

DEFAULT_TOP_K = 64


@dataclass
class BuildReport:
    """What one ``build_store`` run produced."""

    path: str
    labels: List[str] = field(default_factory=list)
    seconds: float = 0.0
    bytes_written: int = 0

    def summary(self) -> str:
        return (
            f"store {self.path}: {len(self.labels)} label tables, "
            f"{self.bytes_written / 1024:.1f} KiB in {self.seconds:.2f}s"
        )


def resolve_label(graph: Graph, text: str) -> Optional[Hashable]:
    """A stored (string) label → the graph's own label, ``None`` if absent.

    Stores keep labels as strings; a graph with non-string labels (ints
    from a generator, say) is matched by ``str(label)``.
    """
    if graph.label_frequency(text) > 0:
        return text
    for label in graph.all_labels():
        if str(label) == text:
            return label
    return None


def select_labels(
    graph: Graph,
    top_k: int,
    workload: Optional[Sequence[Iterable[Hashable]]] = None,
) -> List[str]:
    """The top-K hottest labels worth precomputing.

    With a workload (a sequence of queries), labels are ranked by how
    often queries mention them; ties — and the no-workload case — fall
    back to group size (bigger groups cost more per Dijkstra *and*
    recur more in realistic keyword traffic).  Labels absent from the
    graph are skipped: there is nothing to precompute for them.
    """
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    heat: Counter = Counter()
    if workload is not None:
        for query in workload:
            for label in set(str(l) for l in query):
                heat[label] += 1
    candidates = [str(label) for label in graph.all_labels()]
    candidates.sort(
        key=lambda label: (-heat[label], -graph.label_frequency(label), label)
    )
    if workload is not None:
        # Precompute only what the workload touches, padded with the
        # globally biggest groups if the workload is narrower than K.
        hot = [label for label in candidates if heat[label] > 0]
        cold = [label for label in candidates if heat[label] == 0]
        candidates = hot + cold
    return candidates[:top_k]


def build_store(
    graph: Graph,
    path: str,
    *,
    top_k: int = DEFAULT_TOP_K,
    labels: Optional[Iterable[Hashable]] = None,
    workload: Optional[Sequence[Iterable[Hashable]]] = None,
    graph_stem: Optional[str] = None,
) -> BuildReport:
    """Materialize a store directory for ``graph`` at ``path``.

    ``labels`` pins the exact label set; otherwise :func:`select_labels`
    picks the top ``top_k`` (guided by ``workload`` when given).
    ``graph_stem`` records where the graph files live so
    ``GraphIndex.open(path)`` can reload the graph without being handed
    one.  Returns a :class:`BuildReport`.
    """
    started = time.perf_counter()
    if labels is not None:
        chosen = []
        for label in labels:
            text = str(label)
            if resolve_label(graph, text) is None:
                raise ValueError(f"label {label!r} occurs on no node")
            chosen.append(text)
    else:
        chosen = select_labels(graph, top_k, workload)

    os.makedirs(path, exist_ok=True)
    bytes_written = 0
    with open(os.path.join(path, DISTANCES_NAME), "wb") as handle:
        write_header(handle)
        for label in chosen:
            members = list(graph.nodes_with_label(resolve_label(graph, label)))
            dist, parent = multi_source_dijkstra(graph, members)
            bytes_written += write_record(
                handle, pack_label_table(label, dist, parent)
            )
    Manifest.for_graph(graph, chosen, graph_stem=graph_stem).save(path)
    return BuildReport(
        path=path,
        labels=chosen,
        seconds=time.perf_counter() - started,
        bytes_written=bytes_written,
    )


"""Store manifest: snapshot fingerprint + artifact table of contents.

The manifest is the store's trust anchor.  Distance tables index nodes
by dense integer id, so loading them against any *other* graph — one
more node, one reweighted edge, one moved label — would silently
corrupt every downstream bound and answer.  The manifest therefore
records the graph's one identity, the frozen snapshot's
:attr:`~repro.graph.csr.CSRGraph.fingerprint` (a sha256 over the flat
arrays and every label group, in construction order), and every load
path compares it against the live graph before a single array is
trusted.

The manifest itself is human-readable JSON (`manifest.json`) so
operators can inspect what a store holds; every validation failure —
unreadable JSON, a missing key, a value of the wrong type — raises a
typed :class:`~repro.errors.StoreError` subclass.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import StoreCorruptError, StoreVersionError
from ..graph.graph import Graph
from .format import FORMAT_VERSION

__all__ = ["Manifest", "MANIFEST_NAME"]

MANIFEST_NAME = "manifest.json"

# The JSON type of every key ``Manifest.load`` reads (bools are no ints).
_TYPES = {
    "snapshot_fingerprint": str,
    "num_nodes": int,
    "num_edges": int,
    "num_labels": int,
    "labels": list,
    "label_frequencies": dict,
    "graph_stem": (str, type(None)),
    "created_by": str,
}


@dataclass
class Manifest:
    """What one store directory contains, and for which graph."""

    snapshot_fingerprint: str
    num_nodes: int
    num_edges: int
    num_labels: int
    labels: List[str] = field(default_factory=list)
    label_frequencies: Dict[str, int] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION
    graph_stem: Optional[str] = None
    created_by: str = "repro.store"

    REQUIRED = ("snapshot_fingerprint", "num_nodes", "num_edges",
                "num_labels", "format_version")

    @classmethod
    def for_graph(
        cls,
        graph: Graph,
        labels: List[str],
        *,
        graph_stem: Optional[str] = None,
    ) -> "Manifest":
        return cls(
            snapshot_fingerprint=graph.freeze().fingerprint,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            num_labels=graph.num_labels,
            labels=list(labels),
            label_frequencies={
                label: graph.label_frequency(label) for label in labels
            },
            graph_stem=graph_stem,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "snapshot_fingerprint": self.snapshot_fingerprint,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_labels": self.num_labels,
            "labels": list(self.labels),
            "label_frequencies": dict(self.label_frequencies),
            "graph_stem": self.graph_stem,
            "created_by": self.created_by,
        }

    def save(self, directory: str) -> str:
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, directory: str) -> "Manifest":
        """Read and validate ``manifest.json`` (fail-closed)."""
        path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise StoreCorruptError(f"cannot read store manifest: {exc}") from None
        except ValueError as exc:
            raise StoreCorruptError(f"{path}: malformed manifest JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise StoreCorruptError(f"{path}: manifest is not a JSON object")
        missing = [key for key in cls.REQUIRED if key not in raw]
        if missing:
            raise StoreCorruptError(
                f"{path}: manifest missing required keys {missing}"
            )
        version = raw["format_version"]
        if version != FORMAT_VERSION:
            raise StoreVersionError(
                f"{path}: store format version {version} is not supported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        fields = {key: raw[key] for key in _TYPES if key in raw}
        for key, value in fields.items():
            if not isinstance(value, _TYPES[key]) or isinstance(value, bool):
                raise StoreCorruptError(
                    f"{path}: manifest field {key!r} has wrong type "
                    f"{type(value).__name__}"
                )
        if not all(isinstance(label, str) for label in fields.get("labels", ())):
            raise StoreCorruptError(f"{path}: manifest labels have wrong type")
        if not all(
            type(count) is int
            for count in fields.get("label_frequencies", {}).values()
        ):
            raise StoreCorruptError(
                f"{path}: manifest label_frequencies have wrong type"
            )
        return cls(**fields)

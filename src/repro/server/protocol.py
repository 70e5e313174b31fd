"""The wire protocol of :mod:`repro.server`: length-prefixed NDJSON.

Every frame on the wire is

``[4-byte big-endian payload length][payload]``

where the payload is one UTF-8 JSON object terminated by ``\\n`` — so a
capture is simultaneously machine-parseable (by length) and
human-greppable (by line).  Each object carries a mandatory ``type``
field; everything else is frame-specific.

Frame types
-----------
``HELLO``     server → client, once per connection: protocol version,
              graph statistics, the default algorithm, and the
              per-connection concurrency limit.
``QUERY``     client → server: ``id``, ``labels``, and optional
              ``algorithm`` / ``epsilon`` / ``time_limit`` /
              ``max_states`` budget overrides.
``PROGRESS``  server → client, streamed: one frame per improved
              incumbent — ``(elapsed, best_weight, lower_bound,
              ratio)``, the paper's UB/LB curve over TCP.
``RESULT``    server → client, terminal per query: final weight,
              bounds, the answer tree, and engine counters.  ``status``
              is ``"ok"`` or ``"cancelled"`` (a cancelled query still
              carries its best incumbent — the progressive contract).
``ERROR``     server → client, terminal per query (or, with
              ``id=None``, fatal for the connection): a stable ``code``
              plus a human-readable ``message``.
``CANCEL``    client → server: fire the server-side
              :class:`~repro.core.budget.CancellationToken` of query
              ``id``; the engine stops within its bounded pop interval.
``STATS``     client → server: ask for the server's counters; the
              server answers with a STATS frame echoing the request
              ``id`` and carrying ``server`` (the per-server
              ``ServerStats`` dict), ``inflight``, and ``metrics``
              (the process-wide registry snapshot — see
              :mod:`repro.obs`).

Safety: frames larger than ``max_frame_bytes`` are rejected *from the
length prefix alone* — the codec never buffers an attacker-controlled
amount of memory.  :meth:`FrameDecoder.feed` returns frames or raises
a typed :class:`~repro.errors.ProtocolError`, and nothing else: a bad
length, a payload that is not UTF-8 JSON (deep nesting and an integer
past Python's int-string limit included), a payload that is not an
object, and a ``type`` that is not one of the frame-type strings.

:class:`FrameDecoder` is incremental: ``feed()`` it whatever chunk the
transport produced (one byte or one megabyte) and it returns every
complete frame, keeping partial bytes buffered for the next call.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterable, List, Optional

from ..errors import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "HELLO",
    "QUERY",
    "PROGRESS",
    "RESULT",
    "ERROR",
    "CANCEL",
    "STATS",
    "FRAME_TYPES",
    "encode_frame",
    "FrameDecoder",
    "hello_frame",
    "query_frame",
    "progress_frame",
    "result_frame",
    "error_frame",
    "cancel_frame",
    "stats_frame",
    "dump_number",
    "load_number",
]

PROTOCOL_VERSION = 1

# Hard ceiling on one frame's payload.  Large enough for any realistic
# answer tree (a 1 MiB JSON tree is ~20k edges), small enough that a
# hostile length prefix cannot make the decoder reserve real memory.
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size

HELLO = "hello"
QUERY = "query"
PROGRESS = "progress"
RESULT = "result"
ERROR = "error"
CANCEL = "cancel"
STATS = "stats"
FRAME_TYPES = frozenset({HELLO, QUERY, PROGRESS, RESULT, ERROR, CANCEL, STATS})

_INF = float("inf")

# json.dumps(frame, sort_keys=True) builds a new JSONEncoder per call;
# this one is built once and gives the same bytes.  encode() keeps no
# state between calls, so threads may share it.
_ENCODER = json.JSONEncoder(sort_keys=True)


def dump_number(value: Optional[float]):
    """JSON-safe float: ``inf`` crosses the wire as the string ``"inf"``."""
    if isinstance(value, float) and value == _INF:
        return "inf"
    return value


def load_number(value) -> Optional[float]:
    """Inverse of :func:`dump_number` (``None`` stays ``None``)."""
    if value is None:
        return None
    if value == "inf":
        return _INF
    return float(value)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_frame(frame: Dict[str, Any], *, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one frame dict to its length-prefixed wire form."""
    frame_type = frame.get("type")
    if frame_type not in FRAME_TYPES:
        raise ProtocolError(f"cannot encode frame with type {frame_type!r}")
    try:
        payload = _ENCODER.encode(frame).encode("utf-8") + b"\n"
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"frame is not JSON-serializable: {exc}") from None
    if len(payload) > max_frame_bytes:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    return _HEADER.pack(len(payload)) + payload


# ----------------------------------------------------------------------
# Incremental decoding
# ----------------------------------------------------------------------
class FrameDecoder:
    """Incremental length-prefixed NDJSON decoder.

    Feed it transport chunks of any size; it yields every complete
    frame and keeps the remainder buffered.  All violations raise
    :class:`~repro.errors.ProtocolError`, and no other exception
    escapes — after which the decoder is poisoned and must be
    discarded (the connection is dead anyway).
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        if max_frame_bytes <= 0:
            raise ValueError("max_frame_bytes must be positive")
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    def __len__(self) -> int:
        """Bytes currently buffered (partial frame awaiting more data)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Consume a chunk; return every frame it completed (maybe none)."""
        self._buffer.extend(data)
        frames: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < HEADER_BYTES:
                return frames
            (length,) = _HEADER.unpack_from(self._buffer)
            # The guard fires on the prefix alone: garbage bytes decode
            # to some huge length and are rejected before any buffering.
            if length == 0 or length > self.max_frame_bytes:
                raise ProtocolError(
                    f"frame length {length} outside (0, "
                    f"{self.max_frame_bytes}]"
                )
            if len(self._buffer) < HEADER_BYTES + length:
                return frames
            payload = bytes(self._buffer[HEADER_BYTES:HEADER_BYTES + length])
            del self._buffer[:HEADER_BYTES + length]
            frames.append(self._parse(payload))

    def _parse(self, payload: bytes) -> Dict[str, Any]:
        try:
            frame = json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and an integer past
            # Python's int-string limit; RecursionError deep nesting.
            raise ProtocolError(f"malformed frame payload: {exc}") from None
        if not isinstance(frame, dict):
            raise ProtocolError(
                f"frame payload must be a JSON object, got "
                f"{type(frame).__name__}"
            )
        frame_type = frame.get("type")
        # The message quotes at most 64 characters of the peer's bytes,
        # so the ERROR frame that carries it always fits.
        if not isinstance(frame_type, str):
            raise ProtocolError(
                f"frame 'type' must be a string, got {type(frame_type).__name__}"
            )
        if frame_type not in FRAME_TYPES:
            raise ProtocolError(f"unknown frame type {frame_type[:64]!r}")
        return frame


# ----------------------------------------------------------------------
# Frame constructors — the one place field names are spelled out.
# ----------------------------------------------------------------------
def hello_frame(
    *,
    graph: Dict[str, Any],
    algorithm: str,
    max_inflight: int,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> Dict[str, Any]:
    return {
        "type": HELLO,
        "version": PROTOCOL_VERSION,
        "server": "repro.server",
        "graph": graph,
        "algorithm": algorithm,
        "max_inflight": max_inflight,
        "max_frame_bytes": max_frame_bytes,
    }


def query_frame(
    query_id,
    labels: Iterable,
    *,
    algorithm: Optional[str] = None,
    epsilon: Optional[float] = None,
    time_limit: Optional[float] = None,
    max_states: Optional[int] = None,
) -> Dict[str, Any]:
    frame: Dict[str, Any] = {
        "type": QUERY,
        "id": query_id,
        "labels": [str(label) for label in labels],
    }
    if algorithm is not None:
        frame["algorithm"] = algorithm
    if epsilon is not None:
        frame["epsilon"] = epsilon
    if time_limit is not None:
        frame["time_limit"] = time_limit
    if max_states is not None:
        frame["max_states"] = max_states
    return frame


def progress_frame(query_id, point) -> Dict[str, Any]:
    """One UB/LB event (a :class:`~repro.core.result.ProgressPoint`)."""
    return {
        "type": PROGRESS,
        "id": query_id,
        "elapsed": point.elapsed,
        "best_weight": dump_number(point.best_weight),
        "lower_bound": point.lower_bound,
        "ratio": dump_number(point.ratio),
    }


def result_frame(query_id, result, *, status: str = "ok") -> Dict[str, Any]:
    """Terminal answer built from a :class:`~repro.core.result.GSTResult`."""
    tree = None
    if result.tree is not None:
        tree = {
            "nodes": sorted(result.tree.nodes),
            "edges": [[u, v, w] for u, v, w in result.tree.edges],
        }
    return {
        "type": RESULT,
        "id": query_id,
        "status": status,
        "algorithm": result.algorithm,
        "weight": dump_number(result.weight),
        "lower_bound": result.lower_bound,
        "ratio": dump_number(result.ratio),
        "optimal": result.optimal,
        "tree": tree,
        "stats": {
            "states_popped": result.stats.states_popped,
            "total_seconds": result.stats.total_seconds,
            "cancelled": result.stats.cancelled,
        },
    }


def error_frame(query_id, code: str, message: str, **details) -> Dict[str, Any]:
    frame: Dict[str, Any] = {
        "type": ERROR,
        "id": query_id,
        "code": code,
        "message": message,
    }
    if details:
        frame["details"] = {k: dump_number(v) for k, v in details.items()}
    return frame


def cancel_frame(query_id) -> Dict[str, Any]:
    return {"type": CANCEL, "id": query_id}


def stats_frame(
    query_id=None,
    *,
    server: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    inflight: Optional[int] = None,
) -> Dict[str, Any]:
    """A STATS request (no payload kwargs) or response (with them)."""
    frame: Dict[str, Any] = {"type": STATS, "id": query_id}
    if server is not None:
        frame["server"] = server
    if metrics is not None:
        frame["metrics"] = metrics
    if inflight is not None:
        frame["inflight"] = inflight
    return frame

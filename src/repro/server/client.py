"""Client libraries for :mod:`repro.server`.

Two clients over the same wire protocol:

* :class:`GSTClient` — blocking sockets, no event loop required.  The
  natural fit for scripts, notebooks, and tests:

  .. code-block:: python

      with GSTClient("127.0.0.1", 7464) as client:
          for update in client.solve_stream(["a", "b", "c"]):
              print(update.ratio)          # anytime UB/LB curve
              if update.ratio <= 1.05:
                  client.cancel(update.query_id)   # good enough

* :class:`AsyncGSTClient` — asyncio streams, for embedding in an
  already-async application (``async for update in ...``).

Both yield :class:`StreamUpdate` objects — one per ``PROGRESS`` frame,
then exactly one terminal update (``update.final`` is true) carrying
the decoded ``RESULT`` payload.  Server-side failures raise
:class:`~repro.errors.RemoteQueryError` with the server's stable error
code; wire violations raise :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Iterator, Optional

from ..errors import ProtocolError, RemoteQueryError
from . import protocol
from .protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    cancel_frame,
    encode_frame,
    load_number,
    query_frame,
    stats_frame,
)

__all__ = ["GSTClient", "AsyncGSTClient", "StreamUpdate"]

_RECV_CHUNK = 1 << 16


@dataclass(frozen=True)
class StreamUpdate:
    """One event in a query's progressive answer stream.

    Every ``PROGRESS`` frame becomes a non-final update; the ``RESULT``
    frame becomes the single final one (``final=True``, ``result`` set
    to the decoded frame).  ``best_weight``/``lower_bound``/``ratio``
    are populated on both, so a consumer can treat the stream uniformly
    as the paper's anytime UB/LB curve.
    """

    query_id: Any
    elapsed: float
    best_weight: float
    lower_bound: float
    ratio: float
    final: bool = False
    status: Optional[str] = None
    result: Optional[Dict[str, Any]] = field(default=None, repr=False)


def _update_from_progress(frame: Dict[str, Any]) -> StreamUpdate:
    return StreamUpdate(
        query_id=frame.get("id"),
        elapsed=float(frame.get("elapsed", 0.0)),
        best_weight=load_number(frame.get("best_weight")),
        lower_bound=load_number(frame.get("lower_bound")) or 0.0,
        ratio=load_number(frame.get("ratio")),
    )


def _update_from_result(frame: Dict[str, Any]) -> StreamUpdate:
    stats = frame.get("stats") or {}
    return StreamUpdate(
        query_id=frame.get("id"),
        elapsed=float(stats.get("total_seconds", 0.0)),
        best_weight=load_number(frame.get("weight")),
        lower_bound=load_number(frame.get("lower_bound")) or 0.0,
        ratio=load_number(frame.get("ratio")),
        final=True,
        status=frame.get("status"),
        result=frame,
    )


def _raise_remote(frame: Dict[str, Any]) -> None:
    raise RemoteQueryError(
        frame.get("message", "server reported an error"),
        code=frame.get("code", "internal"),
        details=frame.get("details") or {},
    )


def _check_hello(hello: Dict[str, Any]) -> Dict[str, Any]:
    """``hello`` if it is a HELLO of this protocol version, else raise."""
    if hello.get("type") != protocol.HELLO:
        raise ProtocolError(f"expected HELLO, got {hello.get('type')!r}")
    if hello.get("version") != protocol.PROTOCOL_VERSION:
        raise ProtocolError(
            f"server speaks protocol {hello.get('version')}, "
            f"client speaks {protocol.PROTOCOL_VERSION}"
        )
    return hello


class GSTClient:
    """Blocking client for a :class:`~repro.server.GSTServer`.

    One client is one TCP connection; use it from one thread at a time
    (the protocol would interleave two concurrent streams' frames, and
    this client makes no attempt to demultiplex them).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7464,
        *,
        timeout: Optional[float] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder(max_frame_bytes)
        self._max_frame_bytes = max_frame_bytes
        self._frames: list = []
        self._ids = itertools.count(1)
        self._closed = False
        try:
            self.hello = _check_hello(self._next_frame())
        except ProtocolError:
            self.close()
            raise

    # ------------------------------------------------------------------
    def _next_frame(self) -> Dict[str, Any]:
        while not self._frames:
            data = self._sock.recv(_RECV_CHUNK)
            if not data:
                raise ProtocolError("server closed the connection")
            self._frames.extend(self._decoder.feed(data))
        return self._frames.pop(0)

    def _send(self, frame: Dict[str, Any]) -> None:
        if self._closed:
            raise ProtocolError("client is closed")
        self._sock.sendall(
            encode_frame(frame, max_frame_bytes=self._max_frame_bytes)
        )

    # ------------------------------------------------------------------
    def solve_stream(
        self,
        labels: Iterable[Hashable],
        *,
        algorithm: Optional[str] = None,
        epsilon: Optional[float] = None,
        time_limit: Optional[float] = None,
        max_states: Optional[int] = None,
        query_id=None,
    ) -> Iterator[StreamUpdate]:
        """Stream a query's anytime answer: PROGRESS updates, then RESULT.

        Yields a :class:`StreamUpdate` per improved incumbent and one
        final update for the ``RESULT`` frame.  Breaking out of the loop
        early does *not* cancel the server-side search — call
        :meth:`cancel` (or close the client) for that.
        """
        if query_id is None:
            query_id = next(self._ids)
        self._send(
            query_frame(
                query_id,
                labels,
                algorithm=algorithm,
                epsilon=epsilon,
                time_limit=time_limit,
                max_states=max_states,
            )
        )
        while True:
            frame = self._next_frame()
            if frame.get("id") != query_id:
                continue  # stale frame from an abandoned earlier stream
            frame_type = frame.get("type")
            if frame_type == protocol.PROGRESS:
                yield _update_from_progress(frame)
            elif frame_type == protocol.RESULT:
                yield _update_from_result(frame)
                return
            elif frame_type == protocol.ERROR:
                _raise_remote(frame)
            else:
                raise ProtocolError(
                    f"unexpected frame type {frame_type!r} mid-stream"
                )

    def solve(self, labels: Iterable[Hashable], **kwargs) -> StreamUpdate:
        """Block until the final answer (drains the progress stream)."""
        update = None
        for update in self.solve_stream(labels, **kwargs):
            pass
        assert update is not None and update.final
        return update

    def cancel(self, query_id) -> None:
        """Fire the server-side cancellation token of ``query_id``.

        The engine stops within its bounded pop interval and the stream
        still terminates with a ``RESULT`` (status ``"cancelled"``,
        carrying the best incumbent) or an ``ERROR code="cancelled"``
        if no feasible answer existed yet.
        """
        self._send(cancel_frame(query_id))

    def stats(self) -> Dict[str, Any]:
        """Fetch the server's STATS frame: counters + registry snapshot.

        Returns the raw frame dict — ``frame["server"]`` is the
        per-server counter dict, ``frame["metrics"]`` the process-wide
        :mod:`repro.obs` registry snapshot, ``frame["inflight"]`` the
        number of queries currently executing.  Call it between
        queries: frames belonging to abandoned earlier streams are
        skipped while waiting for the STATS response.
        """
        request_id = next(self._ids)
        self._send(stats_frame(request_id))
        while True:
            frame = self._next_frame()
            if frame.get("type") == protocol.STATS:
                return frame

    def close(self) -> None:
        """Close the connection; the server cancels anything in flight."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> "GSTClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncGSTClient:
    """Asyncio client for a :class:`~repro.server.GSTServer`.

    .. code-block:: python

        client = await AsyncGSTClient.connect("127.0.0.1", 7464)
        async for update in client.solve_stream(["a", "b"]):
            ...
        await client.close()
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder(max_frame_bytes)
        self._max_frame_bytes = max_frame_bytes
        self._frames: list = []
        self._ids = itertools.count(1)
        self.hello: Optional[Dict[str, Any]] = None

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7464,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> "AsyncGSTClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, max_frame_bytes=max_frame_bytes)
        try:
            client.hello = _check_hello(await client._next_frame())
        except ProtocolError:
            await client.close()
            raise
        return client

    async def _next_frame(self) -> Dict[str, Any]:
        while not self._frames:
            data = await self._reader.read(_RECV_CHUNK)
            if not data:
                raise ProtocolError("server closed the connection")
            self._frames.extend(self._decoder.feed(data))
        return self._frames.pop(0)

    async def _send(self, frame: Dict[str, Any]) -> None:
        self._writer.write(
            encode_frame(frame, max_frame_bytes=self._max_frame_bytes)
        )
        await self._writer.drain()

    async def solve_stream(
        self,
        labels: Iterable[Hashable],
        *,
        algorithm: Optional[str] = None,
        epsilon: Optional[float] = None,
        time_limit: Optional[float] = None,
        max_states: Optional[int] = None,
        query_id=None,
    ):
        """Async-iterate a query's PROGRESS updates, then its RESULT."""
        if query_id is None:
            query_id = next(self._ids)
        await self._send(
            query_frame(
                query_id,
                labels,
                algorithm=algorithm,
                epsilon=epsilon,
                time_limit=time_limit,
                max_states=max_states,
            )
        )
        while True:
            frame = await self._next_frame()
            if frame.get("id") != query_id:
                continue
            frame_type = frame.get("type")
            if frame_type == protocol.PROGRESS:
                yield _update_from_progress(frame)
            elif frame_type == protocol.RESULT:
                yield _update_from_result(frame)
                return
            elif frame_type == protocol.ERROR:
                _raise_remote(frame)
            else:
                raise ProtocolError(
                    f"unexpected frame type {frame_type!r} mid-stream"
                )

    async def solve(self, labels: Iterable[Hashable], **kwargs) -> StreamUpdate:
        update = None
        async for update in self.solve_stream(labels, **kwargs):
            pass
        assert update is not None and update.final
        return update

    async def cancel(self, query_id) -> None:
        await self._send(cancel_frame(query_id))

    async def stats(self) -> Dict[str, Any]:
        """Async twin of :meth:`GSTClient.stats`."""
        request_id = next(self._ids)
        await self._send(stats_frame(request_id))
        while True:
            frame = await self._next_frame()
            if frame.get("type") == protocol.STATS:
                return frame

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

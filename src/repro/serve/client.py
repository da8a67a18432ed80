"""Clients for the evaluation service.

:class:`ServeClient` speaks the line-delimited JSON protocol over the
Unix socket; a background reader task demultiplexes interleaved events
by request ``id`` into per-request queues.  :class:`LocalClient` wraps
an :class:`~repro.serve.service.EvalService` in-process with the same
``evaluate``/``status`` surface, so tests and benchmarks can drive the
full request lifecycle without a socket.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from pathlib import Path
from typing import Callable

from .protocol import MAX_LINE_BYTES, decode_message, encode_message
from .service import EvalService, ServeError

__all__ = ["ServeClient", "LocalClient"]

OnEvent = Callable[[dict], None] | None


def _result_or_raise(events_seen_last: dict) -> dict:
    event = events_seen_last
    if event["event"] == "result":
        return event["payload"]
    raise ServeError(event.get("error", "request failed"),
                     error_kind=event.get("error_kind", "crash"))


class ServeClient:
    """Async socket client; safe for concurrent ``evaluate`` calls."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._queues: dict[str, asyncio.Queue[dict]] = {}
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, socket_path: str | Path) -> "ServeClient":
        reader, writer = await asyncio.open_unix_connection(
            str(socket_path), limit=MAX_LINE_BYTES)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                event = decode_message(line)
                queue = self._queues.get(event.get("id"))
                if queue is not None:
                    queue.put_nowait(event)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # Wake every waiter so nothing blocks on a dead socket.
            for queue in self._queues.values():
                queue.put_nowait({"event": "error",
                                  "error": "connection closed",
                                  "error_kind": "connection"})

    async def _send(self, message: dict) -> None:
        self._writer.write(encode_message(message))
        await self._writer.drain()

    async def _roundtrip(self, op: str, terminal: tuple[str, ...]) -> dict:
        request_id = f"c{next(self._ids)}"
        queue: asyncio.Queue[dict] = asyncio.Queue()
        self._queues[request_id] = queue
        try:
            await self._send({"op": op, "id": request_id})
            while True:
                event = await queue.get()
                if event["event"] in terminal + ("error",):
                    return event
        finally:
            del self._queues[request_id]

    async def evaluate(self, request: dict, on_event: OnEvent = None) -> dict:
        """Submit ``request``; stream events; return the result payload.

        Raises :class:`ServeError` if the server reports failure (the
        scheduler's ``error_kind`` is preserved on the exception).
        """
        request_id = f"c{next(self._ids)}"
        queue: asyncio.Queue[dict] = asyncio.Queue()
        self._queues[request_id] = queue
        try:
            await self._send({"op": "submit", "id": request_id,
                              "request": request})
            while True:
                event = await queue.get()
                if on_event is not None:
                    on_event(event)
                if event["event"] in ("result", "error"):
                    return _result_or_raise(event)
        finally:
            del self._queues[request_id]

    async def status(self) -> dict:
        return await self._roundtrip("status", terminal=("status",))

    async def ping(self) -> dict:
        return await self._roundtrip("ping", terminal=("pong",))

    async def shutdown(self) -> dict:
        return await self._roundtrip("shutdown", terminal=("shutting_down",))

    async def close(self) -> None:
        self._reader_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._reader_task
        with contextlib.suppress(Exception):
            self._writer.close()
            await self._writer.wait_closed()


class LocalClient:
    """Same surface as :class:`ServeClient`, no socket: for tests/benchmarks."""

    def __init__(self, service: EvalService):
        self.service = service

    async def evaluate(self, request: dict, on_event: OnEvent = None) -> dict:
        return await self.service.submit(request, on_event=on_event)

    async def status(self) -> dict:
        return dict(self.service.stats(), event="status")

    async def ping(self) -> dict:
        return {"event": "pong"}

    async def close(self) -> None:
        return None

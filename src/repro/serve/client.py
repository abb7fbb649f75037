"""Async client for the multiply service.

One :class:`ServeClient` multiplexes any number of in-flight requests
over a single connection: requests carry generated ids, a background
reader task routes response frames back to the matching awaiter.  This
is the intended way to drive the server hard — fire N ``multiply``
coroutines concurrently and the server's scheduler coalesces them into
waves.

Usage::

    client = await ServeClient.connect("127.0.0.1", 7077)
    reply = await client.multiply(a, b, semiring="min_plus")
    reply.c                  # CSRMatrix, bit-identical to repro.multiply
    reply.timings            # queue_wait_s / compute_s / phase_seconds ...
    reply.batch              # {"id", "size", "index", "fused"}
    await client.close()

Backpressure: an admission-control reject raises
:class:`RequestRejected` carrying ``retry_after_s``;
:meth:`ServeClient.multiply_retrying` sleeps and retries for callers
that just want the answer.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass

from .protocol import ProtocolError, decode_matrix, encode_matrix, read_frame, write_frame

__all__ = ["ServeClient", "ServeReply", "RequestRejected", "RemoteError"]


class RequestRejected(RuntimeError):
    """The server's admission control turned the request away (429)."""

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class RemoteError(RuntimeError):
    """The server failed the request (bad payload or multiply error)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass
class ServeReply:
    """One successful multiply response."""

    c: object  # CSRMatrix
    timings: dict
    batch: dict
    plan: dict
    raw: dict


class ServeClient:
    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._ids = itertools.count(1)
        self._waiters: dict = {}
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7077,
        *,
        unix_path: str | None = None,
    ) -> "ServeClient":
        if unix_path:
            reader, writer = await asyncio.open_unix_connection(unix_path)
        else:
            reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        error: Exception | None = None
        try:
            while True:
                msg = await read_frame(self._reader)
                if msg is None:
                    break
                waiter = self._waiters.pop(msg.get("id"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(msg)
        except ProtocolError as exc:
            error = exc
        except Exception as exc:  # pragma: no cover - connection teardown races
            error = exc
        fail = error or ConnectionError("connection closed by server")
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(fail)
        self._waiters.clear()

    async def _call(self, msg: dict) -> dict:
        if self._closed:
            raise ConnectionError("client is closed")
        rid = next(self._ids)
        msg["id"] = rid
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[rid] = waiter
        try:
            await write_frame(self._writer, msg, self._write_lock)
            return await waiter
        finally:
            self._waiters.pop(rid, None)

    # -- operations ----------------------------------------------------------
    async def multiply(
        self,
        a,
        b,
        algorithm: str = "pb",
        semiring: str = "plus_times",
    ) -> ServeReply:
        """C = A · B on the server (under the server's ``PBConfig``);
        raises :class:`RequestRejected` on backpressure and
        :class:`RemoteError` on failure."""
        msg = {
            "op": "multiply",
            "a": encode_matrix(a),
            "b": encode_matrix(b),
            "algorithm": algorithm,
            "semiring": semiring,
        }
        reply = await self._call(msg)
        if not reply.get("ok"):
            err = reply.get("error") or {}
            if err.get("code") == "rejected":
                raise RequestRejected(
                    err.get("message", "rejected"),
                    float(err.get("retry_after_s", 0.01)),
                )
            raise RemoteError(err.get("code", "error"), err.get("message", ""))
        return ServeReply(
            c=decode_matrix(reply["c"]),
            timings=reply.get("timings", {}),
            batch=reply.get("batch", {}),
            plan=reply.get("plan", {}),
            raw=reply,
        )

    async def multiply_retrying(
        self, a, b, *, attempts: int = 8, **kwargs
    ) -> ServeReply:
        """Like :meth:`multiply`, but honours ``retry_after_s`` hints
        instead of surfacing rejects (up to ``attempts`` tries)."""
        for attempt in range(attempts):
            try:
                return await self.multiply(a, b, **kwargs)
            except RequestRejected as exc:
                if attempt == attempts - 1:
                    raise
                await asyncio.sleep(exc.retry_after_s)

    async def stats(self) -> dict:
        reply = await self._call({"op": "stats"})
        return reply.get("stats", {})

    async def ping(self) -> bool:
        return bool((await self._call({"op": "ping"})).get("ok"))

    async def shutdown(self) -> None:
        """Ask the server to stop (it replies before tearing down)."""
        await self._call({"op": "shutdown"})

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
        await self._reader_task

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

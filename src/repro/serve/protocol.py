"""Wire protocol for the multiply service.

Frames are length-prefixed JSON: a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON.  JSON (rather than msgpack
or pickle) keeps the service dependency-free and safe to expose —
nothing on the wire is executable.  Matrix payloads travel as CSR
triples with base64-encoded little-endian array bytes, so a request is
one flat JSON object and any language can speak the protocol.

Request objects::

    {"op": "multiply", "id": "r1", "a": <matrix>, "b": <matrix>,
     "algorithm": "pb", "semiring": "plus_times"}
    {"op": "stats",    "id": "r2"}
    {"op": "ping",     "id": "r3"}
    {"op": "shutdown", "id": "r4"}

A multiply runs under the server's ``PBConfig``; a ``multiply`` frame
that carries ``config`` is a ``bad_request``.

Responses always echo ``id`` and carry ``ok``; errors look like::

    {"id": "r1", "ok": false,
     "error": {"code": "rejected", "message": "...", "retry_after_s": 0.05}}

``code`` is one of ``bad_request``, ``rejected`` (admission control —
retry after ``retry_after_s``), or ``error`` (the multiply itself
failed).
"""

from __future__ import annotations

import asyncio
import base64
import json

import numpy as np

from ..matrix.csr import CSRMatrix

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_matrix",
    "decode_matrix",
    "read_frame",
    "write_frame",
]

#: Upper bound on one frame; a peer announcing more is protocol abuse
#: (or corruption) and the connection is dropped.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_PREFIX_BYTES = 4


class ProtocolError(ValueError):
    """Malformed frame or matrix payload."""


def _b64(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode("ascii")


def encode_matrix(mat) -> dict:
    """Encode any repro/scipy/dense operand as a CSR JSON payload."""
    csr = mat if isinstance(mat, CSRMatrix) else _to_csr(mat)
    return {
        "format": "csr",
        "shape": [int(csr.shape[0]), int(csr.shape[1])],
        "indptr": _b64(csr.indptr),
        "indices": _b64(csr.indices),
        "data": _b64(csr.data),
        "index_dtype": str(csr.indptr.dtype),
        "value_dtype": str(csr.data.dtype),
    }


def _to_csr(mat) -> CSRMatrix:
    from ..api import _coerce

    return _coerce(mat, "operand", "csr")


def decode_matrix(payload) -> CSRMatrix:
    """Decode a CSR JSON payload back into a :class:`CSRMatrix`.

    Arrays are copied out of the base64 buffer (``frombuffer`` views
    are read-only), and the result is *validated* — the payload crossed
    a trust boundary.
    """
    if not isinstance(payload, dict) or payload.get("format") != "csr":
        raise ProtocolError("matrix payload must be a dict with format='csr'")
    try:
        shape = (int(payload["shape"][0]), int(payload["shape"][1]))
        idx_dt = np.dtype(payload["index_dtype"])
        val_dt = np.dtype(payload["value_dtype"])
        indptr = np.frombuffer(
            base64.b64decode(payload["indptr"]), dtype=idx_dt
        ).copy()
        indices = np.frombuffer(
            base64.b64decode(payload["indices"]), dtype=idx_dt
        ).copy()
        data = np.frombuffer(base64.b64decode(payload["data"]), dtype=val_dt).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed matrix payload: {exc}") from exc
    try:
        return CSRMatrix(shape, indptr, indices, data, validate=True)
    except Exception as exc:
        raise ProtocolError(f"invalid CSR payload: {exc}") from exc


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one JSON object frame; returns ``None`` on clean EOF.

    A frame that is valid JSON but not an object (``null`` included,
    which would otherwise read as EOF) is a :class:`ProtocolError`.
    """
    try:
        prefix = await reader.readexactly(_PREFIX_BYTES)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    length = int.from_bytes(prefix, "big")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


async def write_frame(
    writer: asyncio.StreamWriter,
    obj,
    lock: asyncio.Lock | None = None,
) -> None:
    """Serialize and send one frame (optionally under a writer lock —
    concurrent responses on one connection must not interleave)."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    frame = len(body).to_bytes(_PREFIX_BYTES, "big") + body
    if lock is None:
        writer.write(frame)
        await writer.drain()
        return
    async with lock:
        writer.write(frame)
        await writer.drain()

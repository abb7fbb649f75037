"""Wire fuzz for the multiply service (``repro.serve.protocol``).

One in-process server (serial config, no worker processes) takes
malformed frames over a real socket: bodies cut short after their
length prefix, bodies that are not JSON, frames that are not objects,
unknown ops, matrix payloads with bad base64, and payloads whose
``shape``, ``indptr``, ``indices`` and ``data`` contradict each other.
Each must get a ``bad_request`` reply, and the server must then answer
a good multiply bit-identically — on the same connection, unless the
frame itself was not a JSON object, when the server closes that
connection.
"""

from __future__ import annotations

import asyncio
import base64
import json
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import PBConfig
from repro.serve import MultiplyServer, ServeConfig
from repro.serve.protocol import decode_matrix, encode_matrix

pytestmark = pytest.mark.serve

B = repro.erdos_renyi(32, 3, seed=7, fmt="csr")
GOOD = {"op": "multiply", "id": "good", "a": encode_matrix(B), "b": encode_matrix(B)}
WANT = repro.multiply(B, B)


@pytest.fixture(scope="module")
def address():
    """A server on an event loop in a background thread, for the module."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = asyncio.run_coroutine_threadsafe(
        MultiplyServer(PBConfig(), ServeConfig(port=0)).start(), loop
    ).result(30)
    try:
        yield server.address
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(30)
        loop.close()


def _frame(obj) -> bytes:
    body = json.dumps(obj).encode()
    return struct.pack(">I", len(body)) + body


def _recv_exact(sock, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    return buf


def _recv(sock) -> dict:
    (n,) = struct.unpack(">I", _recv_exact(sock, 4))
    return json.loads(_recv_exact(sock, n))


def _b64_garbage(draw, text: str) -> str:
    """``text`` made undecodable: a dropped character breaks the
    padding; non-alphabet characters alone decode to no bytes."""
    if draw(st.booleans()) and len(text) > 1:
        cut = draw(st.integers(0, len(text) - 1))
        return text[:cut] + text[cut + 1 :]
    return draw(st.text(alphabet="!#$%&*-_.~ ", min_size=1, max_size=12))


@st.composite
def _lying_matrix(draw, wire: dict) -> dict:
    """``wire`` with fields that contradict each other."""
    mat = decode_matrix(wire)
    m, n = mat.shape
    out = dict(wire)
    lie = draw(
        st.sampled_from(
            ["rows", "cols", "indptr_short", "indices_short", "data_short",
             "indptr_decreasing", "index_dtype"]
        )
    )
    if lie == "rows":
        out["shape"] = [m + draw(st.sampled_from([-1, 1, 7])), n]
    elif lie == "cols":
        out["shape"] = [m, int(mat.indices.max())]  # an index past the last column
    elif lie == "indptr_short":
        out["indptr"] = base64.b64encode(mat.indptr[:-1].tobytes()).decode()
    elif lie == "indices_short":
        out["indices"] = base64.b64encode(mat.indices[:-1].tobytes()).decode()
    elif lie == "data_short":
        out["data"] = base64.b64encode(mat.data[:-1].tobytes()).decode()
    elif lie == "indptr_decreasing":
        ptr = mat.indptr.copy()
        ptr[1:-1] = ptr[1:-1][::-1] + 1  # ends kept, middle no longer ascending
        out["indptr"] = base64.b64encode(ptr.tobytes()).decode()
    else:
        out["index_dtype"] = draw(st.sampled_from(["int32", "int16", "uint8"]))
    return out


@st.composite
def bad_frames(draw):
    """``(kind, raw bytes)``: one malformed frame."""
    kind = draw(
        st.sampled_from(
            ["truncated", "not_json", "not_object", "unknown_op", "bad_base64", "lying"]
        )
    )
    if kind == "truncated":
        body = _frame(GOOD)[4:]
        cut = draw(st.integers(0, len(body) - 1))
        return kind, struct.pack(">I", len(body)) + body[:cut]
    if kind == "not_json":
        body = draw(st.sampled_from([b"{", b"not json", b"\xff\xfe", b'{"op": "ping",}']))
        return kind, struct.pack(">I", len(body)) + body
    if kind == "not_object":
        return kind, _frame(draw(st.sampled_from([[], [GOOD], 3, "multiply", None])))
    if kind == "unknown_op":
        op = draw(st.text(max_size=12).filter(
            lambda s: s not in ("multiply", "stats", "ping", "shutdown")
        ))
        return kind, _frame({"op": op, "id": "bad"})
    side = draw(st.sampled_from(["a", "b"]))
    msg = dict(GOOD, id="bad")
    if kind == "bad_base64":
        field = draw(st.sampled_from(["indptr", "indices", "data"]))
        msg[side] = dict(msg[side], **{field: _b64_garbage(draw, msg[side][field])})
    else:
        msg[side] = draw(_lying_matrix(msg[side]))
    return kind, _frame(msg)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(bad_frames())
def test_malformed_frames_get_an_error_and_the_server_recovers(address, frame):
    kind, raw = frame
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(raw)
        if kind == "truncated":
            sock.shutdown(socket.SHUT_WR)  # the rest of the body never comes
        reply = _recv(sock)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad_request"
        if kind in ("unknown_op", "bad_base64", "lying"):
            assert reply["id"] == "bad"
        framing_broke = kind in ("truncated", "not_json", "not_object")
        if framing_broke:
            assert sock.recv(1) == b""  # the server closed this connection
        else:
            sock.sendall(_frame(GOOD))
            good = _recv(sock)
    if framing_broke:
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(_frame(GOOD))
            good = _recv(sock)
    assert good["ok"] is True and good["id"] == "good"
    c = decode_matrix(good["c"])
    assert np.array_equal(c.indptr, WANT.indptr)
    assert np.array_equal(c.indices, WANT.indices)
    assert c.data.tobytes() == WANT.data.tobytes()

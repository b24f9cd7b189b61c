"""Line-delimited JSON protocol for serving language models over TCP or stdio.

Each message is one JSON object on one ``\\n``-terminated UTF-8 line.

Handshake::

    client  {"op": "hello", "proto": 2}
    server  {"op": "vocab", "tokens": [...], "bos": i, "eos": j, "unk": k, "proto": 2}

Step::

    client  {"op": "next", "ctx": [token ids]}
    server  {"op": "dist", "logp_b64": "<base64>"}          (protocol 2)
    server  {"op": "dist", "logp": [|V| floats]}            (protocol 1)

Errors::

    server  {"op": "err", "code": "...", "msg": "..."}

The protocol version is negotiated per session by ``hello``. In protocol 2,
``logp_b64`` is the standard base64 encoding of |V| little-endian IEEE-754
float64 values, so ``-inf`` travels natively and every distribution
crosses the wire bit for bit. In protocol 1, log probabilities are finite
JSON numbers or the string ``"-inf"``; a protocol 1 server whose model
returns NaN or ``+inf`` answers ``internal`` instead of a ``dist`` frame.

Fallback works in both directions. A client opens with ``proto: 2``; if the
server answers ``err``/``bad_proto`` the client repeats ``hello`` with
``proto: 1`` on the same connection, and if the ``vocab`` frame carries no
``"proto": 2`` the client reads protocol 1 frames. The server answers a
``proto: 1`` hello (or a session without any hello) with protocol 1 frames,
exactly as a protocol 1 server does.

The server answers every request line with exactly one frame. Requests the
model cannot serve get ``bad_context`` (a ``ValueError`` from the model) or
``internal`` (any other exception), and the session continues. A request
line longer than ``MAX_REQUEST_BYTES`` gets one ``bad_frame`` error, after
which the server closes the session.

The default per-step timeout is 10 seconds. Failures are distinguishable
by exception type: transport problems (connect, timeout, closed socket)
are retryable; protocol violations (malformed frames, wrong-length
distributions) are not.
"""

from __future__ import annotations

import base64
import json
import math
import socket
import socketserver
import sys
import threading
import traceback
from typing import BinaryIO, Optional, Sequence

import numpy as np

from .lm import LanguageModel, NextTokenDistribution, Vocabulary

PROTO_VERSIONS = (1, 2)
DEFAULT_TIMEOUT = 10.0
MAX_REQUEST_BYTES = 1 << 20


class WireError(Exception):
    retryable = False


class TransportError(WireError):
    """Connection failed, timed out, or closed mid-exchange."""

    retryable = True


class StepTimeout(TransportError):
    pass


class ProtocolError(WireError):
    """The peer sent something outside the protocol; do not retry."""


class VocabularyMismatch(ProtocolError):
    """Distribution length does not match the declared vocabulary."""


class ServerReported(WireError):
    """The server answered with an explicit error frame."""

    def __init__(self, code: str, msg: str) -> None:
        super().__init__(f"{code}: {msg}")
        self.code = code
        self.msg = msg


def _encode_logp(values: np.ndarray) -> list:
    """Protocol 1 entries; NaN or ``+inf`` raises, so the session answers ``internal``."""
    if np.isnan(values).any() or (values == math.inf).any():
        raise ValueError("model returned NaN or +inf log probabilities")
    return [float(v) if math.isfinite(v) else "-inf" for v in values]


def _encode_logp_b64(values: np.ndarray) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _checked_logp(logp: np.ndarray, expected_len: int) -> np.ndarray:
    """The length, NaN and ``+inf`` checks every decoded distribution passes."""
    if len(logp) != expected_len:
        raise VocabularyMismatch(
            f"distribution has {len(logp)} entries, vocabulary has {expected_len}"
        )
    if np.isnan(logp).any() or (logp == math.inf).any():
        raise ProtocolError("logp entries must be finite or -inf")
    return logp


def _decode_logp(values: list, expected_len: int) -> np.ndarray:
    if not isinstance(values, list):
        raise ProtocolError("logp must be a list")
    out = np.empty(len(values))
    try:
        for i, v in enumerate(values):
            if v == "-inf":
                out[i] = -math.inf
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                out[i] = v
            else:
                raise ProtocolError(f"logp entry {i} is not a number or '-inf': {v!r}")
    except OverflowError as exc:
        raise ProtocolError(f"logp entry {i} is out of float64 range") from exc
    return _checked_logp(out, expected_len)


def _decode_logp_b64(text: str, expected_len: int) -> np.ndarray:
    if not isinstance(text, str):
        raise ProtocolError("logp_b64 must be a string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ProtocolError(f"logp_b64 is not valid base64: {exc}") from exc
    if len(raw) % 8:
        raise VocabularyMismatch(f"logp_b64 holds {len(raw)} bytes, not whole float64 values")
    return _checked_logp(np.frombuffer(raw, dtype="<f8"), expected_len)


def _send(stream: BinaryIO, obj: dict) -> None:
    # backslashreplace turns a lone surrogate (say, in a model's error
    # message) into a JSON escape instead of failing the whole frame.
    stream.write(json.dumps(obj, ensure_ascii=False).encode("utf-8", "backslashreplace") + b"\n")
    stream.flush()


def _parse(line: bytes) -> dict:
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(obj, dict) or "op" not in obj:
        raise ProtocolError("frame is not an object with an 'op' field")
    return obj


def _recv(stream: BinaryIO) -> dict:
    line = stream.readline()
    if not line:
        raise TransportError("connection closed by peer")
    return _parse(line)


class RemoteLM:
    """LanguageModel client over the wire protocol (one TCP connection)."""

    def __init__(self, endpoint: str, timeout: float = DEFAULT_TIMEOUT) -> None:
        host, _, port = endpoint.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"endpoint must be host:port, got {endpoint!r}")
        self.endpoint = endpoint
        try:
            self._sock = socket.create_connection((host, int(port)), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {endpoint}: {exc}") from exc
        self._stream = self._sock.makefile("rwb")
        self.proto = 1
        try:
            self._vocab = self._handshake()
        except BaseException:
            # The caller never gets this object, so nothing else can close it.
            self.close()
            raise

    def _exchange(self, request: dict) -> dict:
        try:
            _send(self._stream, request)
            response = _recv(self._stream)
        except socket.timeout as exc:
            raise StepTimeout(f"no response from {self.endpoint} in time") from exc
        except OSError as exc:
            raise TransportError(f"transport failure: {exc}") from exc
        if response.get("op") == "err":
            raise ServerReported(str(response.get("code", "unknown")), str(response.get("msg", "")))
        return response

    def _handshake(self) -> Vocabulary:
        try:
            response = self._exchange({"op": "hello", "proto": 2})
        except ServerReported as exc:
            if exc.code != "bad_proto":
                raise
            response = self._exchange({"op": "hello", "proto": 1})
        if response.get("op") != "vocab":
            raise ProtocolError(f"expected vocab frame, got op={response.get('op')!r}")
        if response.get("proto") == 2:
            self.proto = 2
        try:
            return Vocabulary.read(response, "vocab frame", ("bos", "eos", "unk"))
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    def vocabulary(self) -> Vocabulary:
        return self._vocab

    def next(self, context: Sequence[int]) -> NextTokenDistribution:
        response = self._exchange({"op": "next", "ctx": [int(i) for i in context]})
        if response.get("op") != "dist":
            raise ProtocolError(f"expected dist frame, got op={response.get('op')!r}")
        if self.proto == 2:
            logp = _decode_logp_b64(response.get("logp_b64"), len(self._vocab))
        else:
            logp = _decode_logp(response.get("logp"), len(self._vocab))
        dist = NextTokenDistribution(logp)
        try:
            dist.validate()
        except ValueError as exc:
            raise ProtocolError(f"invalid distribution: {exc}") from exc
        return dist

    def close(self) -> None:
        try:
            self._stream.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "RemoteLM":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _build_reply(model: LanguageModel, vocab: Vocabulary, request: dict, proto: int) -> dict:
    op = request.get("op")
    if op == "hello":
        requested = request.get("proto")
        if requested not in PROTO_VERSIONS:
            return {"op": "err", "code": "bad_proto",
                    "msg": f"unsupported protocol {requested!r}"}
        reply = {
            "op": "vocab",
            "tokens": list(vocab.tokens),
            "bos": vocab.bos_id,
            "eos": vocab.eos_id,
            "unk": vocab.unk_id,
        }
        if requested == 2:
            reply["proto"] = 2
        return reply
    if op == "next":
        ctx = request.get("ctx")
        if not isinstance(ctx, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in ctx
        ):
            return {"op": "err", "code": "bad_context", "msg": "ctx must be a list of ids"}
        try:
            dist = model.next(ctx)
        except ValueError as exc:
            return {"op": "err", "code": "bad_context", "msg": str(exc)}
        if proto == 2:
            return {"op": "dist", "logp_b64": _encode_logp_b64(dist.log_probs)}
        return {"op": "dist", "logp": _encode_logp(dist.log_probs)}
    return {"op": "err", "code": "bad_op", "msg": f"unknown op {op!r}"}


def serve_session(model: LanguageModel, reader: BinaryIO, writer: BinaryIO) -> None:
    """Answer protocol requests on a stream pair until it closes.

    Every request line gets exactly one reply frame; the session speaks
    protocol 1 until a ``hello`` selects another version.
    """
    vocab = model.vocabulary()
    proto = 1
    while True:
        try:
            line = reader.readline(MAX_REQUEST_BYTES)
        except OSError:
            return
        if not line:
            return
        too_long = len(line) == MAX_REQUEST_BYTES and not line.endswith(b"\n")
        if too_long:
            reply = {"op": "err", "code": "bad_frame",
                     "msg": f"request line exceeds {MAX_REQUEST_BYTES} bytes"}
        else:
            try:
                reply = _build_reply(model, vocab, _parse(line), proto)
            except ProtocolError as exc:
                reply = {"op": "err", "code": "bad_frame", "msg": str(exc)}
            except Exception as exc:  # the model or encoder failed; report it and keep serving
                traceback.print_exc(file=sys.stderr)
                reply = {"op": "err", "code": "internal", "msg": repr(exc)}
            if reply["op"] == "vocab":
                proto = reply.get("proto", 1)
        try:
            _send(writer, reply)
        except OSError:
            return
        if too_long:
            return


class LMServer(socketserver.ThreadingTCPServer):
    """TCP server exposing one LanguageModel to protocol clients."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, model: LanguageModel, host: str = "127.0.0.1", port: int = 0) -> None:
        self.model = model

        class Handler(socketserver.StreamRequestHandler):
            def handle(handler) -> None:  # noqa: N805
                serve_session(model, handler.rfile, handler.wfile)

        super().__init__((host, port), Handler)

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def serve_stdio(model: LanguageModel, stdin: Optional[BinaryIO] = None,
                stdout: Optional[BinaryIO] = None) -> None:
    """Serve one protocol session over standard streams."""
    serve_session(model, stdin or sys.stdin.buffer, stdout or sys.stdout.buffer)

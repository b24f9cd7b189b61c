"""Line-delimited JSON protocol for serving language models over TCP or stdio.

Each message is one JSON object on one ``\\n``-terminated UTF-8 line, except
the binary payload that follows a ``next_batch`` or ``dists`` header.

Handshake::

    client  {"op": "hello", "proto": 3}
    server  {"op": "vocab", "tokens": [...], "bos": i, "eos": j, "unk": k, "proto": 3}

Step, protocol 3::

    client  {"op": "next_batch", "lens": [n1, ..., nk]}
            followed by exactly 4 * (n1 + ... + nk) bytes: the k contexts'
            ids, one after another, as little-endian uint32 values
    server  {"op": "dists", "count": k}
            followed by exactly k * |V| * 8 bytes: k rows of |V| little-endian
            IEEE-754 float64 values, in the order of the contexts

Step, protocol 1::

    client  {"op": "next", "ctx": [token ids]}
    server  {"op": "dist", "logp": [|V| floats]}

Errors::

    server  {"op": "err", "code": "...", "msg": "..."}

A ``hello`` chooses the session's protocol: its ``proto`` must be the JSON
integer 1 or 3, and anything else gets ``bad_proto`` and leaves the session
as it was. A session without a hello speaks protocol 1. Only the ``vocab``
frame of a protocol 3 session carries ``"proto": 3``.

Protocol 3. A ``next_batch`` carries 1 to ``MAX_BATCH`` contexts, a
protocol constant, and the client sends every step, single ones included,
in that frame; a ``dists`` reply is therefore never longer than one header
line plus ``MAX_BATCH`` * |V| * 8 bytes. Float64 rows carry ``-inf``
natively, so every distribution crosses the wire bit for bit. The server
reads exactly ``4 * sum(lens)`` bytes, which may not exceed
``MAX_REQUEST_BYTES``, and computes every distribution before it writes
anything, so a batch with a bad context gets one ``err`` line and no
payload. A header whose ``lens`` is not a list of 1 to ``MAX_BATCH``
non-negative integers, whose payload would exceed that bound, or whose
payload is cut short gets one ``bad_frame`` error, after which the server
closes the session: the unread payload cannot be told apart from the next
request. For the same reason, any ``bad_frame`` ends a protocol 3 session.

Protocol 1. Log probabilities are finite JSON numbers or the string
``"-inf"``; a server whose model returns NaN or ``+inf`` answers
``internal`` instead of a ``dist`` frame. ``next_batch`` gets ``bad_op``.
A ``next`` frame gets the same ``dist`` reply in either protocol.

Fallback works in both directions. The client opens with ``proto: 3``; if
the server answers ``err``/``bad_proto``, as one that predates protocol 3
does, the client repeats ``hello`` with ``proto: 1`` on the same
connection, and if the ``vocab`` frame carries no ``"proto": 3`` the client
sends one ``next`` frame per context. The client rejects an id that is not
an integer in [0, 2**32) with a ``ValueError`` before it sends anything, on
every path.

The server answers every request line with exactly one frame. Requests the
model cannot serve get ``bad_context`` (a ``ValueError`` from the model) or
``internal`` (any other exception, or a row that is not |V| long, in
either protocol), and the session continues. A request
line longer than ``MAX_REQUEST_BYTES``, like a bad binary ``next_batch``
header, gets one ``bad_frame`` error, after which the server closes the
session. A reply line longer than
``MAX_REPLY_BYTES`` is a ``ProtocolError`` on the client.

The default per-step timeout is 10 seconds. An ``LMServer`` runs each
session on its own thread and computes replies under one lock, so its
sessions call the model one request at a time. It ends a session whose
client has been silent for ``IDLE_TIMEOUT`` seconds, six times the step
timeout, so an idle connection does not hold a server thread.
Failures are distinguishable by exception type: transport problems
(connect, timeout, closed socket, a payload cut short) are retryable;
protocol violations (malformed frames, wrong counts, wrong-length or
invalid distributions) are not.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import sys
import threading
import traceback
from array import array
from contextlib import AbstractContextManager, nullcontext
from typing import BinaryIO, Optional, Sequence

import numpy as np

from .lm import LanguageModel, Vocabulary

PROTO_VERSIONS = (1, 3)
DEFAULT_TIMEOUT = 10.0
IDLE_TIMEOUT = 6 * DEFAULT_TIMEOUT  # seconds an LMServer session may wait on its client
MAX_REQUEST_BYTES = 1 << 20
MAX_REPLY_BYTES = 16 << 20  # per reply line: room for the vocab frame of a 50k-token vocabulary
MAX_BATCH = 64
SUM_TOLERANCE = 1e-6  # how far from 1 a received distribution's probabilities may sum
_U32 = "I"  # array typecode of C unsigned int, 4 bytes on every platform CPython supports


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


def _checked_rows(logp: np.ndarray) -> np.ndarray:
    """``logp``, a (k, |V|) array, if every row is finite or ``-inf`` and sums to 1."""
    for row, total in enumerate(np.exp(logp).sum(axis=1).tolist()):
        # A NaN or +inf entry makes its row's total NaN or +inf, which
        # fails this test too, so a good array costs one pass; only a bad
        # row is searched for the cause.
        if not abs(total - 1.0) <= SUM_TOLERANCE:
            if not (logp[row] < math.inf).all():
                raise ProtocolError("logp entries must be finite or -inf")
            raise ProtocolError(f"invalid distribution: row {row} sums to {total}, not 1")
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
    if len(out) != expected_len:
        raise VocabularyMismatch(f"distribution has {len(out)} entries, vocabulary has {expected_len}")
    out.setflags(write=False)
    return _checked_rows(out[np.newaxis])[0]


def _id_arrays(contexts: Sequence[Sequence[int]]) -> list[array]:
    """Each context as an array of uint32 ids; anything else is a ``ValueError`` naming the context and id."""
    arrays = []
    for i, context in enumerate(contexts):
        try:
            if isinstance(context, list):
                # fromlist reads the items directly; array() reads a list
                # subclass, such as a decoder's context, item by item through
                # __getitem__, about three times slower.
                ids = array(_U32)
                ids.fromlist(context)
            else:
                ids = array(_U32, context)
            arrays.append(ids)
        except (TypeError, OverflowError):
            for value in context:
                try:
                    array(_U32, [value])
                except (TypeError, OverflowError):
                    raise ValueError(f"context {i}: id {value!r} is not an integer in [0, 2**32)") from None
            raise
    return arrays


def _send(stream: BinaryIO, obj: dict, payload: bytes = b"") -> None:
    # backslashreplace turns a lone surrogate (say, in a model's error
    # message) into a JSON escape instead of failing the whole frame.
    line = json.dumps(obj, ensure_ascii=False).encode("utf-8", "backslashreplace")
    # One write per frame: a header and its payload leave in the same segment.
    stream.write(line + b"\n" + payload)
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
    line = stream.readline(MAX_REPLY_BYTES)
    if not line:
        raise TransportError("connection closed by peer")
    if len(line) == MAX_REPLY_BYTES and not line.endswith(b"\n"):
        raise ProtocolError(f"reply line exceeds {MAX_REPLY_BYTES} bytes")
    return _parse(line)


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """The host and port of ``host:port``; anything else, or a port outside 1-65535, is a ``ValueError``.

    The port is ASCII digits only: ``int()`` would also read other
    scripts' digits, and the socket layer would wrap a port past 65535.
    """
    host, _, port = endpoint.rpartition(":")
    if not (host and port.isascii() and port.isdigit() and len(port) <= 5 and 1 <= int(port) <= 65535):
        raise ValueError(f"endpoint must be host:port with a port in 1-65535, got {endpoint!r}")
    return host, int(port)


class RemoteLM:
    """LanguageModel client over the wire protocol (one TCP connection)."""

    _hello = {"op": "hello", "proto": 3}

    def __init__(self, endpoint: str, timeout: float = DEFAULT_TIMEOUT) -> None:
        address = parse_endpoint(endpoint)
        self.endpoint = endpoint
        try:
            self._sock = socket.create_connection(address, timeout=timeout)
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

    def _transport_error(self, exc: OSError) -> TransportError:
        if isinstance(exc, socket.timeout):
            return StepTimeout(f"no response from {self.endpoint} in time")
        return TransportError(f"transport failure: {exc}")

    def _exchange(self, request: dict, reply_op: str, payload: bytes = b"") -> dict:
        try:
            _send(self._stream, request, payload)
            response = _recv(self._stream)
        except OSError as exc:
            raise self._transport_error(exc) from exc
        op = response.get("op")
        if op == "err":
            raise ServerReported(str(response.get("code", "unknown")), str(response.get("msg", "")))
        if op != reply_op:
            raise ProtocolError(f"expected {reply_op} frame, got op={op!r}")
        return response

    def _handshake(self) -> Vocabulary:
        try:
            response = self._exchange(self._hello, "vocab")
        except ServerReported as exc:
            if exc.code != "bad_proto":
                raise
            response = self._exchange({"op": "hello", "proto": 1}, "vocab")
        if response.get("proto") == 3:
            self.proto = 3
        try:
            return Vocabulary.read(response, "vocab frame", ("bos", "eos", "unk"))
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    def vocabulary(self) -> Vocabulary:
        return self._vocab

    def next(self, context: Sequence[int]) -> np.ndarray:
        return self.next_many([context])[0]

    def next_many(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        """``next`` of each context, in order.

        In protocol 3 the contexts travel in ``next_batch`` frames of up
        to ``MAX_BATCH`` each; in protocol 1, one ``next`` frame each. An
        id that is not an integer in [0, 2**32) is a ``ValueError``, raised
        before any frame is sent.
        """
        arrays = _id_arrays(contexts)
        if self.proto == 1:
            return [self._next_frame(ids.tolist()) for ids in arrays]
        dists = []
        for start in range(0, len(arrays), MAX_BATCH):
            dists.extend(self._next_batch_frame(arrays[start:start + MAX_BATCH]))
        return dists

    def _next_frame(self, ctx: list[int]) -> np.ndarray:
        response = self._exchange({"op": "next", "ctx": ctx}, "dist")
        return _decode_logp(response.get("logp"), len(self._vocab))

    def _next_batch_frame(self, contexts: list[array]) -> np.ndarray:
        ids = array(_U32)
        for context in contexts:
            ids += context
        if sys.byteorder == "big":
            ids.byteswap()
        response = self._exchange({"op": "next_batch", "lens": list(map(len, contexts))}, "dists", ids.tobytes())
        count = response.get("count")
        if type(count) is not int or count != len(contexts):
            raise ProtocolError(f"dists frame has count {count!r} for {len(contexts)} contexts")
        size = count * len(self._vocab) * 8
        try:
            payload = self._stream.read(size)
        except OSError as exc:
            raise self._transport_error(exc) from exc
        if len(payload) != size:
            raise TransportError(f"dists payload cut short: {len(payload)} of {size} bytes")
        return _checked_rows(np.frombuffer(payload, dtype="<f8").reshape(count, len(self._vocab)))

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


def _is_context(ctx: object) -> bool:
    # One type pass: a JSON bool is a bool, not an int, so it fails too.
    return isinstance(ctx, list) and set(map(type, ctx)) <= {int}


def _build_reply(model: LanguageModel, vocab: Vocabulary, request: dict) -> dict:
    """The reply frame to one request other than a protocol 3 ``next_batch``."""
    op = request.get("op")
    if op == "hello":
        requested = request.get("proto")
        # A JSON true or 3.0 compares equal to a version but is not one.
        if type(requested) is not int or requested not in PROTO_VERSIONS:
            return {"op": "err", "code": "bad_proto", "msg": f"unsupported protocol {requested!r}"}
        reply = {
            "op": "vocab",
            "tokens": list(vocab.tokens),
            "bos": vocab.bos_id,
            "eos": vocab.eos_id,
            "unk": vocab.unk_id,
        }
        if requested == 3:
            reply["proto"] = 3
        return reply
    if op == "next":
        ctx = request.get("ctx")
        if not _is_context(ctx):
            return {"op": "err", "code": "bad_context", "msg": "ctx must be a list of ids"}
        rows = _model_rows(model, vocab, [ctx], batch=False)
        return rows if isinstance(rows, dict) else {"op": "dist", "logp": _encode_logp(rows[0])}
    return {"op": "err", "code": "bad_op", "msg": f"unknown op {op!r}"}


def _model_rows(model: LanguageModel, vocab: Vocabulary, contexts: list[list[int]], batch: bool) -> list | dict:
    """The model's row for each context, or the ``err`` reply for the first it cannot serve.

    A ``ValueError`` from the model is ``bad_context``, its message led by
    ``ctxs[i]: `` in a batch; a row that is not |V| long is ``internal``.
    """
    rows = []
    for i, ctx in enumerate(contexts):
        try:
            row = model.next(ctx)
        except ValueError as exc:
            return {"op": "err", "code": "bad_context", "msg": f"ctxs[{i}]: {exc}" if batch else str(exc)}
        if len(row) != len(vocab):
            return {"op": "err", "code": "internal", "msg": f"model returned {len(row)} entries for |V|={len(vocab)}"}
        rows.append(row)
    return rows


def _dists_reply(model: LanguageModel, vocab: Vocabulary, contexts: list[list[int]]) -> tuple[dict, bytes]:
    """The reply to a ``next_batch`` of well-formed contexts: every row, or the first error."""
    rows = _model_rows(model, vocab, contexts, batch=True)
    if isinstance(rows, dict):
        return rows, b""
    return {"op": "dists", "count": len(rows)}, b"".join(row.astype("<f8", copy=False).tobytes() for row in rows)


def _read_contexts(reader: BinaryIO, lens: object) -> list[list[int]]:
    """The contexts of a binary ``next_batch`` whose header carried ``lens``, read from its payload.

    Reads exactly ``4 * sum(lens)`` bytes, and nothing when ``lens`` is
    malformed or that would exceed ``MAX_REQUEST_BYTES``; every failure
    is a ``ProtocolError``.
    """
    if not (_is_context(lens) and 1 <= len(lens) <= MAX_BATCH and min(lens) >= 0):
        raise ProtocolError(f"lens must be a list of 1 to {MAX_BATCH} non-negative integers")
    size = 4 * sum(lens)
    if size > MAX_REQUEST_BYTES:
        raise ProtocolError(f"next_batch payload of {size} bytes exceeds {MAX_REQUEST_BYTES}")
    try:
        raw = reader.read(size)
    except OSError as exc:
        raise ProtocolError(f"next_batch payload unreadable: {exc}") from exc
    if len(raw) != size:
        raise ProtocolError(f"next_batch payload cut short: {len(raw)} of {size} bytes")
    ids = np.frombuffer(raw, dtype="<u4").tolist()
    contexts, end = [], 0
    for n in lens:
        contexts.append(ids[end:end + n])
        end += n
    return contexts


def serve_session(
    model: LanguageModel, reader: BinaryIO, writer: BinaryIO, _lock: AbstractContextManager = nullcontext()
) -> None:
    """Answer protocol requests on a stream pair until it closes.

    Every request line gets exactly one reply frame; the session speaks
    protocol 1 until a ``hello`` selects protocol 3. A request after which
    the next one cannot be found (an over-long line, a bad binary
    ``next_batch``, any malformed line in a protocol 3 session) ends the
    session after its ``bad_frame`` reply. The session holds ``_lock``
    while it computes each reply, and reads and writes the streams
    without it; :class:`LMServer` passes the lock its sessions share.
    """
    vocab = model.vocabulary()
    proto = 1  # as chosen by the session's last accepted hello
    while True:
        try:
            line = reader.readline(MAX_REQUEST_BYTES)
        except OSError:
            return
        if not line:
            return
        payload, unsynced = b"", len(line) == MAX_REQUEST_BYTES and not line.endswith(b"\n")
        try:
            if unsynced:
                raise ProtocolError(f"request line exceeds {MAX_REQUEST_BYTES} bytes")
            request = _parse(line)
            if proto == 3 and request["op"] == "next_batch":
                contexts = _read_contexts(reader, request.get("lens"))
                with _lock:
                    reply, payload = _dists_reply(model, vocab, contexts)
            else:
                with _lock:
                    reply = _build_reply(model, vocab, request)
        except ProtocolError as exc:
            reply = {"op": "err", "code": "bad_frame", "msg": str(exc)}
            # In protocol 3, a malformed request may be a header whose payload follows.
            unsynced = unsynced or proto == 3
        except Exception as exc:  # the model or encoder failed; report it and keep serving
            traceback.print_exc(file=sys.stderr)
            reply = {"op": "err", "code": "internal", "msg": repr(exc)}
        if reply["op"] == "vocab":
            proto = reply.get("proto", 1)
        try:
            _send(writer, reply, payload)
        except OSError:
            return
        if unsynced:
            return


class LMServer(socketserver.ThreadingTCPServer):
    """TCP server exposing one LanguageModel to protocol clients.

    Each connection is one session. Sessions run on their own threads,
    and call the model one request at a time: the server owns one lock,
    and a session holds it while it computes a reply, so no two threads
    ever step the model at once (see :class:`~lyricsense.lm.LanguageModel`).
    A session whose client sends nothing for ``IDLE_TIMEOUT`` seconds,
    read when the server is built, ends and its connection closes.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, model: LanguageModel, host: str = "127.0.0.1", port: int = 0) -> None:
        self.model = model
        lock = threading.Lock()

        class Handler(socketserver.StreamRequestHandler):
            timeout = IDLE_TIMEOUT  # a blocked read raises, which ends serve_session

            def handle(handler) -> None:  # noqa: N805
                serve_session(model, handler.rfile, handler.wfile, lock)

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

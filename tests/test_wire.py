import contextlib
import io
import json
import math
import socket
import socketserver
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import const_model
from lyricsense.lm import Vocabulary, fit_ngram
from lyricsense.wire import (
    MAX_BATCH,
    MAX_REQUEST_BYTES,
    LMServer,
    ProtocolError,
    RemoteLM,
    ServerReported,
    StepTimeout,
    TransportError,
    VocabularyMismatch,
    serve_session,
    serve_stdio,
)


@pytest.fixture(scope="module")
def model():
    return fit_ngram(["a b c a b", "c a b"], order=2, k=0.1, vocab_cap=10)


@pytest.fixture()
def server(model):
    srv = LMServer(model)
    srv.start_background()
    yield srv
    srv.shutdown()
    srv.server_close()


def test_handshake_exposes_vocabulary(server, model):
    with RemoteLM(server.endpoint) as client:
        assert client.vocabulary().tokens == model.vocabulary().tokens
        assert client.vocabulary().eos_id == model.vocabulary().eos_id


def test_remote_distributions_match_local(server, model):
    with RemoteLM(server.endpoint) as client:
        for ctx in ([], [3], [4, 3], [0, 1, 2]):
            remote = client.next(ctx)
            local = model.next(ctx)
            assert np.array_equal(remote, local)  # JSON floats round-trip exactly


def test_uniform_stub_served_uniformly():
    stub = const_model({"a": 0.5, "b": 0.5})
    srv = LMServer(stub)
    srv.start_background()
    try:
        with RemoteLM(srv.endpoint) as client:
            dist = client.next([])
            probs = np.exp(dist)
            a = client.vocabulary().id_of("a")
            b = client.vocabulary().id_of("b")
            assert probs[a] == pytest.approx(0.5)
            assert probs[b] == pytest.approx(0.5)
            assert probs.sum() == pytest.approx(1.0)
    finally:
        srv.shutdown()
        srv.server_close()


def test_negative_infinity_round_trips():
    stub = const_model({"a": 1.0})  # everything else gets -inf
    srv = LMServer(stub)
    srv.start_background()
    try:
        with RemoteLM(srv.endpoint) as client:
            logp = client.next([])
            assert logp[client.vocabulary().id_of("a")] == 0.0
            assert logp[client.vocabulary().eos_id] == -math.inf
    finally:
        srv.shutdown()
        srv.server_close()


def test_server_rejects_bad_context(server):
    with RemoteLM(server.endpoint) as client:
        with pytest.raises(ServerReported) as exc_info:
            client.next([10_000])
        assert exc_info.value.code == "bad_context"
        assert not exc_info.value.retryable
        # session survives an error frame
        client.next([])


def test_connect_failure_is_retryable_transport_error():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    with pytest.raises(TransportError) as exc_info:
        RemoteLM(f"127.0.0.1:{free_port}")
    assert exc_info.value.retryable


def test_bad_endpoint_string():
    with pytest.raises(ValueError):
        RemoteLM("nonsense")


def test_failed_handshake_closes_the_socket():
    listener = socket.create_server(("127.0.0.1", 0))
    eof = threading.Event()

    def serve():
        conn, _ = listener.accept()
        conn.settimeout(10)
        with conn, conn.makefile("rwb") as stream:
            stream.readline()
            stream.write(b'{"op": "dist", "logp": []}\n')
            stream.flush()
            if stream.readline() == b"":
                eof.set()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port = listener.getsockname()[:2]
    try:
        with pytest.raises(ProtocolError, match="expected vocab frame") as exc_info:
            RemoteLM(f"{host}:{port}")
        # exc_info keeps the traceback, and with it the half-built client, alive.
        assert eof.wait(timeout=5), "the server saw no EOF: the client socket is still open"
        assert exc_info.value is not None
    finally:
        listener.close()
        thread.join(timeout=15)
    assert not thread.is_alive()


class _ScriptedServer(socketserver.ThreadingTCPServer):
    """Replies the handshake honestly, then runs a scripted step behavior."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, vocab: Vocabulary, behavior: str):
        self.vocab = vocab
        self.behavior = behavior
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(handler):  # noqa: N805
                for line in handler.rfile:
                    request = json.loads(line)
                    if request.get("op") == "hello":
                        reply = {
                            "op": "vocab",
                            "tokens": list(outer.vocab.tokens),
                            "bos": outer.vocab.bos_id,
                            "eos": outer.vocab.eos_id,
                            "unk": outer.vocab.unk_id,
                        }
                        handler.wfile.write((json.dumps(reply) + "\n").encode())
                        handler.wfile.flush()
                        continue
                    if outer.behavior == "short_vector":
                        reply = {"op": "dist", "logp": [0.0, -1.0]}
                        handler.wfile.write((json.dumps(reply) + "\n").encode())
                    elif outer.behavior == "garbage":
                        handler.wfile.write(b"%%% not json %%%\n")
                    elif outer.behavior == "close":
                        return
                    elif outer.behavior == "hang":
                        threading.Event().wait(5.0)
                        return
                    elif outer.behavior == "nan":
                        size = len(outer.vocab)
                        reply = {"op": "dist", "logp": ["+inf"] + [0.0] * (size - 1)}
                        handler.wfile.write((json.dumps(reply) + "\n").encode())
                    handler.wfile.flush()

        super().__init__(("127.0.0.1", 0), Handler)

    @property
    def endpoint(self):
        host, port = self.server_address[:2]
        return f"{host}:{port}"


@pytest.fixture()
def scripted(request):
    vocab = Vocabulary.build(["a", "b"])
    srv = _ScriptedServer(vocab, request.param)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.mark.parametrize("scripted", ["short_vector"], indirect=True)
def test_wrong_length_vector_is_vocabulary_mismatch(scripted):
    client = RemoteLM(scripted.endpoint)
    with pytest.raises(VocabularyMismatch) as exc_info:
        client.next([0])
    assert not exc_info.value.retryable
    client.close()


@pytest.mark.parametrize("scripted", ["garbage"], indirect=True)
def test_malformed_frame_is_protocol_error(scripted):
    client = RemoteLM(scripted.endpoint)
    with pytest.raises(ProtocolError):
        client.next([0])
    client.close()


@pytest.mark.parametrize("scripted", ["close"], indirect=True)
def test_mid_session_close_is_retryable_transport_error(scripted):
    client = RemoteLM(scripted.endpoint)
    with pytest.raises(TransportError) as exc_info:
        client.next([0])
    assert exc_info.value.retryable
    assert not isinstance(exc_info.value, ProtocolError)
    client.close()


@pytest.mark.parametrize("scripted", ["hang"], indirect=True)
def test_unresponsive_server_times_out(scripted):
    client = RemoteLM(scripted.endpoint, timeout=0.3)
    with pytest.raises(StepTimeout) as exc_info:
        client.next([0])
    assert exc_info.value.retryable
    client.close()


@pytest.mark.parametrize("scripted", ["nan"], indirect=True)
def test_non_finite_entries_rejected(scripted):
    client = RemoteLM(scripted.endpoint)
    with pytest.raises(ProtocolError):
        client.next([0])
    client.close()


def test_server_error_frames_for_bad_requests(server):
    host, port = server.endpoint.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)))
    stream = sock.makefile("rwb")

    def ask(obj):
        stream.write((json.dumps(obj) + "\n").encode())
        stream.flush()
        return json.loads(stream.readline())

    assert ask({"op": "hello", "proto": 99}) == {
        "op": "err", "code": "bad_proto", "msg": "unsupported protocol 99",
    }
    assert ask({"op": "dance"})["code"] == "bad_op"
    assert ask({"op": "next", "ctx": "zero"})["code"] == "bad_context"
    stream.write(b"not json at all\n")
    stream.flush()
    assert json.loads(stream.readline())["code"] == "bad_frame"
    # still serves a good request afterwards
    assert ask({"op": "hello", "proto": 1})["op"] == "vocab"
    sock.close()


def test_stdio_session(model):
    requests = b'{"op": "hello", "proto": 1}\n{"op": "next", "ctx": []}\n'
    out = io.BytesIO()
    serve_stdio(model, stdin=io.BytesIO(requests), stdout=out)
    lines = out.getvalue().decode().strip().split("\n")
    assert json.loads(lines[0])["op"] == "vocab"
    reply = json.loads(lines[1])
    assert reply["op"] == "dist"
    assert len(reply["logp"]) == len(model.vocabulary())


# ----------------------------------------------------------------- protocol 3


class _ReplyFnServer(socketserver.ThreadingTCPServer):
    """Answers each request line with ``reply_fn(request)``; records the requests."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, reply_fn):
        self.requests = []
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(handler):  # noqa: N805
                for line in handler.rfile:
                    request = json.loads(line)
                    outer.requests.append(request)
                    handler.wfile.write((json.dumps(reply_fn(request)) + "\n").encode())
                    handler.wfile.flush()

        super().__init__(("127.0.0.1", 0), Handler)


@contextlib.contextmanager
def _running(reply_fn):
    srv = _ReplyFnServer(reply_fn)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        host, port = srv.server_address[:2]
        yield srv, f"{host}:{port}"
    finally:
        srv.shutdown()
        srv.server_close()


_AB = Vocabulary.build(["a", "b"])
_UNIFORM = np.full(len(_AB), -math.log(len(_AB)))


def _vocab_frame(vocab, **extra):
    return {"op": "vocab", "tokens": list(vocab.tokens), "bos": vocab.bos_id,
            "eos": vocab.eos_id, "unk": vocab.unk_id, **extra}


def _v1_logp(row):
    """A distribution as a protocol 1 ``logp`` list."""
    return [v if math.isfinite(v) else "-inf" for v in row.tolist()]


def test_v3_client_gets_bit_identical_distributions(server, model):
    with RemoteLM(server.endpoint) as client:
        assert client.proto == 3
        for ctx in ([], [3], [4, 3], [0, 1, 2]):
            remote = client.next(ctx)
            assert remote.tobytes() == model.next(ctx).astype("<f8").tobytes()


def test_v3_negative_infinity_is_native():
    stub = const_model({"a": 0.25, "b": 0.75})
    srv = LMServer(stub)
    srv.start_background()
    try:
        with RemoteLM(srv.endpoint) as client:
            assert client.proto == 3
            remote = client.next([])
            local = stub.next([])
            assert np.isneginf(remote).sum() == len(local) - 2
            assert remote.tobytes() == local.tobytes()
    finally:
        srv.shutdown()
        srv.server_close()


def test_client_falls_back_when_server_rejects_proto_3(model):
    def v1_only(request):
        if request["op"] == "hello":
            if request.get("proto") != 1:
                return {"op": "err", "code": "bad_proto", "msg": f"unsupported protocol {request.get('proto')!r}"}
            return _vocab_frame(model.vocabulary())
        return {"op": "dist", "logp": _v1_logp(model.next(request["ctx"]))}

    contexts = [[], [3], [4, 3], [0, 1, 2]]
    with _running(v1_only) as (srv, endpoint), RemoteLM(endpoint) as client:
        assert client.proto == 1
        remote = client.next_many(contexts)
        assert [r.get("proto") for r in srv.requests[:2]] == [3, 1]  # same connection
    assert [d.tobytes() for d in remote] == [model.next(c).tobytes() for c in contexts]


class _Proto2Client(RemoteLM):
    """A client that opens with the retired protocol 2 hello, as one written before protocol 3."""

    _hello = {"op": "hello", "proto": 2, "batch": True, "ctx": "u32le"}


def test_v2_client_falls_back_when_server_rejects_proto_2(server, model):
    hello = json.dumps(_Proto2Client._hello).encode()
    assert _session(model, [hello]) == [{"op": "err", "code": "bad_proto", "msg": "unsupported protocol 2"}]
    contexts = [[], [3], [4, 3], [0, 1, 2]]
    with _Proto2Client(server.endpoint) as client:
        assert client.proto == 1
        remote = client.next_many(contexts)
    assert [d.tobytes() for d in remote] == [model.next(c).tobytes() for c in contexts]  # JSON floats round-trip exactly


def test_v2_client_falls_back_when_vocab_frame_has_no_proto():
    # The client asks for a newer protocol; a vocab frame without "proto" means protocol 1.
    def ignores_proto(request):
        if request["op"] == "hello":
            return _vocab_frame(_AB)
        return {"op": "dist", "logp": _UNIFORM.tolist()}

    with _running(ignores_proto) as (srv, endpoint), RemoteLM(endpoint) as client:
        assert client.proto == 1
        assert np.array_equal(client.next([3]), _UNIFORM)
        assert len(srv.requests) == 2  # one hello, one step


@pytest.mark.parametrize(
    "frame, field",
    [
        ({**_vocab_frame(_AB), "tokens": "abcde"}, "'tokens'"),
        ({**_vocab_frame(_AB), "tokens": ["a", 2, "c"]}, "'tokens'"),
        ({k: v for k, v in _vocab_frame(_AB).items() if k != "bos"}, "'bos'"),
        ({**_vocab_frame(_AB), "eos": True}, "'eos'"),
        ({**_vocab_frame(_AB), "unk": 2.0}, "'unk'"),
        ({**_vocab_frame(_AB), "tokens": ["<bos>", "<eos>", "<unk>", "a", "a"]}, "tokens must be distinct"),
        ({**_vocab_frame(_AB), "unk": 5}, "reserved ids"),
    ],
    ids=["string_tokens", "non_string_token", "no_bos", "bool_eos", "float_unk", "repeated_token", "unk_out_of_range"],
)
def test_malformed_vocab_frame_is_a_protocol_error(frame, field):
    def replies(request):
        return frame if request["op"] == "hello" else {"op": "dist", "logp": _UNIFORM.tolist()}

    with _running(replies) as (_srv, endpoint):
        with pytest.raises(ProtocolError, match=f"vocab frame: .*{field}"):
            RemoteLM(endpoint)


def test_v1_client_is_answered_with_v1_frames(server, model):
    host, port = server.endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port))) as sock:
        stream = sock.makefile("rwb")

        def ask(obj):
            stream.write((json.dumps(obj) + "\n").encode())
            stream.flush()
            return json.loads(stream.readline())

        vocab = ask({"op": "hello", "proto": 1})
        assert vocab["op"] == "vocab" and "proto" not in vocab
        dist = ask({"op": "next", "ctx": [3]})
        assert set(dist) == {"op", "logp"}
        expected = [v if math.isfinite(v) else "-inf" for v in model.next([3]).tolist()]
        assert dist["logp"] == expected


class _Exploding:
    """Wraps a model; contexts starting with id 4 raise a non-ValueError, and
    with id 5 a ValueError whose message holds a lone surrogate."""

    def __init__(self, model):
        self._model = model

    def vocabulary(self):
        return self._model.vocabulary()

    def next(self, context):
        if context[:1] == [4]:
            raise RuntimeError("model crashed")
        if context[:1] == [5]:
            raise ValueError("bad token \ud800")
        return self._model.next(context)


def _session(model, lines):
    out = io.BytesIO()
    serve_session(model, io.BytesIO(b"".join(line + b"\n" for line in lines)), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def test_server_reports_internal_errors_and_keeps_serving(model):
    replies = _session(_Exploding(model), [
        b'{"op": "hello", "proto": 3}', b'{"op": "next", "ctx": [4]}', b'{"op": "next", "ctx": [5]}',
        b'{"op": "next", "ctx": [3]}',
    ])
    assert [r["op"] for r in replies] == ["vocab", "err", "err", "dist"]
    assert replies[1]["code"] == "internal" and "model crashed" in replies[1]["msg"]
    assert replies[2] == {"op": "err", "code": "bad_context", "msg": "bad token \ud800"}


class _NonFinite:
    """Over _AB, context [3] gets a NaN or +inf entry; any other context is uniform."""

    def __init__(self, bad):
        self._bad = np.array([bad, -math.inf, -math.inf, 0.0, -math.inf])

    def vocabulary(self):
        return _AB

    def next(self, context):
        return self._bad if context == [3] else _UNIFORM


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_v1_server_reports_nan_and_pos_inf_as_internal_errors(bad):
    replies = _session(_NonFinite(bad), [
        b'{"op": "hello", "proto": 1}', b'{"op": "next", "ctx": [3]}', b'{"op": "next", "ctx": [4]}',
    ])
    assert [r["op"] for r in replies] == ["vocab", "err", "dist"]
    assert replies[1]["code"] == "internal"
    assert replies[2]["logp"] == _UNIFORM.tolist()


def test_over_long_request_line_gets_one_error_then_close(model):
    long_line = b'{"op": "next", "ctx": [' + b"3, " * (MAX_REQUEST_BYTES // 3) + b"3]}"
    # Protocol 1, where a malformed line that fits does not end the session.
    replies = _session(model, [b'{"op": "hello", "proto": 1}', long_line, b'{"op": "next", "ctx": []}'])
    assert [r["op"] for r in replies] == ["vocab", "err"]
    assert replies[1]["code"] == "bad_frame"


def test_reply_line_longer_than_the_limit_is_a_protocol_error(monkeypatch):
    import lyricsense.wire as wire

    monkeypatch.setattr(wire, "MAX_REPLY_BYTES", 1024)
    listener = socket.create_server(("127.0.0.1", 0))
    finished = threading.Event()

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.readline()
            stream.write((json.dumps(_vocab_frame(_AB, proto=3)) + "\n").encode())
            stream.flush()
            stream.readline()
            stream.write(b"x" * 4096)  # and never a newline
            stream.flush()
            finished.wait(timeout=10)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port = listener.getsockname()[:2]
    try:
        with RemoteLM(f"{host}:{port}", timeout=5) as client:
            with pytest.raises(ProtocolError, match="exceeds 1024 bytes"):
                client.next([3])
    finally:
        finished.set()
        listener.close()
        thread.join(timeout=5)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_ids = st.integers(0, 8) | st.integers(-(2**70), 2**70)
_protos = st.sampled_from([1, 2, 3, True, False, 1.0, 2.0, 3.0]) | _json_values
_request_lines = st.one_of(
    st.fixed_dictionaries({"op": st.just("next"), "ctx": st.lists(_ids, max_size=5)}),
    st.fixed_dictionaries({"op": st.just("hello"), "proto": _protos}),
    st.fixed_dictionaries({"op": _json_values}, optional={"ctx": _json_values, "proto": _json_values}),
    _json_values,
).map(lambda obj: json.dumps(obj).encode())
_lines = st.lists(
    _request_lines | st.binary(max_size=30).map(lambda raw: raw.replace(b"\n", b"")), max_size=12
)


@pytest.mark.parametrize("proto", [1, 3])
@given(lines=_lines)
@settings(max_examples=60, deadline=None)
@example(lines=[b'{"op": "hello", "proto": true}', b'{"op": "hello", "proto": 1.0}', b'{"op": "hello", "proto": 3.0}'])
def test_every_request_line_gets_exactly_one_reply(model, proto, lines):
    replies = _session(_Exploding(model), [json.dumps({"op": "hello", "proto": proto}).encode(), *lines])
    assert replies[0] == _vocab_frame(model.vocabulary(), **({"proto": 3} if proto == 3 else {}))
    session_proto = proto
    for i, (line, reply) in enumerate(zip(lines, replies[1:])):
        assert reply["op"] in ("vocab", "dist", "err")
        if reply["op"] == "vocab":
            requested = json.loads(line)["proto"]  # only the JSON integers 1 and 3 select a protocol
            assert type(requested) is int and requested in (1, 3)
            assert reply == _vocab_frame(model.vocabulary(), **({"proto": 3} if requested == 3 else {}))
            session_proto = requested
        elif reply["op"] == "dist":
            assert set(reply) == {"op", "logp"}
        elif reply["code"] == "bad_frame" and session_proto == 3:
            # The line may be a binary header whose payload follows: the session ends.
            assert len(replies) == 2 + i
            break
    else:
        assert len(replies) == 1 + len(lines)


# ------------------------------------------------------- protocol 3 batches


@pytest.fixture(scope="module")
def batch_server(model):
    srv = LMServer(model)
    srv.start_background()
    yield srv
    srv.shutdown()
    srv.server_close()


def _frames(raw, size):
    """A session's output as (header, payload) pairs: a ``dists`` header takes count * size * 8 bytes."""
    stream = io.BytesIO(raw)
    frames = []
    for line in iter(stream.readline, b""):
        header = json.loads(line)
        payload = stream.read(header["count"] * size * 8) if header["op"] == "dists" else b""
        frames.append((header, payload))
    return frames


def _binary_request(ctxs, lens=None):
    """A binary next_batch: its header line (``lens`` overrides the true one) and payload."""
    header = {"op": "next_batch", "lens": [len(c) for c in ctxs] if lens is None else lens}
    return json.dumps(header).encode() + b"\n" + np.array([i for c in ctxs for i in c], dtype="<u4").tobytes()


_BINARY_HELLO = b'{"op": "hello", "proto": 3}\n'


def _binary_session(model, reader):
    out = io.BytesIO()
    serve_session(model, reader, out)
    return _frames(out.getvalue(), len(model.vocabulary()))


def _batch_session(model, requests):
    """The frames of a protocol 3 session that sends ``requests``, each a whole request's bytes."""
    return _binary_session(model, io.BytesIO(_BINARY_HELLO + b"".join(requests)))


_ctx_lists = st.lists(st.lists(st.integers(0, 5), max_size=5), min_size=1, max_size=2 * MAX_BATCH + 1)


class _V1Client(RemoteLM):
    """A client that speaks protocol 1 only."""

    _hello = {"op": "hello", "proto": 1}


@given(contexts=_ctx_lists)
@settings(max_examples=40, deadline=None)
def test_next_many_is_bit_identical_to_local_next(batch_server, model, contexts):
    for client_cls in (RemoteLM, _V1Client):  # next_batch frames, then next frames
        with client_cls(batch_server.endpoint) as client:
            assert client.proto == (3 if client_cls is RemoteLM else 1)
            remote = client.next_many(contexts)
        assert len(remote) == len(contexts)
        for dist, ctx in zip(remote, contexts):
            assert dist.tobytes() == model.next(ctx).astype("<f8").tobytes()


_uint32_ctxs = st.lists(st.lists(st.integers(0, 7) | st.just(2**32 - 1), max_size=4), min_size=1, max_size=MAX_BATCH)
_batch_requests = st.one_of(
    _uint32_ctxs.map(lambda ctxs: ("batch", ctxs)),
    st.lists(_ids, max_size=4).map(lambda ctx: ("next", ctx)),
)


@given(requests=st.lists(_batch_requests, max_size=10))
@settings(max_examples=60, deadline=None)
def test_every_batch_request_line_gets_exactly_one_frame(model, requests):
    frames = _batch_session(_Exploding(model), [
        _binary_request(body) if kind == "batch" else json.dumps({"op": "next", "ctx": body}).encode() + b"\n"
        for kind, body in requests
    ])
    assert len(frames) == 1 + len(requests)
    assert frames[0] == (_vocab_frame(model.vocabulary(), proto=3), b"")
    size = len(model.vocabulary())
    for (kind, body), (header, payload) in zip(requests, frames[1:]):
        assert header["op"] in (("dists", "err") if kind == "batch" else ("dist", "err"))
        if header["op"] == "dists":
            assert header == {"op": "dists", "count": len(body)}
            expected = b"".join(model.next(ctx).astype("<f8").tobytes() for ctx in body)
            assert payload == expected and len(payload) <= MAX_BATCH * size * 8
        else:
            assert payload == b""


def test_batch_with_one_bad_context_gets_one_error_and_no_payload(model):
    frames = _batch_session(_Exploding(model), [
        _binary_request([[3], [5], [3]]),
        _binary_request([[3], [4]]),
        _binary_request([[3], [9]]),
        _binary_request([[3]]),
    ])
    assert [(h["op"], h.get("code")) for h, _ in frames[1:]] == [
        ("err", "bad_context"), ("err", "internal"), ("err", "bad_context"), ("dists", None),
    ]
    assert frames[3][0]["msg"] == "ctxs[1]: token id 9 at position 0 out of range for |V|=6"
    assert [p for _, p in frames[1:4]] == [b"", b"", b""]


class _ShortRows:
    """Over _AB, every context gets a 2-entry array."""

    def vocabulary(self):
        return _AB

    def next(self, context):
        return np.log([0.5, 0.5])


def test_batch_row_of_the_wrong_length_is_an_internal_error():
    frames = _batch_session(_ShortRows(), [_binary_request([[3]])])
    assert frames[1] == ({"op": "err", "code": "internal", "msg": "model returned 2 entries for |V|=5"}, b"")


@pytest.mark.parametrize("proto", [1, 3])
def test_next_row_of_the_wrong_length_is_an_internal_error(proto):
    hello = json.dumps({"op": "hello", "proto": proto}).encode()
    replies = _session(_ShortRows(), [hello, b'{"op": "next", "ctx": [3]}', b'{"op": "next", "ctx": [4]}'])
    short = {"op": "err", "code": "internal", "msg": "model returned 2 entries for |V|=5"}
    assert replies[1:] == [short, short]


@pytest.mark.parametrize("ctxs", [[[3]] * (MAX_BATCH + 1), [], "3", None])
def test_batch_outside_one_to_max_batch_contexts_is_an_error(model, ctxs):
    request = _binary_request(ctxs) if isinstance(ctxs, list) else _binary_request([], lens=ctxs)
    frames = _batch_session(model, [request, _binary_request([[3]])])
    assert frames[1:] == [({"op": "err", "code": "bad_frame",
                            "msg": f"lens must be a list of 1 to {MAX_BATCH} non-negative integers"}, b"")]


def test_next_batch_needs_the_batch_capability(model):
    # Only a protocol 3 hello grants next_batch; the retired protocol 2 one leaves a protocol 1 session.
    for hello in [b'{"op": "hello", "proto": 1}', b'{"op": "hello", "proto": 2, "batch": true, "ctx": "u32le"}']:
        replies = _session(model, [hello, b'{"op": "next_batch", "lens": [0]}'])
        assert replies[1] == {"op": "err", "code": "bad_op", "msg": "unknown op 'next_batch'"}


@pytest.mark.parametrize("client_cls", [RemoteLM, _V1Client])
def test_every_client_path_returns_read_only_rows(batch_server, client_cls):
    with client_cls(batch_server.endpoint) as client:
        assert client.proto == {RemoteLM: 3, _V1Client: 1}[client_cls]
        for dist in [client.next([3]), *client.next_many([[], [4, 3]])]:
            assert not dist.flags.writeable


@pytest.mark.parametrize("client_cls", [RemoteLM, _V1Client])
@pytest.mark.parametrize("bad", [1.5, -1, 2**32, "3", None])
def test_client_rejects_ids_that_are_not_uint32(batch_server, model, client_cls, bad):
    with client_cls(batch_server.endpoint) as client:
        with pytest.raises(ValueError, match=rf"context 1: id {bad!r} is not an integer in \[0, 2\*\*32\)"):
            client.next_many([[3], [4, bad, 3]])
        # Nothing was sent, so the session is still in step.
        assert client.next([3]).tobytes() == model.next([3]).tobytes()


def test_binary_contexts_need_a_batch_hello_that_asks_for_them(model):
    vocab = model.vocabulary()
    for hello, granted in [
        (b'{"op": "hello", "proto": 3}', {"proto": 3}),
        (b'{"op": "hello", "proto": 3, "batch": true, "ctx": "u16be"}', {"proto": 3}),  # old fields are ignored
        (b'{"op": "hello", "proto": 1, "batch": true, "ctx": "u32le"}', {}),
    ]:
        assert _session(model, [hello])[0] == _vocab_frame(vocab, **granted)
    for hello in [b'{"op": "hello", "proto": 2, "batch": true, "ctx": "u32le"}', b'{"op": "hello", "proto": 3.0}',
                  b'{"op": "hello", "proto": true}', b'{"op": "hello"}']:
        assert _session(model, [hello])[0]["code"] == "bad_proto"


_bad_lens = st.one_of(
    _json_values.filter(lambda v: not isinstance(v, list)),  # not a list (None stands for a missing field)
    st.lists(st.integers(0, 3), max_size=3).flatmap(  # a bool or negative entry
        lambda lens: st.sampled_from([True, False, -1, -(2**40)]).map(lambda bad: [*lens, bad])
    ),
    st.just([]),
    st.lists(st.integers(0, 2), min_size=MAX_BATCH + 1, max_size=MAX_BATCH + 3),
    st.integers(MAX_REQUEST_BYTES // 4 + 1, 2**70).map(lambda n: [n]),  # payload over the bound
    st.just([MAX_REQUEST_BYTES // 8, MAX_REQUEST_BYTES // 8 + 1]),
)


@given(
    goods=st.lists(_uint32_ctxs, max_size=3),
    bad=st.none()
    | st.tuples(st.just("header"), _bad_lens)
    | st.tuples(st.just("cut"), _uint32_ctxs.filter(any))
    | st.tuples(st.just("line"), st.binary(max_size=20).map(lambda raw: raw.replace(b"\n", b""))),
    tail=st.binary(max_size=40),
)
@settings(max_examples=80, deadline=None)
@example(goods=[[[3]]], bad=("header", None), tail=bytes(12))
@example(goods=[[[3]]], bad=("header", [1, True]), tail=bytes(12))
@example(goods=[[[3]]], bad=("header", [2, -1]), tail=bytes(12))
@example(goods=[[[3]]], bad=("header", []), tail=bytes(12))
@example(goods=[[[3]]], bad=("header", [0] * (MAX_BATCH + 1)), tail=bytes(12))
@example(goods=[[[3]]], bad=("header", [MAX_REQUEST_BYTES // 4 + 1]), tail=bytes(12))
@example(goods=[[[3]]], bad=("cut", [[3, 4]]), tail=bytes(12))
@example(goods=[[[3]]], bad=("line", b""), tail=b"\x0a\x0a\x0a\x0a" + b'{"op": "hello", "proto": 3}\n')
def test_every_binary_next_batch_gets_one_frame_and_a_bad_header_ends_the_session(model, goods, bad, tail):
    size = len(model.vocabulary())
    raw = _BINARY_HELLO + b"".join(_binary_request(ctxs) for ctxs in goods)
    stop = len(raw)  # how far the server may read
    if bad is not None and bad[0] in ("header", "line"):
        # A header that is not valid UTF-8 cannot be parsed; its payload may follow all the same.
        raw += _binary_request([], lens=bad[1]) if bad[0] == "header" else b'{"op": "next_batch"\xff' + bad[1] + b"\n"
        stop = len(raw)
        raw += tail  # the payload and any later requests stay unread
    elif bad is not None:
        request = _binary_request(bad[1])
        raw += request[:len(request) - 1 - len(tail) % 4]  # 1 to 4 bytes of the payload missing
        stop = len(raw)
    reader = io.BytesIO(raw)
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        frames = _binary_session(model, reader)
    assert stderr.getvalue() == ""
    assert reader.tell() == stop
    assert frames[0][0] == _vocab_frame(model.vocabulary(), proto=3)
    assert len(frames) == 1 + len(goods) + (bad is not None)
    for ctxs, (header, payload) in zip(goods, frames[1:]):
        if any(i >= size for c in ctxs for i in c):
            assert header["code"] == "bad_context" and payload == b""
        else:
            assert header == {"op": "dists", "count": len(ctxs)}
            assert payload == b"".join(model.next(c).astype("<f8").tobytes() for c in ctxs)
    if bad is not None:
        header, payload = frames[-1]
        assert header["op"] == "err" and header["code"] == "bad_frame" and payload == b""


def test_client_without_server_capability_sends_next_frames(model):
    # A server that predates protocol 3, or ignores the requested version, sends no "proto": 3.
    def v1_only(request):
        if request["op"] == "hello":
            return _vocab_frame(model.vocabulary())
        return {"op": "dist", "logp": _v1_logp(model.next(request["ctx"]))}

    contexts = [[], [3], [4, 3]]
    with _running(v1_only) as (srv, endpoint), RemoteLM(endpoint) as client:
        assert client.proto == 1
        remote = client.next_many(contexts)
    assert srv.requests[0] == {"op": "hello", "proto": 3}
    assert srv.requests[1:] == [{"op": "next", "ctx": ctx} for ctx in contexts]
    assert all(d.tobytes() == model.next(c).tobytes() for d, c in zip(remote, contexts))


class _BatchReplyServer(socketserver.ThreadingTCPServer):
    """Speaks protocol 3 over _AB and answers each step with the bytes ``reply_fn(request)``.

    It reads each ``next_batch`` payload before it replies. With
    ``close_after_reply`` it closes the connection after its first step
    reply, as a server that dies mid-payload would.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, reply_fn, close_after_reply=False):
        class Handler(socketserver.StreamRequestHandler):
            def handle(handler):  # noqa: N805
                for line in handler.rfile:
                    request = json.loads(line)
                    if request["op"] == "hello":
                        frame = json.dumps(_vocab_frame(_AB, proto=3)).encode() + b"\n"
                    else:
                        handler.rfile.read(4 * sum(request["lens"]))
                        frame = reply_fn(request)
                    handler.wfile.write(frame)
                    handler.wfile.flush()
                    if close_after_reply and request["op"] != "hello":
                        return

        super().__init__(("127.0.0.1", 0), Handler)


def _dists(count, rows):
    return json.dumps({"op": "dists", "count": count}).encode() + b"\n" + np.asarray(rows, dtype="<f8").tobytes()


def _with_entry(value):
    """_UNIFORM with entry 3 replaced by ``value``."""
    return np.where(np.arange(len(_AB)) == 3, value, _UNIFORM)


@pytest.mark.parametrize(
    "reply_fn, error",
    [
        (lambda req: _dists(len(req["lens"]), [_UNIFORM] * len(req["lens"]))[:-8], TransportError),
        (lambda req: _dists(len(req["lens"]) + 1, [_UNIFORM] * (len(req["lens"]) + 1)), ProtocolError),
        (lambda req: _dists(True, [_UNIFORM]), ProtocolError),
        (lambda req: _dists(len(req["lens"]), [_UNIFORM, _with_entry(math.nan)]), ProtocolError),
        (lambda req: _dists(len(req["lens"]), [_with_entry(math.inf), _UNIFORM]), ProtocolError),
        (lambda req: _dists(len(req["lens"]), [_UNIFORM, _with_entry(0.0)]), ProtocolError),
        (lambda req: (json.dumps({"op": "dist", "logp": _UNIFORM.tolist()}) + "\n").encode(), ProtocolError),
    ],
    ids=["truncated", "wrong_count", "bool_count", "nan", "pos_inf", "sum_off", "wrong_op"],
)
def test_bad_batch_replies_raise_typed_errors(reply_fn, error):
    srv = _BatchReplyServer(reply_fn, close_after_reply=error is TransportError)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    host, port = srv.server_address[:2]
    try:
        with RemoteLM(f"{host}:{port}", timeout=5) as client:
            assert client.proto == 3
            with pytest.raises(error) as exc_info:
                client.next_many([[3], [4]])
        assert exc_info.value.retryable == (error is TransportError)
        assert not isinstance(exc_info.value, StepTimeout)
    finally:
        srv.shutdown()
        srv.server_close()


class _CacheWatcher:
    """``model``, recording the most rows its cache held after any ``next``."""

    def __init__(self, model):
        self._model = model
        self.peak = 0

    def vocabulary(self):
        return self._model.vocabulary()

    def next(self, context):
        row = self._model.next(context)
        self.peak = max(self.peak, len(self._model._cache))
        return row


def test_served_model_cache_stays_within_its_budget(monkeypatch):
    import lyricsense.lm as lm

    texts = [" ".join(f"w{i}" for i in range(40))]
    uncapped = fit_ngram(texts, order=2, k=0.1, vocab_cap=100)
    size = len(uncapped.vocabulary())
    monkeypatch.setattr(lm, "CACHE_BYTES", 5 * 8 * size)
    served = _CacheWatcher(fit_ngram(texts, order=2, k=0.1, vocab_cap=100))
    contexts = [[i] for i in range(size)]  # 41 of them have counts: BOS and each word
    batches = [contexts[i:i + 16] for i in range(0, len(contexts), 16)] * 2
    frames = _batch_session(served, [_binary_request(batch) for batch in batches] + [
        json.dumps({"op": "next", "ctx": ctx}).encode() + b"\n" for ctx in contexts
    ])
    assert len(frames) == 1 + len(batches) + len(contexts)
    for batch, (header, payload) in zip(batches, frames[1:]):
        assert header == {"op": "dists", "count": len(batch)}
        assert payload == b"".join(uncapped.next(ctx).astype("<f8").tobytes() for ctx in batch)
    for ctx, (header, _payload) in zip(contexts, frames[1 + len(batches):]):
        assert header["op"] == "dist" and header["logp"] == uncapped.next(ctx).tolist()  # every entry is finite
    assert served.peak == 5 and len(uncapped._cache) == 41


class _OverlapWatcher(_CacheWatcher):
    """``model``, also counting the ``next`` calls that begin while another is running."""

    def __init__(self, model):
        super().__init__(model)
        self._busy = threading.Lock()
        self.overlaps = 0

    def next(self, context):
        alone = self._busy.acquire(blocking=False)
        self.overlaps += not alone
        try:
            time.sleep(0)  # hand over the GIL, so that a thread stepping alongside runs now
            return super().next(context)
        finally:
            if alone:
                self._busy.release()


def test_concurrent_sessions_step_the_model_one_request_at_a_time(monkeypatch):
    import lyricsense.lm as lm

    texts = [" ".join(f"w{i % 23}" for i in range(0, 400, 7)), " ".join(f"w{i}" for i in range(23))]
    uncapped = fit_ngram(texts, order=2, k=0.2, vocab_cap=40)
    size = len(uncapped.vocabulary())
    expected = [uncapped.next([i]).tobytes() for i in range(size)]
    monkeypatch.setattr(lm, "CACHE_BYTES", 2 * 8 * size)
    served = _OverlapWatcher(fit_ngram(texts, order=2, k=0.2, vocab_cap=40))
    clients = [RemoteLM, RemoteLM, _V1Client, _V1Client]  # protocol 3 and protocol 1 sessions
    together = threading.Barrier(len(clients))
    errors = []

    def steps(client_cls, offset):
        try:
            with client_cls(srv.endpoint, timeout=5) as client:
                together.wait(timeout=5)
                for n in range(25):
                    ids = [(n * 7 + offset + j) % size for j in range(3)]
                    for i, row in zip(ids, client.next_many([[i] for i in ids])):
                        if row.tobytes() != expected[i]:
                            errors.append(f"row of {i} differs")
        except Exception as exc:  # an err frame raises ServerReported; any exception fails the test below
            errors.append(repr(exc))

    srv = LMServer(served)
    srv.start_background()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=steps, args=(cls, offset)) for offset, cls in enumerate(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        srv.shutdown()
        srv.server_close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert served.overlaps == 0
    assert served.peak == 2


def test_idle_sessions_end_and_their_threads_exit(model, monkeypatch):
    import lyricsense.wire as wire

    monkeypatch.setattr(wire, "IDLE_TIMEOUT", 0.2)
    threads = []
    real_serve_session = wire.serve_session

    def recording_serve_session(*args):
        threads.append(threading.current_thread())
        real_serve_session(*args)

    monkeypatch.setattr(wire, "serve_session", recording_serve_session)
    srv = LMServer(model)
    srv.start_background()
    host, port = srv.server_address[:2]
    try:
        start = time.monotonic()
        idle = [socket.create_connection((host, port), timeout=5) for _ in range(3)]
        try:
            assert [conn.recv(1) for conn in idle] == [b""] * 3  # EOF, not a recv timeout
        finally:
            for conn in idle:
                conn.close()
        assert time.monotonic() - start >= 0.15
        for thread in threads:
            thread.join(timeout=5)
        assert len(threads) == 3 and not any(thread.is_alive() for thread in threads)
        # A client that steps more often than the idle timeout keeps its session.
        with RemoteLM(srv.endpoint) as client:
            for ctx in ([], [3], [3, 4], [4], [3], [], [4, 3], [3]):
                time.sleep(0.1)
                assert client.next(ctx).tobytes() == model.next(ctx).tobytes()
        assert len(threads) == 4
    finally:
        srv.shutdown()
        srv.server_close()

"""Fuzzing the JSON-lines service protocol.

Whatever bytes arrive — corrupt, truncated, deeply nested, oversize or
plain random — the decoder either returns the request the bytes spell or
raises :class:`ProtocolError` with a pinned code, never another
exception; the daemon answers every complete line with a response that
is ``ok`` or carries a pinned code; and over a socket no such line hangs
the connection or the daemon (a ``ping`` on the same connection still
answers).  ``test_faults.py`` pins one example of each fault; this suite
searches for the ones nobody thought of.
"""

import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pipeline import SystemConfig
from repro.service import MAX_LINE_BYTES, ServiceDaemon
from repro.service.protocol import (
    ERROR_CODES,
    ERROR_MALFORMED,
    ERROR_OVERSIZE,
    OPS,
    QUERY_KINDS,
    ProtocolError,
    decode_request,
    decode_response,
    encode,
)

#: Codes the frame decoder itself may raise (the rest come from handlers).
DECODE_CODES = ("malformed", "oversize", "unsupported-version")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

#: Requests shaped like real ones — a known or unknown op, plausible and
#: implausible field values — minus ``shutdown``, which would end the
#: shared daemon.
requests = st.fixed_dictionaries(
    {"v": st.sampled_from([1, 1, 1, 0, 2, "1", None])},
    optional={
        "op": st.sampled_from([op for op in OPS if op != "shutdown"])
        | st.text(max_size=6),
        "what": st.sampled_from(QUERY_KINDS) | st.text(max_size=6),
        "k": json_values,
        "min_support": json_values,
        "tags": json_values,
        "tagsets": json_values,
        "documents": st.lists(
            st.fixed_dictionaries({}, optional={
                "tags": json_values, "timestamp": json_values,
                "doc_id": json_values, "text": json_values,
            }),
            max_size=3,
        ) | json_values,
        "block": json_values,
        "timeout": st.sampled_from([0.001, -1, "soon", None]),
    },
)

CONFIG = SystemConfig(
    algorithm="DS", k=2, n_partitioners=2, window_mode="count",
    window_size=200, bootstrap_documents=50, quality_check_interval=50,
    report_interval_seconds=30.0,
)


def assert_pinned_or_decoded(line: bytes):
    try:
        request = decode_request(line)
    except ProtocolError as exc:
        assert exc.code in DECODE_CODES
        return exc.code
    # Decoded: it is exactly the object the bytes spell, at version 1.
    assert request == json.loads(line)
    assert request["v"] == 1
    return None


class TestDecoder:
    @given(line=st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes(self, line):
        assert_pinned_or_decoded(line)

    @given(request=requests, cut=st.integers(min_value=1))
    @settings(max_examples=200, deadline=None)
    def test_truncated_request_is_malformed(self, request, cut):
        """Every strict prefix of an encoded object lacks its closing
        brace, so it can never decode to a (different) request."""
        line = encode(request).rstrip(b"\n")
        prefix = line[: cut % len(line)]
        assert assert_pinned_or_decoded(prefix) == ERROR_MALFORMED

    @given(request=requests, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_request(self, request, data):
        line = bytearray(encode(request))
        for _ in range(data.draw(st.integers(1, 4))):
            position = data.draw(st.integers(0, len(line) - 1))
            line[position] = data.draw(st.integers(0, 255))
        assert_pinned_or_decoded(bytes(line))

    @pytest.mark.parametrize("line", [
        b"[" * 100_000,
        b'{"v":1,"x":' + b"[" * 100_000,
        b'{"a":' * 50_000 + b"1" + b"}" * 50_000,
    ])
    def test_deep_nesting_is_malformed(self, line):
        """Nesting past the parser's stack used to leak RecursionError."""
        assert assert_pinned_or_decoded(line) == ERROR_MALFORMED
        with pytest.raises(ProtocolError) as caught:
            decode_response(line)
        assert caught.value.code == ERROR_MALFORMED

    @pytest.mark.parametrize("body", [b'{"v":1,"op":"ping"}', b"garbage"])
    def test_oversize_wins_over_content(self, body):
        line = body + b" " * (MAX_LINE_BYTES + 1 - len(body))
        assert assert_pinned_or_decoded(line) == ERROR_OVERSIZE
        assert assert_pinned_or_decoded(line[:-1]) != ERROR_OVERSIZE


@pytest.fixture(scope="module")
def daemon():
    with ServiceDaemon(CONFIG) as running:
        yield running


class TestDaemon:
    @given(request=requests)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_request_gets_ok_or_a_pinned_code(self, daemon, request):
        response = daemon.dispatch_line(encode(request))
        assert response["ok"] is True or response["code"] in ERROR_CODES
        json.dumps(response)  # always encodable back onto the wire

    @given(line=st.binary(max_size=120).filter(lambda b: b"\n" not in b))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_socket_never_hangs(self, daemon, line):
        """One fuzzed line then a ping on the same connection: both are
        answered (the first with ok or a pinned code) well within the
        timeout, and the connection stays usable."""
        with socket.create_connection(daemon.address, timeout=10.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(line + b"\n" + encode({"v": 1, "op": "ping"}))
            first = json.loads(reader.readline())
            assert first["ok"] is True or first["code"] in ERROR_CODES
            assert json.loads(reader.readline())["ok"] is True

    def test_truncated_line_then_close_leaves_the_daemon_serving(self, daemon):
        line = encode({"v": 1, "op": "query", "what": "stats"})
        for cut in (1, len(line) // 2, len(line) - 1):
            with socket.create_connection(daemon.address, timeout=10.0) as sock:
                sock.sendall(line[:cut])  # no newline: the client died
                sock.shutdown(socket.SHUT_WR)
                assert sock.makefile("rb").readline() == b""  # hung up, no reply
        with socket.create_connection(daemon.address, timeout=10.0) as sock:
            sock.sendall(line)
            assert json.loads(sock.makefile("rb").readline())["ok"] is True

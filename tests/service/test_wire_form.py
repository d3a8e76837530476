"""Unit tests of the service's wire-form codec and response builders.

The daemon suites exercise these helpers through a socket; here each one is
pinned on its own: a document survives the JSON round trip unchanged, every
structurally wrong ingest document or tag list is refused with the pinned
``bad-request`` code (never a bare ``KeyError``/``TypeError``), and the
response builders emit exactly the shapes the protocol docstring promises.
"""

import json

import pytest

from repro.core.documents import Document
from repro.service.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_CODES,
    ERROR_MALFORMED,
    ERROR_UNSUPPORTED_VERSION,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    decode_response,
    document_from_wire,
    document_to_wire,
    documents_from_wire,
    encode,
    error_response,
    ok_response,
    tagset_from_wire,
    tagsets_to_wire,
)


def _through_json(obj):
    return json.loads(json.dumps(obj))


class TestDocumentRoundTrip:
    @pytest.mark.parametrize(
        "document",
        [
            Document(doc_id=0, tags=frozenset({"a"}), timestamp=0.0),
            Document(
                doc_id=17,
                tags=frozenset({"beer", "munich", "oktoberfest"}),
                timestamp=12.5,
                text="prost",
            ),
            Document(doc_id=3, tags=frozenset(), timestamp=1.0),
            Document(
                doc_id=2**40, tags=frozenset({"zürich", "東京"}), timestamp=1e9
            ),
        ],
        ids=["single-tag", "with-text", "untagged", "unicode-large-id"],
    )
    def test_round_trip_is_identity(self, document):
        assert document_from_wire(_through_json(document_to_wire(document))) == (
            document
        )

    def test_tags_travel_sorted(self):
        wire = document_to_wire(
            Document(doc_id=1, tags=frozenset({"c", "a", "b"}), timestamp=0.0)
        )
        assert wire["tags"] == ["a", "b", "c"]

    def test_missing_optional_fields_take_defaults(self):
        document = document_from_wire({"tags": ["x"], "timestamp": 4})
        assert document.doc_id == 0
        assert document.text == ""
        assert document.timestamp == 4.0
        assert isinstance(document.timestamp, float)

    def test_duplicate_wire_tags_collapse(self):
        document = document_from_wire({"tags": ["x", "x", "y"], "timestamp": 0})
        assert document.tags == frozenset({"x", "y"})

    def test_tags_may_arrive_as_a_tuple(self):
        document = document_from_wire({"tags": ("x", "y"), "timestamp": 0})
        assert document.tags == frozenset({"x", "y"})


class TestDocumentRejections:
    @pytest.mark.parametrize(
        "obj",
        [
            ["tags", "timestamp"],
            "doc",
            None,
            7,
            {"timestamp": 1.0},
            {"tags": ["a"]},
            {"tags": "ab", "timestamp": 0},
            {"tags": ["a", 1], "timestamp": 0},
            {"tags": [["a"]], "timestamp": 0},
            {"tags": ["a"], "timestamp": "0"},
            {"tags": ["a"], "timestamp": None},
            {"tags": ["a"], "timestamp": True},
            {"tags": ["a"], "timestamp": 0, "doc_id": True},
            {"tags": ["a"], "timestamp": 0, "doc_id": 1.5},
            {"tags": ["a"], "timestamp": 0, "doc_id": "1"},
        ],
        ids=[
            "list",
            "string",
            "null",
            "number",
            "missing-tags",
            "missing-timestamp",
            "tags-string",
            "tags-int-member",
            "tags-nested-list",
            "timestamp-string",
            "timestamp-null",
            "timestamp-bool",
            "doc-id-bool",
            "doc-id-float",
            "doc-id-string",
        ],
    )
    def test_is_a_bad_request(self, obj):
        with pytest.raises(ProtocolError) as excinfo:
            document_from_wire(obj)
        assert excinfo.value.code == ERROR_BAD_REQUEST

    def test_missing_field_is_named(self):
        with pytest.raises(ProtocolError, match="'timestamp'"):
            document_from_wire({"tags": ["a"]})


class TestDocumentsFromWire:
    @pytest.mark.parametrize(
        "objs", [{"tags": ["a"], "timestamp": 0}, "docs", None, ("a",)],
        ids=["object", "string", "null", "tuple"],
    )
    def test_non_list_is_a_bad_request(self, objs):
        with pytest.raises(ProtocolError) as excinfo:
            documents_from_wire(objs)
        assert excinfo.value.code == ERROR_BAD_REQUEST

    def test_empty_list_is_no_documents(self):
        assert documents_from_wire([]) == []

    def test_order_is_kept(self):
        objs = [{"doc_id": i, "tags": [f"t{i}"], "timestamp": i} for i in range(5)]
        assert [doc.doc_id for doc in documents_from_wire(objs)] == list(range(5))

    def test_one_bad_member_refuses_the_batch(self):
        objs = [{"tags": ["a"], "timestamp": 0}, {"tags": ["b"]}]
        with pytest.raises(ProtocolError) as excinfo:
            documents_from_wire(objs)
        assert excinfo.value.code == ERROR_BAD_REQUEST


class TestTagsets:
    @pytest.mark.parametrize(
        "obj",
        [[], (), "ab", None, {"a": 1}, [1], ["a", 2], ["a", None]],
        ids=[
            "empty-list",
            "empty-tuple",
            "string",
            "null",
            "object",
            "int-member",
            "mixed-members",
            "null-member",
        ],
    )
    def test_is_a_bad_request(self, obj):
        with pytest.raises(ProtocolError) as excinfo:
            tagset_from_wire(obj)
        assert excinfo.value.code == ERROR_BAD_REQUEST

    def test_list_becomes_a_frozenset(self):
        assert tagset_from_wire(["b", "a", "b"]) == frozenset({"a", "b"})

    def test_rows_are_sorted_triples_in_row_order(self):
        rows = [
            (frozenset({"z", "a"}), 0.5, 3),
            (frozenset({"m"}), 1.0, 9),
        ]
        wire = tagsets_to_wire(rows)
        assert wire == [[["a", "z"], 0.5, 3], [["m"], 1.0, 9]]
        assert _through_json(wire) == wire


class TestResponses:
    def test_ok_response_carries_the_payload(self):
        assert ok_response("query", round=3, rows=[]) == {
            "ok": True,
            "op": "query",
            "round": 3,
            "rows": [],
        }

    @pytest.mark.parametrize("code", ERROR_CODES)
    def test_error_response_for_every_pinned_code(self, code):
        response = error_response(code, "why")
        assert response == {"ok": False, "code": code, "error": "why"}
        assert decode_response(encode(response)) == response

    def test_error_response_refuses_an_unpinned_code(self):
        with pytest.raises(AssertionError):
            error_response("teapot", "no")


class TestFraming:
    def test_encode_is_one_compact_line(self):
        line = encode({"v": PROTOCOL_VERSION, "op": "ping"})
        assert line == b'{"v":1,"op":"ping"}\n'
        assert line.count(b"\n") == 1

    def test_request_round_trip(self):
        request = {"v": PROTOCOL_VERSION, "op": "query", "what": "top_k", "k": 5}
        assert decode_request(encode(request)) == request

    @pytest.mark.parametrize(
        "line, code",
        [
            (b"[1, 2]\n", ERROR_MALFORMED),
            (b'"ping"\n', ERROR_MALFORMED),
            (b"\xff\xfe\n", ERROR_MALFORMED),
            (b'{"op":"ping"}\n', ERROR_UNSUPPORTED_VERSION),
            (b'{"v":"1","op":"ping"}\n', ERROR_UNSUPPORTED_VERSION),
            (b'{"v":2,"op":"ping"}\n', ERROR_UNSUPPORTED_VERSION),
        ],
        ids=[
            "array",
            "string",
            "not-utf8",
            "no-version",
            "string-version",
            "future-version",
        ],
    )
    def test_request_refusals(self, line, code):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(line)
        assert excinfo.value.code == code

    @pytest.mark.parametrize(
        "line", [b"[]\n", b"nope\n", b"\xff\n"], ids=["array", "garbage", "not-utf8"]
    )
    def test_response_refusals(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            decode_response(line)
        assert excinfo.value.code == ERROR_MALFORMED

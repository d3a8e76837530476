"""Versioned JSON-lines wire protocol of the always-on service.

One request per line, one response per line, UTF-8 JSON — trivially
debuggable with ``nc`` and trivially framed (``readline``).  Every request
carries the protocol version::

    {"v": 1, "op": "query", "what": "top_k", "k": 5}

and every response either succeeds::

    {"ok": true, "op": "query", "round": 12, ...}

or fails with a *pinned* error code from :data:`ERROR_CODES`::

    {"ok": false, "code": "backpressure", "error": "ingest queue is full..."}

The codes — not the human-readable messages — are the contract the
fault-injection suite pins; see docs/ARCHITECTURE.md "Service mode" for the
full request/response table.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from ..core.documents import Document

#: Current protocol version; requests carrying any other ``v`` are refused
#: with ``unsupported-version``.
PROTOCOL_VERSION = 1

#: Hard cap on one request line (framing guard: a client that streams an
#: unbounded line is cut off with ``oversize`` instead of buffering it).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Pinned error codes of failure responses.
ERROR_MALFORMED = "malformed"  # not valid JSON / not a JSON object
ERROR_OVERSIZE = "oversize"  # request line exceeds MAX_LINE_BYTES
ERROR_UNSUPPORTED_VERSION = "unsupported-version"
ERROR_UNKNOWN_OP = "unknown-op"
ERROR_BACKPRESSURE = "backpressure"  # bounded ingest queue is full
ERROR_DRAINING = "draining"  # ingest after shutdown started
ERROR_SHUTDOWN = "shutdown"  # duplicate shutdown; ingest after the writer died
ERROR_BAD_REQUEST = "bad-request"  # structurally valid, semantically not

ERROR_CODES = (
    ERROR_MALFORMED,
    ERROR_OVERSIZE,
    ERROR_UNSUPPORTED_VERSION,
    ERROR_UNKNOWN_OP,
    ERROR_BACKPRESSURE,
    ERROR_DRAINING,
    ERROR_SHUTDOWN,
    ERROR_BAD_REQUEST,
)

#: Request operations.
OPS = ("ping", "ingest", "query", "track", "shutdown")
#: ``query`` flavours.
QUERY_KINDS = ("top_k", "coefficient", "tracked", "stats")


class ProtocolError(Exception):
    """A request that must be refused with a pinned error code."""

    def __init__(self, code: str, message: str) -> None:
        assert code in ERROR_CODES
        super().__init__(message)
        self.code = code
        self.message = message


def encode(payload: dict) -> bytes:
    """One response/request line: compact JSON plus the newline frame."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_request(line: bytes) -> dict:
    """Parse and version-check one request line.

    Raises :class:`ProtocolError` with ``oversize``, ``malformed`` or
    ``unsupported-version`` — the caller turns it into the error response.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            ERROR_OVERSIZE,
            f"request line exceeds {MAX_LINE_BYTES} bytes",
        )
    try:
        request = json.loads(line)
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack, well
        # within MAX_LINE_BYTES ("[" * 100_000).
        raise ProtocolError(ERROR_MALFORMED, f"invalid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ProtocolError(ERROR_MALFORMED, "request must be a JSON object")
    version = request.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ERROR_UNSUPPORTED_VERSION,
            f"protocol version {version!r} is not supported "
            f"(this daemon speaks v{PROTOCOL_VERSION})",
        )
    return request


def decode_response(line: bytes) -> dict:
    """Parse one response line (client side; responses carry no version)."""
    try:
        response = json.loads(line)
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise ProtocolError(ERROR_MALFORMED, f"invalid JSON: {exc}") from exc
    if not isinstance(response, dict):
        raise ProtocolError(ERROR_MALFORMED, "response must be a JSON object")
    return response


def ok_response(op: str, **payload: Any) -> dict:
    return {"ok": True, "op": op, **payload}


def error_response(code: str, message: str) -> dict:
    assert code in ERROR_CODES
    return {"ok": False, "code": code, "error": message}


# --------------------------------------------------------------------- #
# Document wire form
# --------------------------------------------------------------------- #
def document_to_wire(document: Document) -> dict:
    """A document as its JSON wire object (tags as a sorted list)."""
    return {
        "doc_id": document.doc_id,
        "timestamp": document.timestamp,
        "tags": sorted(document.tags),
        "text": document.text,
    }


def document_from_wire(obj: Any) -> Document:
    """Parse one ingest-request document; ``bad-request`` on any mismatch."""
    if not isinstance(obj, dict):
        raise ProtocolError(ERROR_BAD_REQUEST, "each document must be an object")
    try:
        tags = obj["tags"]
        timestamp = obj["timestamp"]
    except KeyError as exc:
        raise ProtocolError(
            ERROR_BAD_REQUEST, f"document is missing field {exc.args[0]!r}"
        ) from exc
    if not isinstance(tags, (list, tuple)) or not all(
        isinstance(tag, str) for tag in tags
    ):
        raise ProtocolError(ERROR_BAD_REQUEST, "document tags must be strings")
    if not isinstance(timestamp, (int, float)) or isinstance(timestamp, bool):
        raise ProtocolError(ERROR_BAD_REQUEST, "document timestamp must be a number")
    doc_id = obj.get("doc_id", 0)
    if not isinstance(doc_id, int) or isinstance(doc_id, bool):
        raise ProtocolError(ERROR_BAD_REQUEST, "doc_id must be an integer")
    return Document(
        doc_id=doc_id,
        tags=frozenset(tags),
        timestamp=float(timestamp),
        text=str(obj.get("text", "")),
    )


def documents_from_wire(objs: Any) -> list[Document]:
    if not isinstance(objs, list):
        raise ProtocolError(ERROR_BAD_REQUEST, "documents must be a list")
    return [document_from_wire(obj) for obj in objs]


def tagset_from_wire(obj: Any) -> frozenset[str]:
    if not isinstance(obj, (list, tuple)) or not obj or not all(
        isinstance(tag, str) for tag in obj
    ):
        raise ProtocolError(
            ERROR_BAD_REQUEST, "tags must be a non-empty list of strings"
        )
    return frozenset(obj)


def tagsets_to_wire(
    rows: Iterable[tuple[frozenset[str], float, int]]
) -> list[list[Any]]:
    """``(tagset, jaccard, support)`` rows as JSON-stable triples."""
    return [[sorted(tagset), jaccard, support] for tagset, jaccard, support in rows]

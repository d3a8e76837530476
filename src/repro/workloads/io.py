"""The document record: one tweet as a JSON object.

A record has ``id``, ``timestamp``, ``tags`` and an optional ``text``
field; a stream file (``workloads/replay.py``) holds one record per line.
"""

from __future__ import annotations

from ..core.documents import Document, make_tagset


def document_to_record(document: Document) -> dict:
    """Serialise a document to a plain JSON-compatible dictionary."""
    record = {
        "id": document.doc_id,
        "timestamp": document.timestamp,
        "tags": sorted(document.tags),
    }
    if document.text:
        record["text"] = document.text
    return record


def record_to_document(record: dict) -> Document:
    """Deserialise one JSON record into a :class:`Document`.

    Raises ``ValueError`` on malformed records so corrupt input files fail
    loudly rather than silently skewing the statistics.
    """
    try:
        doc_id = int(record["id"])
        timestamp = float(record.get("timestamp", 0.0))
        tags = record.get("tags", [])
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"malformed tweet record: {record!r}") from error
    if not isinstance(tags, (list, tuple, set, frozenset)):
        raise ValueError(f"malformed tags in record: {record!r}")
    return Document(
        doc_id=doc_id,
        tags=make_tagset(str(tag) for tag in tags),
        timestamp=timestamp,
        text=str(record.get("text", "")),
    )

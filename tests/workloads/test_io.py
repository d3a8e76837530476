"""Unit tests for the document record codec (stream files: test_replay.py)."""

import pytest

from repro.core.documents import Document
from repro.workloads.io import document_to_record, record_to_document


class TestRecordConversion:
    def test_round_trip(self):
        document = Document(
            doc_id=7, tags=frozenset({"a", "b"}), timestamp=3.5, text="hello #a #b"
        )
        assert record_to_document(document_to_record(document)) == document

    def test_text_omitted_when_empty(self):
        record = document_to_record(Document(doc_id=1, tags=frozenset({"a"})))
        assert "text" not in record

    def test_tags_are_sorted_in_record(self):
        record = document_to_record(Document(doc_id=1, tags=frozenset({"b", "a"})))
        assert record["tags"] == ["a", "b"]

    def test_malformed_record_rejected(self):
        with pytest.raises(ValueError):
            record_to_document({"timestamp": 1.0})
        with pytest.raises(ValueError):
            record_to_document({"id": 1, "tags": "not-a-list"})

    def test_tags_normalised_on_read(self):
        document = record_to_document({"id": 1, "tags": ["#A", "b"]})
        assert document.tags == frozenset({"a", "b"})


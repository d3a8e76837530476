"""Recording and replaying document streams: the one stream file format.

A stream file is JSON Lines: one document record per line in the format of
:mod:`.io` (``id``/``timestamp``/``tags``/optional ``text``).  Written
files open with a header object:

.. code-block:: text

    {"format": "repro-trace", "n_documents": 2, "scenario": "trending",
     "version": 1, "workload": {...}}
    {"id": 0, "timestamp": 0.0, "tags": ["a", "b"]}
    {"id": 1, "timestamp": 0.02, "tags": ["b", "c"]}

The header records provenance — which scenario and
:class:`~.generator.WorkloadConfig` produced the stream (``scenario`` is
``"external"`` and ``workload`` is ``null`` for documents that no
generator made).  Both the header and the records are serialised
deterministically (header keys sorted, record tags sorted), so recording
the same generator twice produces byte-identical files and a record →
replay → re-record round trip is the identity: replayed runs are exactly
as reproducible as live-generator runs.

On read the header is optional: a file whose first record is a JSON
object with a ``"format"`` key opens with a header, which is validated;
any other file is foreign data made of document records only, and its
header is ``None``.  Blank lines are skipped.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import closing
from pathlib import Path
from typing import Iterable, Iterator

from ..core.documents import Document
from .generator import WorkloadConfig
from .io import document_to_record, record_to_document

#: ``format`` discriminator of the trace header line.
TRACE_FORMAT = "repro-trace"
#: Current trace schema version (bump on incompatible header changes).
TRACE_VERSION = 1
#: ``scenario`` recorded for traces not produced by a known generator.
EXTERNAL_SCENARIO = "external"


def trace_header(
    config: WorkloadConfig | None, n_documents: int
) -> dict:
    """The header object describing a trace of ``n_documents`` documents."""
    return {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "scenario": config.scenario if config else EXTERNAL_SCENARIO,
        "n_documents": n_documents,
        "workload": dataclasses.asdict(config) if config else None,
    }


def write_trace(
    documents: Iterable[Document],
    path: str | Path,
    config: WorkloadConfig | None = None,
) -> int:
    """Write a trace file; returns the number of documents written.

    The document stream is materialised first so the header can state
    ``n_documents`` up front (replayers can pre-size without scanning).
    """
    documents = list(documents)
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(
            json.dumps(trace_header(config, len(documents)), sort_keys=True)
            + "\n"
        )
        for document in documents:
            handle.write(json.dumps(document_to_record(document)) + "\n")
    return len(documents)


def _records(path: Path) -> Iterator[object]:
    """The parsed JSON value of every non-blank line of ``path``."""
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: invalid JSON in trace"
                ) from error


def _header(path: Path, record: object) -> dict | None:
    """``record`` as a validated header, or ``None`` if it is a document."""
    if not isinstance(record, dict) or "format" not in record:
        return None
    if record["format"] != TRACE_FORMAT:
        raise ValueError(
            f"{path}: unknown stream format {record['format']!r} "
            f"(this build reads {TRACE_FORMAT})"
        )
    version = record.get("version")
    if version != TRACE_VERSION:
        raise ValueError(
            f"{path}: unsupported trace version {version!r} "
            f"(this build reads version {TRACE_VERSION})"
        )
    return record


def read_trace_header(path: str | Path) -> dict | None:
    """The validated header of a trace file (``None`` if it has none)."""
    path = Path(path)
    with closing(_records(path)) as records:
        first = next(records, None)
    return None if first is None else _header(path, first)


def read_trace(path: str | Path) -> Iterator[Document]:
    """Stream the documents of a trace (a header is validated, then skipped)."""
    path = Path(path)
    with closing(_records(path)) as records:
        first = next(records, None)
        if first is not None and _header(path, first) is None:
            yield record_to_document(first)
        for record in records:
            yield record_to_document(record)


def load_trace(path: str | Path) -> tuple[dict | None, list[Document]]:
    """Eagerly load a trace: ``(header, documents)``."""
    header = read_trace_header(path)
    documents = list(read_trace(path))
    expected = header.get("n_documents") if header else None
    if expected is not None and expected != len(documents):
        raise ValueError(
            f"{path}: header declares {expected} documents, "
            f"file holds {len(documents)} (truncated or corrupt trace)"
        )
    return header, documents

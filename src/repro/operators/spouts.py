"""Tweet sources (the topology's Spout).

The paper's Source produces a stream of tweets either live from Twitter's
streaming API or replayed from a file for repeatability.  The reproduction
replays an in-memory document sequence (fed by the synthetic generator or
by a stream file loaded with ``workloads.load_trace``), or pulls documents
from the service daemon's ingest queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from ..core.documents import Document
from ..streamsim.components import Spout
from .streams import TWEETS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..streamsim.executors import AsyncServiceExecutor


class DocumentSpout(Spout):
    """Replays an iterable of :class:`Document` objects."""

    def __init__(self, documents: Iterable[Document]) -> None:
        super().__init__()
        self._documents: Iterator[Document] = iter(documents)
        self.emitted = 0

    def next_tuple(self) -> bool:
        try:
            document = next(self._documents)
        except StopIteration:
            return False
        self.emit(
            TWEETS,
            document.doc_id,
            document.timestamp,
            document.tags,
            document.text,
        )
        self.emitted += 1
        return True


class ServiceSpout(Spout):
    """Pulls documents from an :class:`AsyncServiceExecutor`'s ingest queue.

    The always-on flavour of :class:`DocumentSpout`: instead of replaying a
    pre-materialised iterable, each ``next_tuple`` call asks the service
    executor for the next queued document — blocking while the queue is
    idle — and reports exhaustion only once a drain has been requested and
    the queue is empty.  Emission order and wire format are identical to
    :class:`DocumentSpout` over the same document sequence, which is what
    the batch≡served equivalence suite pins.
    """

    def __init__(self, executor: "AsyncServiceExecutor") -> None:
        super().__init__()
        self._executor = executor
        self.emitted = 0

    def next_tuple(self) -> bool:
        document = self._executor.next_document()
        if document is None:
            return False
        self.emit(
            TWEETS,
            document.doc_id,
            document.timestamp,
            document.tags,
            document.text,
        )
        self.emitted += 1
        return True


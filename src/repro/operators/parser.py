"""The Parser bolt: extracts tagsets from raw tweets.

Parser instances receive tweets via shuffle grouping, extract and normalise
the hashtags (the reproduction treats the precomputed ``tags`` slot as the
hashtags; a text fallback extracts ``#tokens`` from the tweet body), drop
documents without tags, and emit ``(doc_id, timestamp, tagset)`` slot tuples
on the ``TAGSETS`` stream that both the Disseminator and the Partitioner
subscribe to.  A tagset that normalisation leaves unchanged is forwarded as
the document's own frozenset, so downstream state pins no copy of it.
"""

from __future__ import annotations

import re

from ..core.documents import make_tagset
from ..streamsim.components import Bolt
from ..streamsim.tuples import TupleMessage
from .streams import TAGSETS

_HASHTAG_PATTERN = re.compile(r"#(\w+)")


def extract_hashtags(text: str) -> frozenset[str]:
    """Extract ``#hashtags`` from a tweet body."""
    return make_tagset(_HASHTAG_PATTERN.findall(text))


class ParserBolt(Bolt):
    """Extracts the tagset of each incoming tweet."""

    def __init__(self, max_tags_per_document: int = 12) -> None:
        super().__init__()
        if max_tags_per_document < 1:
            raise ValueError("max_tags_per_document must be at least 1")
        self._max_tags = max_tags_per_document
        self.parsed = 0
        self.dropped_untagged = 0
        self.truncated = 0

    def execute(self, message: TupleMessage) -> None:
        # TWEETS slot layout: (doc_id, timestamp, tags, text).
        doc_id, timestamp, tags, text = message.values
        if tags:
            tagset = make_tagset(tags)
            if isinstance(tags, frozenset) and tagset == tags:
                tagset = tags
        else:
            tagset = extract_hashtags(text or "")
        if not tagset:
            self.dropped_untagged += 1
            return
        if len(tagset) > self._max_tags:
            # Extremely long tag lists are almost always spam; cap them to
            # keep the subset counters tractable (real tweets carry < 10).
            tagset = frozenset(sorted(tagset)[: self._max_tags])
            self.truncated += 1
        self.parsed += 1
        self.emit(TAGSETS, doc_id, 0.0 if timestamp is None else timestamp, tagset)

"""Unit tests for the Parser bolt."""

import pytest

from repro.operators.parser import ParserBolt, extract_hashtags
from repro.operators.streams import TAGSETS, TWEETS
from repro.streamsim.tuples import OutputCollector


def make_parser(**kwargs):
    parser = ParserBolt(**kwargs)
    collector = OutputCollector("parser", 0)
    parser.collector = collector
    parser.component_name = "parser"
    return parser, collector


class TestExtractHashtags:
    def test_extracts_and_normalises(self):
        assert extract_hashtags("Go #Munich! #beer #BEER") == frozenset(
            {"munich", "beer"}
        )

    def test_no_hashtags(self):
        assert extract_hashtags("plain text") == frozenset()


class TestParserBolt:
    def test_emits_tagset_tuple(self):
        parser, collector = make_parser()
        parser.execute(TWEETS.message(doc_id=1, timestamp=2.0, tags=["A", "#b"]))
        (batch,) = collector.drain()
        (message,) = batch.messages
        assert message.stream == TAGSETS
        assert message["tagset"] == frozenset({"a", "b"})
        assert message["timestamp"] == 2.0
        assert parser.parsed == 1

    def test_untagged_documents_dropped(self):
        parser, collector = make_parser()
        parser.execute(TWEETS.message(doc_id=1, tags=[], text="hi"))
        assert list(collector.drain()) == []
        assert parser.dropped_untagged == 1

    def test_falls_back_to_text_hashtags(self):
        parser, collector = make_parser()
        parser.execute(TWEETS.message(doc_id=1, tags=[], text="hello #World"))
        (batch,) = collector.drain()
        assert batch.messages[0]["tagset"] == frozenset({"world"})

    def test_truncates_spammy_documents(self):
        parser, collector = make_parser(max_tags_per_document=3)
        parser.execute(TWEETS.message(doc_id=1, tags=[f"t{i}" for i in range(10)]))
        (batch,) = collector.drain()
        assert len(batch.messages[0]["tagset"]) == 3
        assert parser.truncated == 1

    @pytest.mark.parametrize("cap", [0, -3])
    def test_rejects_non_positive_tag_cap(self, cap):
        # sorted(tagset)[:cap] would silently drop tags (or all of them).
        with pytest.raises(ValueError, match="max_tags_per_document"):
            ParserBolt(max_tags_per_document=cap)

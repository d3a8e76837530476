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

    @pytest.mark.parametrize("tags", [[], frozenset()])
    def test_falls_back_to_text_hashtags(self, tags):
        parser, collector = make_parser()
        parser.execute(TWEETS.message(doc_id=1, tags=tags, text="hello #World"))
        (batch,) = collector.drain()
        tagset = batch.messages[0]["tagset"]
        assert tagset == frozenset({"world"}) and tagset is not tags

    def test_truncates_spammy_documents(self):
        parser, collector = make_parser(max_tags_per_document=3)
        wide = frozenset(f"t{i}" for i in range(10))  # normalised, too long
        parser.execute(TWEETS.message(doc_id=1, tags=wide))
        (batch,) = collector.drain()
        assert batch.messages[0]["tagset"] == {"t0", "t1", "t2"}
        assert parser.truncated == 1

    def test_forwards_a_normalised_tagset_itself(self):
        parser, collector = make_parser()
        tags = frozenset({"beer", "munich"})
        parser.execute(TWEETS.message(doc_id=1, tags=tags))
        (batch,) = collector.drain()
        assert batch.messages[0]["tagset"] is tags

    @pytest.mark.parametrize(
        "tags, expected",
        [
            (frozenset({"#Tag", "beer"}), {"tag", "beer"}),
            (frozenset({" tag ", "beer"}), {"tag", "beer"}),
            (frozenset({"Beer", "beer"}), {"beer"}),
            (frozenset({"", "beer"}), {"beer"}),
            (["beer", "tag"], {"beer", "tag"}),
            ({"beer", "tag"}, {"beer", "tag"}),
        ],
        ids=["hash-case", "whitespace", "case-fold-duplicates", "empty-tag",
             "list", "mutable-set"],
    )
    def test_copies_what_normalisation_changes(self, tags, expected):
        """Only a frozenset that normalisation leaves as it is travels on;
        anything else becomes a new frozenset."""
        parser, collector = make_parser()
        parser.execute(TWEETS.message(doc_id=1, tags=tags))
        (batch,) = collector.drain()
        tagset = batch.messages[0]["tagset"]
        assert type(tagset) is frozenset and tagset == expected
        assert tagset is not tags

    @pytest.mark.parametrize("cap", [0, -3])
    def test_rejects_non_positive_tag_cap(self, cap):
        # sorted(tagset)[:cap] would silently drop tags (or all of them).
        with pytest.raises(ValueError, match="max_tags_per_document"):
            ParserBolt(max_tags_per_document=cap)

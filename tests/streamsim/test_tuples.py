"""Unit tests for stream schemas, slot tuples and the output collector."""

import pickle

import pytest

from repro.streamsim.tuples import (
    DEFAULT_STREAM,
    EmissionBatch,
    OutputCollector,
    StreamSchema,
    TupleMessage,
    stream_schema,
)

PAIR = stream_schema("pair", ("a", "b"))
TIMED = stream_schema("timed", ("value", "timestamp"))


class TestStreamSchema:
    def test_interned_by_name_and_fields(self):
        assert stream_schema("pair", ("a", "b")) is PAIR
        other = stream_schema("pair", ("a", "b", "c"))
        assert other is not PAIR  # different layout, different object

    def test_schema_is_the_stream_name(self):
        assert PAIR == "pair"
        assert str(PAIR) == "pair"
        assert PAIR.name == "pair"
        assert {PAIR: 1}["pair"] == 1  # hashes as its name

    def test_compiled_index_and_timestamp_slot(self):
        assert PAIR.index == {"a": 0, "b": 1}
        assert PAIR.timestamp_slot == -1
        assert TIMED.timestamp_slot == 1

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ValueError):
            stream_schema("bad", ("x", "x"))

    def test_message_helper_fills_by_name(self):
        message = PAIR.message(b=2, a=1)
        assert message.values == (1, 2)
        message = PAIR.message(a=1)
        assert message.values == (1, None)

    def test_message_helper_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            PAIR.message(a=1, missing=3)

    def test_pickle_reinterns(self):
        clone = pickle.loads(pickle.dumps(PAIR))
        assert clone is PAIR


class TestTupleMessage:
    def test_item_access(self):
        message = TupleMessage(PAIR, (1, 2))
        assert message["a"] == 1
        assert message.get("missing", 7) == 7
        assert "b" in message
        assert set(message.fields()) == {"a", "b"}
        assert list(message) == ["a", "b"]

    def test_defaults(self):
        message = TupleMessage(PAIR, (1, 2))
        assert message.stream is PAIR
        assert message.stream == "pair"
        assert message.source_task == -1

    def test_get_treats_none_slot_as_missing(self):
        message = PAIR.message(a=1)
        assert message.get("b", 9) == 9

    def test_pickle_roundtrip_shares_schema(self):
        message = TupleMessage(PAIR, (1, 2), "emitter", 4)
        clone = pickle.loads(pickle.dumps(message))
        assert clone.schema is PAIR
        assert clone.values == (1, 2)
        assert clone.source_component == "emitter"
        assert clone.source_task == 4


class TestOutputCollector:
    def test_emit_records_provenance(self):
        collector = OutputCollector("parser", task_id=3)
        collector.emit(PAIR, 1, 2)
        (batch,) = collector.drain()
        (message,) = batch.messages
        assert message.source_component == "parser"
        assert message.source_task == 3
        assert message.stream == "pair"
        assert batch.targets is None

    def test_emit_checks_arity(self):
        collector = OutputCollector("c", 0)
        with pytest.raises(ValueError):
            collector.emit(PAIR, 1)
        with pytest.raises(ValueError):
            collector.emit_direct(5, PAIR, 1, 2, 3)

    def test_emit_direct_records_target(self):
        collector = OutputCollector("disseminator", task_id=0)
        collector.emit_direct(9, PAIR, 1, 2)
        (batch,) = collector.drain()
        assert batch.targets == [9]

    def test_drain_clears_pending(self):
        collector = OutputCollector("c", 0)
        collector.emit(PAIR, 1, 2)
        assert len(collector) == 1
        collector.drain()
        assert len(collector) == 0
        assert list(collector.drain()) == []

    def test_same_stream_emissions_coalesce(self):
        collector = OutputCollector("c", 0)
        collector.emit(PAIR, 1, 2)
        collector.emit(PAIR, 3, 4)
        (batch,) = collector.drain()
        assert [m.values for m in batch.messages] == [(1, 2), (3, 4)]

    def test_stream_change_starts_new_batch(self):
        collector = OutputCollector("c", 0)
        collector.emit(PAIR, 1, 2)
        collector.emit(TIMED, 1, 0.0)
        collector.emit(PAIR, 3, 4)
        batches = collector.drain()
        assert [batch.schema for batch in batches] == [PAIR, TIMED, PAIR]

    def test_timestamp_change_starts_new_batch(self):
        collector = OutputCollector("c", 0)
        collector.emit(TIMED, 1, 0.0)
        collector.emit(TIMED, 2, 0.0)
        collector.emit(TIMED, 3, 1.0)
        batches = collector.drain()
        assert [len(batch) for batch in batches] == [2, 1]
        assert [batch.timestamp for batch in batches] == [0.0, 1.0]

    def test_direct_and_grouped_do_not_mix(self):
        collector = OutputCollector("c", 0)
        collector.emit(PAIR, 1, 2)
        collector.emit_direct(4, PAIR, 3, 4)
        collector.emit_direct(5, PAIR, 5, 6)
        batches = collector.drain()
        assert [batch.targets for batch in batches] == [None, [4, 5]]

    def test_batch_pickle_roundtrip(self):
        collector = OutputCollector("c", 7)
        collector.emit(PAIR, 1, 2)
        collector.emit(PAIR, 3, 4)
        (batch,) = collector.drain()
        clone = pickle.loads(pickle.dumps(batch))
        assert isinstance(clone, EmissionBatch)
        assert clone.schema is PAIR
        assert [m.values for m in clone.messages] == [(1, 2), (3, 4)]


def test_default_stream_name_unchanged():
    assert DEFAULT_STREAM == "default"

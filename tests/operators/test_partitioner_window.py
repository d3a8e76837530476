"""Unit tests for the sliding window and the Partitioner bolt."""

import pytest

from repro.operators.partitioner import PartitionerBolt, SlidingWindow
from repro.operators.streams import PARTIAL_PARTITIONS, REPARTITION_REQUESTS, TAGSETS
from repro.partitioning import DisjointSetsPartitioner, SCCPartitioner
from repro.streamsim.tuples import OutputCollector


class TestSlidingWindow:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SlidingWindow(mode="weird")
        with pytest.raises(ValueError):
            SlidingWindow(size=0)

    def test_count_window_evicts_oldest(self):
        window = SlidingWindow(mode="count", size=3)
        for i in range(5):
            window.add(float(i), frozenset({f"t{i}"}))
        assert len(window) == 3
        assert window.tagsets() == [
            frozenset({"t2"}),
            frozenset({"t3"}),
            frozenset({"t4"}),
        ]

    def test_time_window_evicts_expired(self):
        window = SlidingWindow(mode="time", size=10.0)
        window.add(0.0, frozenset({"old"}))
        window.add(5.0, frozenset({"mid"}))
        window.add(12.0, frozenset({"new"}))
        tagsets = window.tagsets()
        assert frozenset({"old"}) not in tagsets
        assert frozenset({"mid"}) in tagsets

    def test_statistics_reflect_window_content(self):
        window = SlidingWindow(mode="count", size=10)
        window.add(0.0, frozenset({"a", "b"}))
        window.add(1.0, frozenset({"a"}))
        stats = window.statistics()
        assert stats.tagset_count(frozenset({"a", "b"})) == 1
        assert stats.load(["a"]) == 2


def make_partitioner_bolt(algorithm, k=2, window_size=100):
    bolt = PartitionerBolt(algorithm=algorithm, k=k, window_size=window_size)
    collector = OutputCollector("partitioner", 0)
    bolt.collector = collector
    bolt.task_index = 0
    return bolt, collector


def tagset_message(tags, timestamp=0.0):
    return TAGSETS.message(tagset=frozenset(tags), timestamp=timestamp)


def repartition_message(epoch=1):
    return REPARTITION_REQUESTS.message(epoch=epoch, timestamp=0.0)


def drain_one(collector):
    (batch,) = collector.drain()
    (message,) = batch.messages
    return message


class TestPartitionerBolt:
    def test_ds_emits_raw_disjoint_sets(self):
        bolt, collector = make_partitioner_bolt(DisjointSetsPartitioner(), k=2)
        bolt.execute(tagset_message(["a", "b"]))
        bolt.execute(tagset_message(["b", "c"]))
        bolt.execute(tagset_message(["x", "y"]))
        bolt.execute(repartition_message())
        message = drain_one(collector)
        assert message.stream == PARTIAL_PARTITIONS
        groups = sorted(sorted(tags) for tags in message["tag_sets"])
        assert groups == [["a", "b", "c"], ["x", "y"]]

    def test_set_cover_emits_k_partitions(self):
        bolt, collector = make_partitioner_bolt(SCCPartitioner(), k=2)
        for tags in (["a", "b"], ["b", "c"], ["x", "y"], ["y", "z"]):
            bolt.execute(tagset_message(tags))
        bolt.execute(repartition_message())
        message = drain_one(collector)
        assert len(message["tag_sets"]) <= 2
        assert message["window_counts"]

    def test_duplicate_epoch_served_once(self):
        bolt, collector = make_partitioner_bolt(DisjointSetsPartitioner())
        bolt.execute(tagset_message(["a"]))
        bolt.execute(repartition_message(epoch=5))
        bolt.execute(repartition_message(epoch=5))
        (batch,) = collector.drain()
        assert len(batch.messages) == 1
        assert bolt.partitions_created == 1

    def test_window_counts_match_window(self):
        bolt, collector = make_partitioner_bolt(DisjointSetsPartitioner())
        bolt.execute(tagset_message(["a", "b"]))
        bolt.execute(tagset_message(["a", "b"]))
        bolt.execute(repartition_message())
        counts = drain_one(collector)["window_counts"]
        assert counts[("a", "b")] == 2

    def test_empty_window_emits_empty_partial(self):
        bolt, collector = make_partitioner_bolt(DisjointSetsPartitioner())
        bolt.execute(repartition_message())
        assert drain_one(collector)["tag_sets"] == []

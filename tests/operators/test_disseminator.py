"""Unit tests for the Disseminator bolt (routing, dynamics, monitoring)."""

import pytest

from repro.operators.disseminator import (
    DisseminatorBolt,
    REASON_BOOTSTRAP,
    REASON_COMMUNICATION,
    REASON_LOAD,
)
from repro.operators.streams import (
    MISSING_TAGSETS,
    NOTIFICATIONS,
    PARTITIONS,
    REPARTITION_REQUESTS,
    SINGLE_ADDITIONS,
    TAGSETS,
)
from repro.streamsim.tuples import OutputCollector


def make_disseminator(k=2, calculator_tasks=(100, 101), **kwargs):
    defaults = dict(
        repartition_threshold=0.5,
        single_addition_threshold=3,
        quality_check_interval=10,
        bootstrap_documents=5,
    )
    defaults.update(kwargs)
    bolt = DisseminatorBolt(k=k, **defaults)
    bolt._calculator_tasks = list(calculator_tasks)
    collector = OutputCollector("disseminator", 0)
    bolt.collector = collector
    return bolt, collector


def drain_flat(collector):
    """Flatten drained emission batches to (message, direct_target) pairs."""
    flat = []
    for batch in collector.drain():
        targets = batch.targets or [None] * len(batch.messages)
        flat.extend(zip(batch.messages, targets))
    return flat


def on_stream(pairs, schema):
    return [(message, target) for message, target in pairs if message.schema is schema]


def notification_tags(message):
    """The routed sub-tagset of a single-entry notification message (one
    routed tagset flushed on its own)."""
    (tags,) = message["batch"]
    return tags


def tagset_message(tags, timestamp=0.0):
    return TAGSETS.message(tagset=frozenset(tags), timestamp=timestamp)


def partitions_message(tag_sets, avg_com=1.0, max_load=0.5, epoch=1):
    return PARTITIONS.message(
        epoch=epoch,
        tag_sets=[frozenset(t) for t in tag_sets],
        loads=[1] * len(tag_sets),
        avg_com=avg_com,
        max_load=max_load,
        timestamp=0.0,
    )


def install(bolt, collector, tag_sets, **kwargs):
    bolt.execute(partitions_message(tag_sets, **kwargs))
    collector.drain()


class TestValidation:
    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            DisseminatorBolt(k=2, repartition_threshold=-1)
        with pytest.raises(ValueError):
            DisseminatorBolt(k=2, single_addition_threshold=0)


class TestBootstrap:
    def test_requests_partitions_after_bootstrap_documents(self):
        bolt, collector = make_disseminator(bootstrap_documents=3)
        for i in range(3):
            bolt.execute(tagset_message(["a"], timestamp=float(i)))
        requests = on_stream(drain_flat(collector), REPARTITION_REQUESTS)
        assert len(requests) == 1
        assert requests[0][0]["reason"] == REASON_BOOTSTRAP
        # Bootstrap does not count as a repartition in the metrics.
        assert bolt.metrics.repartitions == []

    def test_no_duplicate_request_while_waiting(self):
        bolt, collector = make_disseminator(bootstrap_documents=2)
        for i in range(6):
            bolt.execute(tagset_message(["a"]))
        requests = on_stream(drain_flat(collector), REPARTITION_REQUESTS)
        assert len(requests) == 1

    def test_unrouted_documents_counted(self):
        bolt, collector = make_disseminator(bootstrap_documents=100)
        bolt.execute(tagset_message(["a"]))
        assert bolt.metrics.unrouted_tagsets == 1


class TestRouting:
    def test_notifications_sent_to_owning_calculators(self):
        bolt, collector = make_disseminator()
        install(bolt, collector, [{"a", "b"}, {"b", "c"}])
        bolt.execute(tagset_message(["a", "b", "c"]))
        bolt.flush()  # ship the pending micro-batch
        notifications = on_stream(drain_flat(collector), NOTIFICATIONS)
        assert len(notifications) == 2
        targets = {
            target: notification_tags(message) for message, target in notifications
        }
        assert targets[100] == frozenset({"a", "b"})
        assert targets[101] == frozenset({"b", "c"})
        assert bolt.metrics.communication.average == pytest.approx(2.0)
        assert bolt.metrics.load.loads(2) == [1, 1]

    def test_unknown_tags_not_routed(self):
        bolt, collector = make_disseminator()
        install(bolt, collector, [{"a"}, {"b"}])
        bolt.execute(tagset_message(["zzz"]))
        bolt.flush()
        assert on_stream(drain_flat(collector), NOTIFICATIONS) == []
        assert bolt.metrics.unrouted_tagsets == 1

    def test_stale_partition_epoch_ignored(self):
        bolt, collector = make_disseminator()
        install(bolt, collector, [{"a"}, {"b"}], epoch=5)
        bolt.execute(partitions_message([{"c"}, {"d"}], epoch=4))
        assert bolt.assignment.covers({"a"})
        assert not bolt.assignment.covers({"c"})


class TestSingleAdditionFlow:
    def test_uncovered_tagset_reported_after_sn_occurrences(self):
        bolt, collector = make_disseminator(single_addition_threshold=3)
        install(bolt, collector, [{"a"}, {"b"}])
        for _ in range(3):
            bolt.execute(tagset_message(["a", "b"]))
        missing = on_stream(drain_flat(collector), MISSING_TAGSETS)
        assert len(missing) == 1
        assert missing[0][0]["tagset"] == frozenset({"a", "b"})
        assert bolt.metrics.single_addition_requests == 1

    def test_not_rerequested_while_pending(self):
        bolt, collector = make_disseminator(single_addition_threshold=2)
        install(bolt, collector, [{"a"}, {"b"}])
        for _ in range(6):
            bolt.execute(tagset_message(["a", "b"]))
        missing = on_stream(drain_flat(collector), MISSING_TAGSETS)
        assert len(missing) == 1

    def test_single_addition_updates_index(self):
        bolt, collector = make_disseminator()
        install(bolt, collector, [{"a"}, {"b"}])
        bolt.execute(
            SINGLE_ADDITIONS.message(
                tagset=frozenset({"a", "b"}), partition_index=0, timestamp=0.0
            )
        )
        assert bolt.assignment.covers({"a", "b"})
        bolt.execute(tagset_message(["a", "b"]))
        bolt.flush()
        notifications = on_stream(drain_flat(collector), NOTIFICATIONS)
        # Calculator 100 now owns both tags and receives the full tagset, so
        # the coefficient becomes computable; calculator 101 still owns "b"
        # and keeps receiving its share of the document.
        targets = {
            target: notification_tags(message) for message, target in notifications
        }
        assert targets[100] == frozenset({"a", "b"})
        assert targets.get(101, frozenset()) <= frozenset({"b"})


class TestQualityMonitoring:
    def test_communication_degradation_triggers_repartition(self):
        bolt, collector = make_disseminator(
            quality_check_interval=5, repartition_threshold=0.5
        )
        # Reference communication 1.0; tag "shared" sits in both partitions.
        install(
            bolt, collector, [{"shared", "a"}, {"shared", "b"}], avg_com=1.0,
            max_load=1.0,
        )
        for i in range(5):
            bolt.execute(tagset_message(["shared"], timestamp=float(i)))
        requests = on_stream(drain_flat(collector), REPARTITION_REQUESTS)
        assert len(requests) == 1
        assert bolt.metrics.repartitions[0].reason == REASON_COMMUNICATION

    def test_load_degradation_triggers_repartition(self):
        bolt, collector = make_disseminator(
            quality_check_interval=5, repartition_threshold=0.5
        )
        install(bolt, collector, [{"a"}, {"b"}], avg_com=1.0, max_load=0.5)
        # All documents go to partition 0 -> max load share 1.0 > 0.75.
        for i in range(5):
            bolt.execute(tagset_message(["a"], timestamp=float(i)))
        requests = on_stream(drain_flat(collector), REPARTITION_REQUESTS)
        assert len(requests) == 1
        assert bolt.metrics.repartitions[0].reason == REASON_LOAD

    def test_healthy_partitions_do_not_trigger(self):
        bolt, collector = make_disseminator(
            quality_check_interval=4, repartition_threshold=0.5
        )
        install(bolt, collector, [{"a"}, {"b"}], avg_com=1.0, max_load=0.6)
        for tags in (["a"], ["b"], ["a"], ["b"]):
            bolt.execute(tagset_message(tags))
        assert on_stream(drain_flat(collector), REPARTITION_REQUESTS) == []
        # A snapshot is still recorded for the time series.
        assert len(bolt.metrics.history) >= 2

    def test_history_records_snapshots(self):
        bolt, collector = make_disseminator(quality_check_interval=3)
        install(bolt, collector, [{"a"}, {"b"}])
        for _ in range(3):
            bolt.execute(tagset_message(["a"]))
        assert any(s.calculator_loads != (0, 0) for s in bolt.metrics.history)

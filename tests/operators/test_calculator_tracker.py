"""Unit tests for the Calculator and Tracker bolts."""

import pytest

from repro.core.jaccard import JaccardResult
from repro.operators.calculator import CalculatorBolt
from repro.operators.streams import COEFFICIENTS, NOTIFICATIONS
from repro.operators.tracker import TrackerBolt
from repro.streamsim.tuples import OutputCollector, stream_schema

OTHER = stream_schema("other", ("batch", "results"))


def make_calculator(report_interval=10.0, **kwargs):
    bolt = CalculatorBolt(report_interval=report_interval, **kwargs)
    collector = OutputCollector("calculator", 0)
    bolt.collector = collector
    return bolt, collector


def notification(tags, timestamp=0.0):
    """A single-tagset notification message (a one-entry batch)."""
    return NOTIFICATIONS.message(
        batch=[(frozenset(tags), None)], timestamp=timestamp
    )


class TestCalculatorBolt:
    def test_invalid_report_interval(self):
        with pytest.raises(ValueError):
            CalculatorBolt(report_interval=0)

    def test_counts_notifications(self):
        bolt, _ = make_calculator()
        bolt.execute(notification(["a", "b"]))
        bolt.execute(notification(["a", "b"]))
        assert bolt.notifications_received == 2
        assert bolt.calculator.coefficient(["a", "b"]) == 1.0

    def test_execute_batch_unpacks_link_batches(self):
        bolt, _ = make_calculator()
        bolt.execute_batch(
            [notification(["a", "b"]), notification(["a", "c"])]
        )
        assert bolt.notifications_received == 2
        assert bolt.batches_received == 2

    def test_multi_entry_batches_unpacked(self):
        bolt, _ = make_calculator()
        bolt.execute(
            NOTIFICATIONS.message(
                batch=[
                    (frozenset({"a", "b"}), 1),
                    (frozenset({"a", "b"}), 2),
                    (frozenset({"c"}), 3),
                ],
                timestamp=0.0,
            )
        )
        assert bolt.notifications_received == 3
        assert bolt.batches_received == 1
        assert bolt.calculator.coefficient(["a", "b"]) == 1.0

    def test_other_streams_ignored(self):
        bolt, _ = make_calculator()
        bolt.execute(OTHER.message(batch=[(frozenset({"a"}), None)]))
        bolt.execute_batch([OTHER.message(batch=[(frozenset({"a"}), None)])])
        assert bolt.notifications_received == 0

    def test_tick_emits_batched_report_and_resets(self):
        bolt, collector = make_calculator(report_interval=10.0)
        bolt.execute(notification(["a", "b"], timestamp=1.0))
        bolt.tick(5.0)
        assert list(collector.drain()) == []  # interval not reached
        bolt.tick(11.0)
        (batch,) = collector.drain()
        (message,) = batch.messages
        assert message.stream == COEFFICIENTS
        results = message["results"]
        assert (frozenset({"a", "b"}), 1.0, 1) in results
        # counters were reset
        assert bolt.calculator.observations == 0

    def test_no_report_when_nothing_observed(self):
        bolt, collector = make_calculator(report_interval=1.0)
        bolt.tick(100.0)
        assert list(collector.drain()) == []

    def test_drain_results_returns_remaining(self):
        bolt, _ = make_calculator()
        bolt.execute(notification(["a", "b"]))
        results = bolt.drain_results()
        assert len(results) == 1
        assert results[0].tagset == frozenset({"a", "b"})
        assert bolt.drain_results() == []

    def test_report_round_timing_recorded(self):
        bolt, _ = make_calculator(report_interval=10.0)
        bolt.execute(notification(["a", "b"], timestamp=1.0))
        bolt.tick(11.0)
        assert bolt.report_rounds == 1
        assert bolt.report_seconds > 0.0
        bolt.tick(100.0)  # nothing observed: the empty round is not counted
        assert bolt.report_rounds == 1


class TestReportRounds:
    """Every round reports from scratch: nothing is carried, suppressed or
    deferred across rounds (the paper's Calculator deletes its counters)."""

    def test_recurring_rounds_ship_every_round(self):
        bolt, collector = make_calculator(report_interval=10.0)
        emitted = []
        for index in range(3):
            timestamp = 10.0 * index + 1.0
            bolt.execute(notification(["a", "b"], timestamp=timestamp))
            bolt.execute(notification(["a", "b"], timestamp=timestamp))
            bolt.tick(10.0 * (index + 1) + 5.0)
            for batch in collector.drain():
                emitted.extend(message["results"] for message in batch.messages)
        assert emitted == [[(frozenset({"a", "b"}), 1.0, 2)]] * 3
        assert bolt.reports_emitted == 3
        assert bolt.drain_payload() == []  # nothing observed since round 3

    def test_types_folded_counts_in_stream_rounds_only(self):
        bolt, _ = make_calculator(report_interval=10.0)
        bolt.execute(notification(["a", "b"], timestamp=1.0))
        bolt.execute(notification(["b", "c", "d"], timestamp=1.0))
        bolt.tick(11.0)
        assert bolt.types_folded == 2
        bolt.execute(notification(["a", "b"], timestamp=12.0))
        assert len(bolt.prepare_migration()) == 1  # a fold, but not a round
        assert len(bolt.drain_payload()) == 1  # likewise
        assert bolt.types_folded == 2


class TestTrackerBolt:
    def test_keeps_coefficient_with_max_support(self):
        tracker = TrackerBolt()
        tracker.observe(JaccardResult(frozenset({"a", "b"}), 0.4, support=2))
        tracker.observe(JaccardResult(frozenset({"a", "b"}), 0.6, support=5))
        tracker.observe(JaccardResult(frozenset({"a", "b"}), 0.1, support=1))
        assert tracker.coefficients()[frozenset({"a", "b"})] == 0.6
        assert tracker.supports()[frozenset({"a", "b"})] == 5
        assert tracker.duplicate_reports == 2

    def test_execute_unpacks_batches(self):
        tracker = TrackerBolt()
        tracker.execute(
            COEFFICIENTS.message(
                results=[
                    (frozenset({"a", "b"}), 0.5, 3),
                    (frozenset({"c", "d"}), 0.25, 1),
                ],
                timestamp=0.0,
            )
        )
        assert len(tracker) == 2
        assert tracker.reports_received == 2

    def test_min_support_filter(self):
        tracker = TrackerBolt()
        tracker.observe(JaccardResult(frozenset({"a", "b"}), 0.5, support=1))
        tracker.observe(JaccardResult(frozenset({"c", "d"}), 0.5, support=4))
        assert set(tracker.coefficients(min_support=2)) == {frozenset({"c", "d"})}

    def test_other_streams_ignored(self):
        tracker = TrackerBolt()
        tracker.execute(OTHER.message(results=[]))
        assert tracker.reports_received == 0


def test_ingest_repeated_is_ingest_count_times():
    triples = [
        (frozenset({"a", "b"}), 0.5, 3),
        (frozenset({"a", "b"}), 0.25, 1),   # lower support: never wins
        (frozenset({"c", "d"}), 0.75, 6),
        (frozenset({"a", "b"}), 0.9, 9),    # higher support: wins
    ]
    sequential, compact = TrackerBolt(), TrackerBolt()
    for triple in triples:
        for _ in range(4):
            sequential.ingest([triple])
    compact.ingest_repeated([(triple, 4) for triple in triples])
    compact.ingest_repeated([((frozenset({"x", "y"}), 0.5, 2), 0)])
    assert sequential.coefficients() == compact.coefficients()
    assert sequential.supports() == compact.supports()
    assert sequential.reports_received == compact.reports_received
    assert sequential.duplicate_reports == compact.duplicate_reports


class TestCoefficientView:
    """The lazy mapping view over the Tracker's dedup table."""

    def _tracker(self):
        tracker = TrackerBolt()
        tracker.ingest(
            [
                (frozenset({"a", "b"}), 0.5, 3),
                (frozenset({"c", "d"}), 0.25, 1),
                (frozenset({"e", "f"}), 0.75, 6),
            ]
        )
        return tracker

    def test_view_probes_without_copying(self):
        tracker = self._tracker()
        view = tracker.coefficient_view()
        assert view[frozenset({"a", "b"})] == 0.5
        assert frozenset({"c", "d"}) in view
        assert frozenset({"x"}) not in view
        assert len(view) == 3
        assert dict(view) == tracker.coefficients()

    def test_view_reflects_later_ingests(self):
        tracker = self._tracker()
        view = tracker.coefficient_view()
        tracker.ingest([(frozenset({"a", "b"}), 0.9, 10)])
        assert view[frozenset({"a", "b"})] == 0.9  # live, not a snapshot

    def test_min_support_filters_transparently(self):
        tracker = self._tracker()
        view = tracker.coefficient_view(min_support=3)
        assert frozenset({"c", "d"}) not in view
        with pytest.raises(KeyError):
            view[frozenset({"c", "d"})]
        assert len(view) == 2
        assert set(view) == {frozenset({"a", "b"}), frozenset({"e", "f"})}

    def test_filtered_length_recomputed_after_ingest(self):
        tracker = self._tracker()
        view = tracker.coefficient_view(min_support=3)
        assert len(view) == 2
        tracker.ingest([(frozenset({"g", "h"}), 0.1, 9)])
        assert len(view) == 3

    def test_iter_coefficients_streams_pairs(self):
        tracker = self._tracker()
        pairs = dict(tracker.iter_coefficients(min_support=2))
        assert pairs == {
            frozenset({"a", "b"}): 0.5,
            frozenset({"e", "f"}): 0.75,
        }

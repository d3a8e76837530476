"""Unit tests for the Calculator and Tracker bolts."""

import pytest

from oracle import full_sort_top_k, table_digest
from repro.core.jaccard import JaccardResult
from repro.operators.calculator import CalculatorBolt
from repro.operators.streams import COEFFICIENTS, NOTIFICATIONS
from repro.operators.tracker import TrackerBolt
from repro.store import StoreConfig, encode_key
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
        batch=[frozenset(tags)], timestamp=timestamp
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
                    frozenset({"a", "b"}),
                    frozenset({"a", "b"}),
                    frozenset({"c"}),
                ],
                timestamp=0.0,
            )
        )
        assert bolt.notifications_received == 3
        assert bolt.batches_received == 1
        assert bolt.calculator.coefficient(["a", "b"]) == 1.0

    def test_other_streams_ignored(self):
        bolt, _ = make_calculator()
        bolt.execute(OTHER.message(batch=[frozenset({"a"})]))
        bolt.execute_batch([OTHER.message(batch=[frozenset({"a"})])])
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
        assert (("a", "b"), 1.0, 1) in results
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

    def test_a_round_of_empty_notifications_is_skipped(self):
        """An empty tagset counts nothing, so a round holding only empty
        notifications is a round with nothing observed: no emission, no
        report round."""
        bolt, collector = make_calculator(report_interval=10.0)
        bolt.execute(notification([], timestamp=1.0))
        bolt.execute(notification([], timestamp=2.0))
        assert bolt.notifications_received == 2
        assert bolt.observations == 0
        bolt.tick(11.0)
        assert list(collector.drain()) == []
        assert bolt.report_rounds == 0
        assert bolt.types_folded == 0

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
        assert emitted == [[(("a", "b"), 1.0, 2)]] * 3
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

    def test_get_probes_once_and_filters(self, monkeypatch):
        tracker = self._tracker()
        view = tracker.coefficient_view(min_support=3)
        probes = []
        table_get = tracker._table.get
        monkeypatch.setattr(
            tracker._table, "get", lambda key: probes.append(key) or table_get(key)
        )
        assert view.get(("a", "b")) == 0.5
        assert view.get(frozenset({"c", "d"})) is None  # filtered: support 1
        assert view.get(("x", "y"), -1.0) == -1.0
        assert len(probes) == 3

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


# --------------------------------------------------------------------- #
# Tracker keys: sorted tuples inside, frozensets at the read boundary
# --------------------------------------------------------------------- #
@pytest.fixture(params=["dict", "spill"])
def tracker_store(request):
    return request.param


def make_tracker(store, tmp_path):
    if store == "dict":
        return TrackerBolt()
    # A threshold this low spills and compacts several times per test.
    config = StoreConfig(spill_dir=str(tmp_path), spill_threshold=3)
    return TrackerBolt(config)


class TestTrackerKeyCanonicalisation:
    def test_every_producer_lands_in_one_entry(self, tracker_store, tmp_path):
        """Sorted tuples (the Calculator), frozensets (a hand-built
        triple, ``observe(JaccardResult)``) and unsorted iterables of the
        same tags are one tagset under the max-support rule."""
        frozen = (frozenset({"b", "a"}), 1.0, 1)
        exact, _ = make_calculator()
        exact.execute(notification(["b", "a"]))
        exact.execute(notification(["a", "b"]))
        (counted,) = exact.drain_payload()
        assert counted == (("a", "b"), 1.0, 2)

        tracker = make_tracker(tracker_store, tmp_path)
        tracker.ingest([frozen])
        tracker.ingest([counted])
        tracker.observe(JaccardResult(frozenset({"a", "b"}), 0.25, support=2))
        tracker.ingest([(["b", "a"], 0.5, 1), ({"a", "b"}, 0.75, 2)])
        tracker.ingest([(frozenset({"c", "d"}), 0.5, 3)])  # keeps spilling
        assert len(tracker) == 2
        assert tracker.reports_received == 6
        assert tracker.duplicate_reports == 4
        # Support 2 first arrived as the exact triple; equal support never
        # displaces, whatever the key's form.
        assert tracker.coefficients() == {
            frozenset({"a", "b"}): 1.0, frozenset({"c", "d"}): 0.5,
        }
        assert tracker.supports()[frozenset({"a", "b"})] == 2
        tracker.close()


def boundary_triples():
    """Reports as the wire carried them before tuples: frozensets, with
    repeats that lose, win and tie on support."""
    rows = [
        ({"a", "b"}, 0.5, 3), ({"c", "d"}, 0.25, 1), ({"e", "f", "g"}, 0.75, 6),
        ({"a", "b"}, 0.9, 2), ({"b", "c"}, 1.0, 4), ({"c", "d"}, 0.125, 5),
        ({"a", "b"}, 0.4, 3), ({"x", "y", "z", "w"}, 0.5, 2), ({"b", "c"}, 0.3, 9),
        ({"a", "c"}, 0.5, 1), ({"e", "f", "g"}, 0.1, 6), ({"d", "e"}, 1.0, 2),
    ]
    return [(frozenset(tags), jaccard, support) for tags, jaccard, support in rows]


def expected_table(triples, store):
    """``{tagset: (jaccard, support)}`` by the dedup rule, in the order the
    store reads back: first sighting (dict) or encoded key (spill)."""
    table = {}
    for tagset, jaccard, support in triples:
        if tagset not in table or support > table[tagset][1]:
            table[tagset] = (jaccard, support)
    order = list(table)
    if store == "spill":
        order.sort(key=lambda tagset: encode_key(tuple(sorted(tagset))))
    return {tagset: table[tagset] for tagset in order}


class TestReadBoundary:
    """Every public read returns frozensets with the contents and order it
    had before the table was keyed by tuples, whichever form was ingested."""

    @pytest.mark.parametrize("wire", ["tuple", "frozenset"])
    def test_every_public_read(self, tracker_store, wire, tmp_path):
        triples = boundary_triples()
        table = expected_table(triples, tracker_store)
        tracker = make_tracker(tracker_store, tmp_path)
        tracker.ingest([
            (tuple(sorted(tagset)) if wire == "tuple" else tagset, j, s)
            for tagset, j, s in triples
        ])

        def frozen(keys):
            return all(type(key) is frozenset for key in keys)

        coefficients = tracker.coefficients()
        assert list(coefficients.items()) == [
            (tagset, j) for tagset, (j, _s) in table.items()
        ]
        assert frozen(coefficients)
        assert list(tracker.coefficients(min_support=3)) == [
            tagset for tagset, (_j, s) in table.items() if s >= 3
        ]
        supports = tracker.supports()
        assert list(supports.items()) == [
            (tagset, s) for tagset, (_j, s) in table.items()
        ]
        assert frozen(supports)
        exported = tracker.export_triples()
        assert exported == [(tagset, j, s) for tagset, (j, s) in table.items()]
        assert frozen(tagset for tagset, _j, _s in exported)
        streamed = list(tracker.iter_coefficients())
        assert streamed == list(coefficients.items())

        view = tracker.coefficient_view()
        assert list(view) == list(table) and frozen(view)
        for tagset, (jaccard, _support) in table.items():
            assert view[tagset] == jaccard
            assert tagset in view and tuple(sorted(tagset)) in view
        assert frozenset({"never", "seen"}) not in view
        filtered = tracker.coefficient_view(min_support=3)
        assert list(filtered) == [
            tagset for tagset, (_j, s) in table.items() if s >= 3
        ]

        snapshot = tracker.snapshot(1)
        try:
            if tracker_store == "dict":
                entries = snapshot.entries
                assert entries == table and frozen(entries)
            for tagset, pair in table.items():
                assert snapshot.coefficient(tagset) == pair
                assert snapshot.coefficient(sorted(tagset, reverse=True)) == pair
            assert snapshot.coefficient({"never", "seen"}) is None
            for k, min_support in ((1, 0), (4, 0), (3, 3), (len(table) + 2, 0)):
                rows = snapshot.top_k(k, min_support)
                assert rows == full_sort_top_k(table, k, min_support)
                assert frozen(tagset for tagset, _j, _s in rows)
            assert snapshot.digest() == table_digest(table)
        finally:
            getattr(snapshot, "close", lambda: None)()
            tracker.close()

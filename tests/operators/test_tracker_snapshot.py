"""The layered Tracker snapshot: equal to a full copy, and immutable.

``TrackerBolt.snapshot`` freezes only the tagsets that changed since the
previous call into a new layer and shares every older layer with earlier
snapshots.  Nothing a reader can ask may reveal that: every snapshot must
answer exactly like a full copy of the table taken at the same instant
(``tests/oracle.py`` keeps that full-copy code), and must keep answering so
after any amount of later ingest, publication and layer merging.  The
``top_k`` order has one definition, ``repro.store.select_top_k``, pinned
here against the full sort it replaced for both snapshot kinds.
"""

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import full_copy, full_sort_top_k, table_digest
from repro.operators import TrackerBolt, TrackerSnapshot
from repro.store import SpillingTrackerStore, StoreConfig, select_top_k

TAGS = "abcdefg"


def assert_equals_full_copy(snapshot, entries, received, duplicates):
    """Every query of ``snapshot`` answers like the full copy ``entries``."""
    assert snapshot.entries == entries
    assert len(snapshot) == len(entries)
    assert snapshot.digest() == table_digest(entries)
    assert snapshot.reports_received == received
    assert snapshot.duplicate_reports == duplicates
    for tagset, pair in entries.items():
        assert snapshot.coefficient(tagset) == pair
    assert snapshot.coefficient(frozenset({"never", "reported"})) is None
    for k, min_support in ((1, 0), (3, 0), (3, 3), (len(entries) + 5, 0)):
        assert snapshot.top_k(k, min_support) == full_sort_top_k(
            entries, k, min_support
        )


# --------------------------------------------------------------------- #
# Snapshots ≡ full copies, under any interleaving
# --------------------------------------------------------------------- #
# A small universe on purpose: most triples hit a tagset already tracked,
# as a losing duplicate (support <=) or as a support win that must shadow
# the value an older layer froze; few jaccards, so top_k ties are common.
triples = st.tuples(
    st.frozensets(st.sampled_from(TAGS), min_size=2, max_size=3),
    st.sampled_from((0.25, 0.5, 1.0)),
    st.integers(1, 6),
)
operations = st.lists(
    st.one_of(st.lists(triples, max_size=12), st.just("snapshot")),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(operations)
def test_every_snapshot_equals_the_full_copy_taken_with_it(ops):
    tracker = TrackerBolt()
    taken = []
    for op in ops + ["snapshot"]:
        if op != "snapshot":
            tracker.ingest(op)
            continue
        snapshot = tracker.snapshot(round_index=len(taken))
        expected = (
            full_copy(tracker),
            tracker.reports_received,
            tracker.duplicate_reports,
        )
        assert_equals_full_copy(snapshot, *expected)
        taken.append((snapshot, expected))
        sizes = [len(layer) for layer in snapshot.layers]
        # Size-tiered: each layer is more than twice the one above it.
        assert all(2 * new < old for new, old in zip(sizes, sizes[1:]))
        assert 0 not in sizes
    # Later ingests, publications and merges never reach a published one.
    for index, (snapshot, expected) in enumerate(taken):
        assert snapshot.round_index == index
        assert_equals_full_copy(snapshot, *expected)
    copied = [snapshot.entries_copied for snapshot, _ in taken]
    assert copied == sorted(copied)


def random_triples(seed, count, universe=40):
    rng = random.Random(seed)
    return [
        (
            frozenset(
                f"t{i}" for i in rng.sample(range(universe), rng.randint(2, 4))
            ),
            rng.choice((0.1, 0.5, 0.9, 1.0)),
            rng.randint(1, 9),
        )
        for _ in range(count)
    ]


class TestLayerSharing:
    def test_batch_runs_never_start_dirty_tracking(self):
        tracker = TrackerBolt()
        tracker.ingest(random_triples(1, 50))
        assert tracker._table._dirty is None
        tracker.snapshot()
        assert tracker._table._dirty == set()

    def test_an_unchanged_table_publishes_the_same_layers(self):
        tracker = TrackerBolt()
        tracker.ingest(random_triples(2, 200))
        first = tracker.snapshot(1)
        tracker.ingest([])  # a quiescent point with nothing new
        second = tracker.snapshot(2)
        assert second.round_index == 2
        assert second.layers == first.layers
        assert all(a is b for a, b in zip(first.layers, second.layers))
        assert second.entries_copied == first.entries_copied

    def test_a_small_change_copies_only_itself(self):
        tracker = TrackerBolt()
        tracker.ingest(
            [(frozenset({f"t{i}", f"u{i}"}), 0.5, 2) for i in range(1000)]
        )
        first = tracker.snapshot(1)
        tracker.ingest([
            (frozenset({"t0", "u0"}), 0.75, 5),  # support win: shadows
            (frozenset({"t1", "u1"}), 0.99, 1),  # loses: not dirty
            (frozenset({"new", "pair"}), 1.0, 1),
        ])
        second = tracker.snapshot(2)
        assert second.entries_copied - first.entries_copied == 2
        assert second.layers[1] is first.layers[0]
        assert first.coefficient({"t0", "u0"}) == (0.5, 2)
        assert second.coefficient({"t0", "u0"}) == (0.75, 5)
        assert second.coefficient({"t1", "u1"}) == (0.5, 2)
        assert (len(first), len(second)) == (1000, 1001)

    def test_write_amplification_stays_logarithmic(self):
        """2 000 publications of 5 new tagsets each: a full copy per
        publication would write ~10 M entries, the layered one a few per
        entry."""
        tracker = TrackerBolt()
        tracker.snapshot(0)
        for batch in range(2000):
            tracker.ingest([
                (frozenset({f"a{batch}", f"b{i}"}), 0.5, 1) for i in range(5)
            ])
            snapshot = tracker.snapshot(batch + 1)
        assert len(snapshot) == 10_000
        assert snapshot.layer_count <= 14  # log2(10 000) + 1
        assert snapshot.entries_copied <= 14 * 10_000

    def test_a_published_bolt_survives_pickling(self):
        """The process executor ships bolts between processes."""
        tracker = TrackerBolt()
        tracker.ingest(random_triples(3, 300))
        tracker.snapshot(1)
        tracker.ingest(random_triples(4, 30))  # dirty, not yet published
        clone = pickle.loads(pickle.dumps(tracker))
        for bolt in (tracker, clone):
            bolt.ingest(random_triples(5, 30))
        ours, theirs = tracker.snapshot(2), clone.snapshot(2)
        expected = (
            full_copy(tracker),
            tracker.reports_received,
            tracker.duplicate_reports,
        )
        assert_equals_full_copy(ours, *expected)
        assert_equals_full_copy(theirs, *expected)
        assert theirs.entries_copied == ours.entries_copied
        assert pickle.loads(pickle.dumps(ours)).digest() == ours.digest()


# --------------------------------------------------------------------- #
# One ordering rule: select_top_k ≡ the full sort
# --------------------------------------------------------------------- #
def tie_heavy_table():
    """Hundreds of ``jaccard == 1.0`` rows of equal support straddle any
    small cut, under a handful of better rows and many worse ones."""
    rng = random.Random(6)
    table = {}
    for i in rng.sample(range(10_000), 400):
        table[frozenset({f"x{i}", f"y{i}"})] = (1.0, 3)
    for i in range(5):
        table[frozenset({f"top{i}", "z"})] = (1.0, 9 - i)
    for i in range(600):
        table[frozenset({f"low{i}", "w"})] = (rng.random() * 0.99, rng.randint(1, 9))
    items = list(table.items())
    rng.shuffle(items)
    return dict(items)


class TestOrderingRule:
    CASES = [(1, 0), (5, 0), (6, 0), (10, 0), (250, 0), (405, 0), (406, 0),
             (5_000, 0), (10, 4), (500, 4), (10, 10)]

    def test_select_top_k_equals_the_full_sort_on_mass_ties(self):
        table = tie_heavy_table()
        for k, min_support in self.CASES:
            assert select_top_k(table.items(), k, min_support) == (
                full_sort_top_k(table, k, min_support)
            ), (k, min_support)
        assert select_top_k({}.items(), 3) == []
        assert select_top_k(table.items(), 0) == full_sort_top_k(table, 0) == []

    def test_layered_snapshot_with_overridden_entries(self):
        """Rows a newer layer overrides must not take part: neither the
        stale better value nor the stale worse one."""
        table = tie_heavy_table()
        keys = list(table)
        older = dict(table)
        older[keys[0]] = (1.0, 50)   # stale: would top the list
        older[keys[1]] = (0.0, 1)    # stale: would drop out
        newer = {keys[0]: table[keys[0]], keys[1]: table[keys[1]]}
        snapshot = TrackerSnapshot(
            round_index=1, reports_received=0, duplicate_reports=0,
            layers=tuple(
                {tuple(sorted(key)): pair for key, pair in layer.items()}
                for layer in (newer, older)
            ),
            size=len(table),
        )
        assert snapshot.entries == table
        assert snapshot.digest() == table_digest(table)
        for k, min_support in self.CASES:
            assert snapshot.top_k(k, min_support) == (
                full_sort_top_k(table, k, min_support)
            ), (k, min_support)

    def test_run_backed_snapshot_answers_in_the_same_order(self, tmp_path):
        table = tie_heavy_table()
        store = SpillingTrackerStore(
            config=StoreConfig(spill_dir=str(tmp_path), spill_threshold=64)
        )
        try:
            store.ingest(
                (tagset, jaccard, support)
                for tagset, (jaccard, support) in table.items()
            )
            snapshot = store.snapshot(1, len(table), 0)
            try:
                assert snapshot.layer_count > 1
                for k, min_support in self.CASES:
                    assert snapshot.top_k(k, min_support) == (
                        full_sort_top_k(table, k, min_support)
                    ), (k, min_support)
            finally:
                snapshot.close()
        finally:
            store.close()

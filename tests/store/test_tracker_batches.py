"""Property suite for the tracker store's batch ingest.

``SpillingTrackerStore.ingest`` decides new-vs-duplicate once per batch —
the batch's non-hot tagsets are sorted and resolved against the runs live
at batch start with one forward cursor per run — and only then applies
the triples, spilling and compacting mid-batch as the hot dict fills.
Whatever the batch sequence (in-batch repeats included), the spill
threshold (1–8) and the merge fan-in (2–4), the store must answer exactly
like a dict-backed ``TrackerBolt`` fed the same batches: the
``(received, duplicates)`` of every call, ``len``, every record of
``iter_entries`` / ``get``, and the digest of a snapshot taken at any
point.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators.tracker import TrackerBolt
from repro.store import SpillingTrackerStore, StoreConfig

TAGS = ["a", "b", "c", "d", "e", "f", "ü"]

# Tags arrive as frozensets on the wire and as tuples from other callers.
triples = st.tuples(
    st.frozensets(st.sampled_from(TAGS), min_size=1, max_size=3).flatmap(
        lambda tags: st.sampled_from([tags, tuple(sorted(tags))])
    ),
    st.sampled_from([0.125, 0.25, 0.5, 1.0 / 3.0, 1.0]),
    st.integers(1, 6),
)

# A batch is drawn from a small pool and then repeated into, so in-batch
# repeats (the case a mid-batch spill can freeze between two sightings)
# are common rather than rare.
batches = st.lists(
    st.lists(triples, min_size=1, max_size=12).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=24)
    ),
    min_size=1,
    max_size=8,
)

queries = st.lists(st.sampled_from(["len", "get", "snapshot"]), max_size=8)


def dict_records(bolt):
    return {
        tagset: (tracked.jaccard, tracked.support, tracked.reports)
        for tagset, tracked in bolt._best.items()
    }


@given(
    batch_list=batches,
    threshold=st.integers(1, 8),
    fan_in=st.integers(2, 4),
    between=queries,
)
@settings(max_examples=150, deadline=None)
def test_batches_fold_like_the_dict_tracker(batch_list, threshold, fan_in, between):
    with tempfile.TemporaryDirectory() as root:
        store = SpillingTrackerStore(config=StoreConfig(
            spill_dir=root, spill_threshold=threshold, merge_fan_in=fan_in,
        ))
        bolt = TrackerBolt()
        try:
            for index, batch in enumerate(batch_list):
                before = (bolt.reports_received, bolt.duplicate_reports)
                bolt.ingest(batch)
                assert store.ingest(batch) == (
                    bolt.reports_received - before[0],
                    bolt.duplicate_reports - before[1],
                )
                query = between[index] if index < len(between) else "len"
                if query == "len":
                    assert len(store) == len(bolt)
                elif query == "get":
                    for tagset, record in dict_records(bolt).items():
                        assert store.get(tagset) == record
                        assert tagset in store
                    assert store.get(frozenset({"never"})) is None
                else:
                    snapshot = store.snapshot(
                        index, bolt.reports_received, bolt.duplicate_reports
                    )
                    try:
                        assert snapshot.digest() == bolt.snapshot(index).digest()
                        assert len(snapshot) == len(bolt)
                    finally:
                        snapshot.close()
            assert len(store) == len(bolt)
            assert {
                tagset: (jaccard, support, reports)
                for tagset, jaccard, support, reports in store.iter_entries()
            } == dict_records(bolt)
            assert store.stats()["hot_entries"] < threshold
        finally:
            store.close()
        assert os.listdir(root) == []


def test_a_spill_between_two_sightings_counts_a_duplicate():
    """The case the batch classification must get right by construction:
    threshold 1 spills every new tagset at once, so its second sighting in
    the same batch finds it in a run that did not exist at batch start."""
    with tempfile.TemporaryDirectory() as root:
        store = SpillingTrackerStore(spill_dir=root, spill_threshold=1)
        try:
            beer = frozenset({"beer"})
            assert store.ingest([(beer, 0.5, 2), (beer, 0.75, 3)]) == (2, 1)
            assert store.get(beer) == (0.75, 3, 2)
            assert store.stats()["membership_probes"] == 0  # no run at start
            assert store.ingest([(beer, 0.25, 1), (frozenset({"x"}), 1.0, 1)]) == (2, 1)
            # Neither tagset is hot at batch start: both resolve once.
            assert store.stats()["membership_probes"] == 2
            assert len(store) == 2
        finally:
            store.close()

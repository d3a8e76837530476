"""Property suite for the counter store's report-time window read.

A report or drain fold asks the spill store for one lookup over the whole
window (``SpillingCounterStore.window_lookup``): every live run read once
and summed with the hot segment into a table that belongs to that fold
alone.  Whatever interleaving of observations, spills, non-resetting folds
(a migration's prepare), aborted migrations (more observations after such
a fold) and resets came before, every lookup inside a fold must equal a
plain ``Counter`` fed the same observations — and a ``JaccardCalculator``
backed by the store must report exactly the dict-backed one's triples.
"""

import os
import tempfile
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jaccard import JaccardCalculator
from repro.store import SpillingCounterStore, StoreConfig

TAGS = ["a", "b", "c", "d", "e", "ü"]

keys = st.lists(st.sampled_from(TAGS), min_size=1, max_size=3, unique=True).map(
    lambda tags: tuple(sorted(tags))
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.lists(keys, min_size=1, max_size=6)),
        st.tuples(st.just("spill")),
        st.tuples(st.just("fold")),
        st.tuples(st.just("clear")),
    ),
    min_size=1,
    max_size=40,
)


def check_fold(store, reference):
    lookup = store.window_lookup()
    for key, count in reference.items():
        assert lookup(key) == count
    assert lookup(("never", "seen")) == 0


@given(ops=operations, threshold=st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_every_fold_lookup_equals_a_counter(ops, threshold):
    with tempfile.TemporaryDirectory() as root:
        store = SpillingCounterStore(
            StoreConfig(spill_dir=root, spill_threshold=threshold)
        )
        reference = Counter()
        largest = 0
        try:
            for op in ops:
                if op[0] == "observe":
                    store.update(op[1])
                    reference.update(op[1])
                elif op[0] == "spill":
                    store.spill()
                elif op[0] == "fold":
                    check_fold(store, reference)
                    largest = max(largest, len(reference))
                else:
                    store.clear()
                    reference.clear()
            check_fold(store, reference)
            largest = max(largest, len(reference))
            # The table holds one item per distinct key of the window.
            assert store.stats()["window_entries_max"] <= largest
        finally:
            store.close()
        assert os.listdir(root) == []


tagsets = st.frozensets(st.sampled_from(TAGS), min_size=1, max_size=5)

counter_operations = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.lists(tagsets, min_size=1, max_size=5)),
        st.tuples(st.just("prepare")),   # non-resetting fold
        st.tuples(st.just("report")),    # resetting fold
    ),
    min_size=1,
    max_size=25,
)


@given(ops=counter_operations, threshold=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_spill_subset_counter_reports_like_the_dict(ops, threshold):
    """A migration prepares with a non-resetting fold; if it aborts, the
    Calculator keeps counting into the same window.  Neither may leave a
    table behind that a later fold reads."""
    with tempfile.TemporaryDirectory() as root:
        spill = JaccardCalculator(
            store=StoreConfig(spill_dir=root, spill_threshold=threshold)
        )
        plain = JaccardCalculator()
        try:
            for op in ops:
                if op[0] == "observe":
                    for tagset in op[1]:
                        spill.observe(tagset)
                        plain.observe(tagset)
                    continue
                assert spill.report_triples(reset=False) == (
                    plain.report_triples(reset=False)
                )
                if op[0] == "report":
                    spill.reset_counts()
                    plain.reset_counts()
            assert spill.report_triples() == plain.report_triples()
        finally:
            spill.close()
        assert os.listdir(root) == []

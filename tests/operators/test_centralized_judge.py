"""The integer-coded baseline fold against the tuple-keyed ``Counter`` fold.

``counter_ground_truth`` (tests/oracle.py) is the baseline as it counted
before: a tuple per subset.  The numpy fold must give the same dict — the
same keys, the same float bits and the same key order, because the error
report's mean sums in that order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import counter_ground_truth
from repro.operators import centralized
from repro.operators.centralized import CentralizedCalculatorBolt

#: Tags listed out of string order, in which upper case sorts before lower
#: case, a prefix before its extensions and ASCII before "é".
TAGS = ("b", "a", "ab", "B", "c", "ca", "d", "é", "z")


def fold(stream, **params):
    baseline = CentralizedCalculatorBolt(**params)
    for tagset in stream:
        baseline.observe(tagset)
    return baseline


def assert_same(actual, expected):
    assert list(actual) == list(expected)  # keys, in order
    assert [value.hex() for value in actual.values()] == [
        value.hex() for value in expected.values()
    ]


@st.composite
def streams(draw):
    """A stream over a small pool of tagsets: exact repeats are common,
    and empty and over-long (> max_subset_size) tagsets occur."""
    pool = draw(
        st.lists(st.frozensets(st.sampled_from(TAGS), max_size=7),
                 min_size=1, max_size=8)
    )
    return draw(st.lists(st.sampled_from(pool), max_size=40))


@settings(max_examples=60, deadline=None)
@given(
    stream=streams(),
    min_occurrences=st.integers(1, 4),
    max_subset_size=st.integers(2, 5),
)
def test_matches_counter_fold(stream, min_occurrences, max_subset_size):
    params = dict(min_occurrences=min_occurrences, max_subset_size=max_subset_size)
    baseline = fold(stream, **params)
    assert_same(baseline.ground_truth(), counter_ground_truth(stream, **params))
    assert baseline.documents_seen == len(stream)


@settings(max_examples=25, deadline=None)
@given(stream=streams(), cut=st.integers(0, 40))
def test_interleaved_reads_equal_one_read(stream, cut):
    baseline = CentralizedCalculatorBolt(min_occurrences=1)
    for tagset in stream[:cut]:
        baseline.observe(tagset)
    baseline.ground_truth()
    for tagset in stream[cut:]:
        baseline.observe(tagset)
    once = fold(stream, min_occurrences=1).ground_truth()
    assert_same(baseline.ground_truth(), once)
    assert_same(once, counter_ground_truth(stream, min_occurrences=1))


def test_result_is_cached_until_the_next_observe():
    baseline = fold([frozenset("ab")] * 2, min_occurrences=1)
    truth = baseline.ground_truth()
    assert baseline.ground_truth() is truth
    baseline.observe(frozenset("a"))
    assert baseline.ground_truth() == {("a", "b"): 2 / 3}


def test_vocabulary_past_16_bits():
    """70 000 tags: four ids packed in base n overflow int64 from 55 108
    tags on; the prefix-rank codes do not, and match the oracle."""
    n = 70_000
    tags = [f"t{index:05d}" for index in range(n)]
    stream = [
        frozenset(tags[(i + step) % n] for step in (0, 1, 2, 7))
        for i in range(0, n, 3)
    ]
    # Every other tagset twice, and the one holding the largest id: those
    # qualify.
    stream += stream[::2] + stream[-1:]
    baseline = fold(stream, min_occurrences=1)
    truth = baseline.ground_truth()
    assert len(set().union(*stream)) > 65_536
    assert any(key[-1] == tags[-1] for key in truth)
    assert_same(truth, counter_ground_truth(stream, min_occurrences=1))


def test_code_overflow_raises(monkeypatch):
    """A code range past the int64 limit raises instead of wrapping."""
    monkeypatch.setattr(centralized, "_CODE_LIMIT", 20)
    baseline = fold([frozenset("abcde")] * 2, min_occurrences=1)
    with pytest.raises(OverflowError):
        baseline.ground_truth()

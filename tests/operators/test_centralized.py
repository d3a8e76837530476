"""Unit tests for the centralised exact baseline."""

import pytest

from repro.operators.centralized import CentralizedCalculatorBolt
from repro.operators.streams import TAGSETS
from repro.streamsim.tuples import stream_schema

OTHER = stream_schema("x", ("doc_id", "timestamp", "tagset"))


def tagset_message(tags, doc_id):
    return TAGSETS.message(tagset=frozenset(tags), doc_id=doc_id, timestamp=0.0)


class TestCentralizedCalculator:
    def test_invalid_min_occurrences(self):
        with pytest.raises(ValueError):
            CentralizedCalculatorBolt(min_occurrences=0)

    def test_invalid_max_subset_size(self):
        with pytest.raises(ValueError):
            CentralizedCalculatorBolt(max_subset_size=1)

    def test_qualifying_threshold(self):
        baseline = CentralizedCalculatorBolt(min_occurrences=3)
        for doc_id in range(4):
            baseline.execute(tagset_message(["a", "b"], doc_id))
        for doc_id in range(4, 6):
            baseline.execute(tagset_message(["c", "d"], doc_id))
        truth = baseline.ground_truth()
        assert ("a", "b") in truth
        assert ("c", "d") not in truth

    def test_exact_jaccard_over_whole_run(self):
        baseline = CentralizedCalculatorBolt(min_occurrences=1)
        baseline.execute(tagset_message(["a", "b"], 0))
        baseline.execute(tagset_message(["a", "b"], 1))
        baseline.execute(tagset_message(["a"], 2))
        baseline.execute(tagset_message(["b", "c"], 3))
        # docs with a and b: {0,1}; docs with a or b: {0,1,2,3}
        assert baseline.ground_truth()[("a", "b")] == 0.5

    def test_ground_truth_keys_are_sorted_tag_tuples(self):
        baseline = CentralizedCalculatorBolt(min_occurrences=1)
        for doc_id in range(2):
            baseline.execute(tagset_message(["b", "a"], doc_id))
        assert baseline.ground_truth() == {("a", "b"): 1.0}

    def test_subsets_of_larger_tagsets_counted(self):
        def truth(min_occurrences):
            baseline = CentralizedCalculatorBolt(min_occurrences=min_occurrences)
            for doc_id in range(2):
                baseline.execute(tagset_message(["a", "b", "c"], doc_id))
            baseline.execute(tagset_message(["a"], 2))
            return baseline.ground_truth()

        # {a, b} is counted twice, by the two {a, b, c} documents: it passes
        # a threshold of 1 and fails one of 2; a or b is in all three.
        assert truth(1)[("a", "b")] == pytest.approx(2 / 3)
        assert truth(1)[("b", "c")] == 1.0
        assert truth(2) == {}

    def test_max_subset_size_limits_enumeration(self):
        baseline = CentralizedCalculatorBolt(min_occurrences=1, max_subset_size=2)
        for doc_id in range(2):
            baseline.execute(tagset_message(["a", "b", "c"], doc_id))
        assert list(baseline.ground_truth()) == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_empty_tagsets_are_documents_without_subsets(self):
        baseline = CentralizedCalculatorBolt(min_occurrences=1)
        baseline.execute(tagset_message([], 0))
        assert baseline.documents_seen == 1
        assert baseline.ground_truth() == {}

    def test_documents_seen(self):
        baseline = CentralizedCalculatorBolt()
        baseline.execute(tagset_message(["a"], 0))
        assert baseline.documents_seen == 1

    def test_other_streams_ignored(self):
        baseline = CentralizedCalculatorBolt()
        baseline.execute(OTHER.message(tagset=frozenset({"a"})))
        assert baseline.documents_seen == 0

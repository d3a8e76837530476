"""Tests for the shared partitioning helpers and the default addition policy."""

import pytest

from repro.core.cooccurrence import CooccurrenceStatistics
from repro.core.documents import documents_from_tagsets
from repro.core.partition import PartitionAssignment
from repro.partitioning import make_partitioner
from repro.partitioning.base import Partitioner, least_loaded_index, validate_k


class _OnePartition(Partitioner):
    """Everything in partition 0; keeps the base addition policy."""

    name = "one"

    def partition(self, statistics, k):
        validate_k(k)
        assignment = PartitionAssignment.empty(k)
        for tagset, count in statistics.tagset_counts.items():
            assignment.add_tagset(0, tagset, load=count)
        return assignment


class TestValidateK:
    @pytest.mark.parametrize("k", [0, -1, -100])
    def test_non_positive_rejected(self, k):
        with pytest.raises(ValueError, match=f"got {k}"):
            validate_k(k)

    @pytest.mark.parametrize("k", [1, 2, 64])
    def test_positive_accepted(self, k):
        validate_k(k)


class TestLeastLoadedIndex:
    @pytest.mark.parametrize(
        "loads, expected",
        [
            ([7], 0),
            ([3, 1, 2], 1),
            ([2, 1, 1], 1),
            ([0, 0, 0], 0),
            ([5, 4, 3, 2, 1], 4),
            ([-1, 0, -1], 0),
        ],
        ids=["single", "unique-min", "tie-first-wins", "all-equal", "last", "negative"],
    )
    def test_first_minimum(self, loads, expected):
        assert least_loaded_index(loads) == expected


class TestDefaultAdditionPolicy:
    @pytest.fixture
    def assignment(self):
        assignment = PartitionAssignment.from_tag_sets(
            [{"a", "b", "c"}, {"c", "d"}, {"e"}]
        )
        for partition, load in zip(assignment, (10, 1, 5)):
            partition.load = load
        return assignment

    @pytest.mark.parametrize(
        "tagset, expected",
        [
            ({"a", "b", "z"}, 0),
            ({"c", "d"}, 1),
            ({"c"}, 1),
            ({"e", "y"}, 2),
            ({"x", "y"}, 1),
        ],
        ids=[
            "most-shared",
            "most-shared-despite-load",
            "shared-tie-to-least-loaded",
            "only-sharer",
            "no-sharer-least-loaded",
        ],
    )
    def test_prefers_shared_tags_then_least_load(self, assignment, tagset, expected):
        assert _OnePartition().best_partition_for_addition(assignment, tagset) == (
            expected
        )

    def test_empty_assignment_rejected(self):
        with pytest.raises(ValueError, match="empty assignment"):
            _OnePartition().best_partition_for_addition(
                PartitionAssignment.empty(0), frozenset({"a"})
            )


class TestPartitionDocuments:
    @pytest.mark.parametrize("name", ["DS", "SCL"])
    def test_equals_partitioning_the_statistics(self, figure1_documents, name):
        partitioner = make_partitioner(name)
        direct = partitioner.partition(
            CooccurrenceStatistics.from_documents(figure1_documents), 2
        )
        wrapped = partitioner.partition_documents(figure1_documents, 2)
        assert wrapped.as_tag_sets() == direct.as_tag_sets()
        assert wrapped.loads() == direct.loads()

    def test_base_policy_partitioner_covers_every_tagset(self):
        documents = documents_from_tagsets([["a", "b"], ["b", "c"], ["d"]])
        assignment = _OnePartition().partition_documents(documents, 3)
        assert assignment.coverage(doc.tags for doc in documents) == 1.0
        assert assignment.loads() == [3, 0, 0]

"""Unit tests for partitions and the tag-to-calculator assignment."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import Partition, PartitionAssignment, PartitionSeed


@pytest.fixture
def figure1_assignment():
    """The example assignment of Section 3 (pr1 / pr2)."""
    return PartitionAssignment.from_tag_sets(
        [
            {"munich", "beer", "soccer", "oktoberfest", "beach", "sunny", "friday"},
            {"beer", "pizza", "bavaria", "soccer"},
        ]
    )


class TestPartition:
    def test_covers(self):
        partition = Partition(index=0, tags={"a", "b", "c"})
        assert partition.covers({"a", "b"})
        assert not partition.covers({"a", "d"})

    def test_add_tags_accumulates_load(self):
        partition = Partition(index=0)
        partition.add_tags({"a"}, load=3)
        partition.add_tags({"b"}, load=2)
        assert partition.load == 5
        assert len(partition) == 2

    def test_shared_tags(self):
        partition = Partition(index=0, tags={"a", "b"})
        assert partition.shared_tags({"b", "c"}) == 1

    def test_contains(self):
        partition = Partition(index=0, tags={"a"})
        assert "a" in partition
        assert "z" not in partition


class TestRouting:
    def test_route_splits_tags_by_owner(self, figure1_assignment):
        routes = figure1_assignment.route({"beer", "pizza", "munich"})
        assert routes[0] == frozenset({"beer", "munich"})
        assert routes[1] == frozenset({"beer", "pizza"})

    def test_route_unknown_tags_empty(self, figure1_assignment):
        assert figure1_assignment.route({"unknown"}) == {}

    def test_covering_partitions(self, figure1_assignment):
        assert figure1_assignment.covering_partitions({"beer", "soccer"}) == [0, 1]
        assert figure1_assignment.covering_partitions({"beer", "pizza"}) == [1]
        assert figure1_assignment.covering_partitions({"pizza", "sunny"}) == []

    def test_covers(self, figure1_assignment):
        assert figure1_assignment.covers({"beach", "sunny"})
        assert not figure1_assignment.covers({"pizza", "oktoberfest"})

    def test_empty_tagset_not_covered(self, figure1_assignment):
        assert figure1_assignment.covering_partitions([]) == []

    def test_partitions_for_tag(self, figure1_assignment):
        assert figure1_assignment.partitions_for_tag("beer") == {0, 1}
        assert figure1_assignment.partitions_for_tag("pizza") == {1}


class TestQualityMeasures:
    def test_replication_factor(self, figure1_assignment):
        # 9 distinct tags, 11 assignments -> 11/9
        assert figure1_assignment.replication_factor() == pytest.approx(11 / 9)

    def test_replicated_tags(self, figure1_assignment):
        assert figure1_assignment.replicated_tags() == {"beer", "soccer"}

    def test_replication_factor_disjoint_is_one(self):
        assignment = PartitionAssignment.from_tag_sets([{"a", "b"}, {"c"}])
        assert assignment.replication_factor() == 1.0

    def test_coverage(self, figure1_assignment):
        tagsets = [{"munich", "beer"}, {"pizza", "oktoberfest"}]
        assert figure1_assignment.coverage(tagsets) == 0.5
        assert figure1_assignment.coverage([]) == 1.0

    def test_communication_load(self, figure1_assignment):
        # {beer} -> 2 partitions, {pizza} -> 1 partition, unknown -> skipped
        value = figure1_assignment.communication_load([{"beer"}, {"pizza"}, {"zz"}])
        assert value == pytest.approx(1.5)

    def test_expected_calculator_loads(self, figure1_assignment):
        loads = figure1_assignment.expected_calculator_loads(
            [{"beer"}, {"pizza"}, {"beach"}]
        )
        assert loads == [2, 2]

    def test_summary_keys(self, figure1_assignment):
        summary = figure1_assignment.summary()
        assert set(summary) == {"k", "tags", "replication_factor", "max_load_share"}


class TestMutation:
    def test_add_tagset_updates_index_and_load(self):
        assignment = PartitionAssignment.empty(2)
        assignment.add_tagset(1, {"x", "y"}, load=4)
        assert assignment.covers({"x", "y"})
        assert assignment.partition(1).load == 4
        assert assignment.partitions_for_tag("x") == {1}

    def test_empty_assignment_properties(self):
        assignment = PartitionAssignment.empty(3)
        assert assignment.k == 3
        assert assignment.replication_factor() == 0.0
        assert assignment.all_tags() == set()
        assert assignment.loads() == [0, 0, 0]


def reference_route(assignment, tagset):
    """``route`` as it was before it shared the input tagset: a fresh
    frozenset per notified partition, in tag/owner iteration order."""
    per_partition = {}
    for tag in tagset:
        for index in assignment.partitions_for_tag(tag):
            per_partition.setdefault(index, set()).add(tag)
    return {index: frozenset(tags) for index, tags in per_partition.items()}


def assert_shares_only_whole_routes(assignment, tagset, routes):
    """A partition owning every tag of the frozenset gets the object itself;
    any other gets a fresh frozenset of the tags it owns."""
    for index, routed in routes.items():
        owned = tagset & assignment.partition(index).tags
        assert type(routed) is frozenset and routed == owned
        assert (routed is tagset) == (owned == tagset)


class TestRouteAndCovered:
    """The Disseminator's one-pass query must agree with the two-pass one."""

    @pytest.mark.parametrize(
        "tagset",
        [
            [],
            ["munich"],
            ["munich", "beer"],
            ["beer", "pizza"],
            ["beer", "soccer"],
            ["munich", "pizza"],
            ["nowhere"],
            ["munich", "nowhere"],
            ["nowhere", "munich"],
            ["pizza", "bavaria", "soccer", "beer"],
        ],
        ids=[
            "empty",
            "single-owner",
            "covered-by-one",
            "covered-by-other",
            "covered-by-both",
            "split",
            "unknown",
            "known-then-unknown",
            "unknown-then-known",
            "whole-partition",
        ],
    )
    def test_matches_route_and_covers(self, figure1_assignment, tagset):
        routes, covered = figure1_assignment.route_and_covered(tagset)
        assert routes == reference_route(figure1_assignment, tagset)
        assert covered == figure1_assignment.covers(tagset)
        frozen = frozenset(tagset)
        routes, covered = figure1_assignment.route_and_covered(frozen)
        assert routes == reference_route(figure1_assignment, frozen)
        assert covered == figure1_assignment.covers(frozen)
        assert_shares_only_whole_routes(figure1_assignment, frozen, routes)
        assert_shares_only_whole_routes(
            figure1_assignment, frozen, figure1_assignment.route(frozen)
        )

    def test_covering_partition_gets_the_input_object(self, figure1_assignment):
        tagset = frozenset({"beer", "soccer"})  # owned whole by both partitions
        routes = figure1_assignment.route(tagset)
        assert routes[0] is tagset and routes[1] is tagset
        split = frozenset({"munich", "pizza"})
        assert all(
            routed is not split
            for routed in figure1_assignment.route(split).values()
        )
        listed = ["beer", "soccer"]  # only a frozenset can be shared
        assert all(
            type(routed) is frozenset
            for routed in figure1_assignment.route(listed).values()
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sets(st.sampled_from("abcdefgh"), max_size=5), min_size=1, max_size=4
        ),
        st.lists(st.sampled_from("abcdefghij"), max_size=6),
    )
    def test_matches_on_random_assignments(self, tag_sets, tagset):
        assignment = PartitionAssignment.from_tag_sets(tag_sets)
        frozen = frozenset(tagset)
        for tags in (tagset, frozen):
            routes, covered = assignment.route_and_covered(tags)
            expected = reference_route(assignment, tags)
            assert routes == expected and list(routes) == list(expected)
            assert covered == assignment.covers(tags)
        assert_shares_only_whole_routes(assignment, frozen, routes)


class TestPartitionSeed:
    def test_build_assignment_restores_tags_and_loads(self):
        seed = PartitionSeed(
            tag_sets=(frozenset({"a", "b"}), frozenset({"b", "c"})),
            loads=(5, 2),
            avg_com=1.2,
            max_load=0.6,
        )
        assignment = seed.build_assignment()
        assert seed.k == assignment.k == 2
        assert assignment.as_tag_sets() == [{"a", "b"}, {"b", "c"}]
        assert assignment.loads() == [5, 2]
        assert assignment.partitions_for_tag("b") == {0, 1}

    def test_each_build_is_a_fresh_assignment(self):
        seed = PartitionSeed(
            tag_sets=(frozenset({"a"}),), loads=(1,), avg_com=1.0, max_load=1.0
        )
        first = seed.build_assignment()
        first.add_tagset(0, {"z"}, load=9)
        second = seed.build_assignment()
        assert second.as_tag_sets() == [{"a"}]
        assert second.loads() == [1]

    @pytest.mark.parametrize(
        "tag_sets, loads",
        [((frozenset({"a"}),), ()), ((), (1,)), ((frozenset(), frozenset()), (1,))],
        ids=["loads-short", "tags-short", "one-load-two-sets"],
    )
    def test_length_mismatch_rejected(self, tag_sets, loads):
        with pytest.raises(ValueError, match="same length"):
            PartitionSeed(tag_sets=tag_sets, loads=loads, avg_com=0.0, max_load=0.0)


class TestTagCounts:
    def test_figure1(self, figure1_assignment):
        assert figure1_assignment.tag_counts() == [7, 4]

    def test_tracks_additions(self):
        assignment = PartitionAssignment.empty(2)
        assignment.add_tagset(0, {"x", "y"})
        assignment.add_tagset(0, {"y", "z"})
        assert assignment.tag_counts() == [3, 0]

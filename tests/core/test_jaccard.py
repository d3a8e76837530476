"""Unit and property tests for Jaccard computation."""

import pickle
import random

import pytest
from hypothesis import given, strategies as st

from oracle import as_report, eq2_report
from repro.core.jaccard import (
    JaccardCalculator,
    SubsetCounter,
    SubsetTupleCache,
    all_nonempty_subsets,
    exact_jaccard,
    union_size_inclusion_exclusion,
)


class TestExactJaccard:
    def test_identical_sets(self):
        assert exact_jaccard([{1, 2}, {1, 2}]) == 1.0

    def test_disjoint_sets(self):
        assert exact_jaccard([{1}, {2}]) == 0.0

    def test_partial_overlap(self):
        # intersection {2}, union {1,2,3} -> 1/3
        assert exact_jaccard([{1, 2}, {2, 3}]) == pytest.approx(1 / 3)

    def test_empty_input(self):
        assert exact_jaccard([]) == 0.0

    def test_all_empty_sets(self):
        assert exact_jaccard([set(), set()]) == 0.0

    def test_three_way(self):
        sets = [{1, 2, 3}, {2, 3, 4}, {2, 3, 5}]
        assert exact_jaccard(sets) == pytest.approx(2 / 5)


class TestSubsets:
    def test_all_nonempty_subsets_count(self):
        subsets = all_nonempty_subsets(["a", "b", "c"])
        assert len(subsets) == 7

    def test_subsets_of_single_tag(self):
        assert all_nonempty_subsets(["a"]) == [frozenset({"a"})]

    def test_duplicates_removed(self):
        assert len(all_nonempty_subsets(["a", "a"])) == 1


class TestInclusionExclusion:
    def test_pair(self):
        counts = {
            frozenset({"a"}): 10,
            frozenset({"b"}): 4,
            frozenset({"a", "b"}): 3,
        }
        assert union_size_inclusion_exclusion(frozenset({"a", "b"}), counts) == 11

    def test_triple(self):
        counts = {
            frozenset({"a"}): 5,
            frozenset({"b"}): 5,
            frozenset({"c"}): 5,
            frozenset({"a", "b"}): 2,
            frozenset({"a", "c"}): 2,
            frozenset({"b", "c"}): 2,
            frozenset({"a", "b", "c"}): 1,
        }
        assert union_size_inclusion_exclusion(frozenset({"a", "b", "c"}), counts) == 10

    def test_missing_subsets_count_as_zero(self):
        counts = {frozenset({"a"}): 3}
        assert union_size_inclusion_exclusion(frozenset({"a", "b"}), counts) == 3


class TestSubsetCounter:
    def test_observe_counts_all_subsets(self):
        counter = SubsetCounter()
        counter.observe(["a", "b", "c"])
        assert counter.count(["a"]) == 1
        assert counter.count(["a", "b"]) == 1
        assert counter.count(["a", "b", "c"]) == 1
        assert len(counter) == 7

    def test_counts_accumulate(self):
        counter = SubsetCounter()
        counter.observe(["a", "b"])
        counter.observe(["a", "b"])
        counter.observe(["a"])
        assert counter.count(["a"]) == 3
        assert counter.count(["a", "b"]) == 2

    def test_empty_observation_ignored(self):
        counter = SubsetCounter()
        counter.observe([])
        assert len(counter) == 0

    def test_jaccard_from_counters(self):
        counter = SubsetCounter()
        for _ in range(3):
            counter.observe(["a", "b"])
        counter.observe(["a"])
        # intersection(a,b)=3, union = 4+3-3 = 4
        assert counter.jaccard(["a", "b"]) == pytest.approx(0.75)

    def test_jaccard_of_unseen_pair_is_zero(self):
        counter = SubsetCounter()
        counter.observe(["a"])
        counter.observe(["b"])
        assert counter.jaccard(["a", "b"]) == 0.0

    def test_clear(self):
        counter = SubsetCounter()
        counter.observe(["a", "b"])
        counter.clear()
        assert len(counter) == 0

    def test_max_tags_cap(self):
        counter = SubsetCounter(max_tags_per_document=3)
        counter.observe([f"t{i}" for i in range(10)])
        # Only subsets of the first 3 (sorted) tags are counted: 7 subsets.
        assert len(counter) == 7

    def test_contains(self):
        counter = SubsetCounter()
        counter.observe(["a", "b"])
        assert ["a", "b"] in counter
        assert ["a", "c"] not in counter


class TestSubsetTupleCache:
    def test_hit_and_miss_accounting(self):
        cache = SubsetTupleCache(capacity=8)
        cache.lookup(frozenset({"a", "b"}))
        cache.lookup(frozenset({"a", "b"}))
        cache.lookup(["b", "a"])  # same tagset, different input shape
        cache.lookup(frozenset({"c"}))
        stats = cache.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 2
        assert stats["evictions"] == 0
        assert stats["size"] == 2

    def test_entry_shape(self):
        cache = SubsetTupleCache()
        key, by_mask, nonempty = cache.lookup(frozenset({"b", "a"}))
        assert key == ("a", "b")
        # Bitmask layout: bit i of the mask selects key[i].
        assert by_mask == ((), ("a",), ("b",), ("a", "b"))
        assert nonempty == (("a",), ("b",), ("a", "b"))

    def test_eviction_on_capacity_overflow(self):
        cache = SubsetTupleCache(capacity=2)
        first = cache.lookup(frozenset({"a"}))
        cache.lookup(frozenset({"b"}))
        cache.lookup(frozenset({"c"}))  # evicts {"a"} (least recently used)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        assert frozenset({"a"}) not in cache
        assert frozenset({"c"}) in cache

    def test_lru_order_protects_recently_used(self):
        cache = SubsetTupleCache(capacity=2)
        cache.lookup(frozenset({"a"}))
        cache.lookup(frozenset({"b"}))
        cache.lookup(frozenset({"a"}))  # refresh {"a"}
        cache.lookup(frozenset({"c"}))  # must evict {"b"}, not {"a"}
        assert frozenset({"a"}) in cache
        assert frozenset({"b"}) not in cache

    def test_evicted_entry_recomputed_identically(self):
        cache = SubsetTupleCache(capacity=1)
        tagset = frozenset({"x", "y", "z"})
        original = cache.lookup(tagset)
        cache.lookup(frozenset({"other"}))  # evict
        assert tagset not in cache
        assert cache.lookup(tagset) == original

    def test_correctness_under_heavy_eviction(self):
        """A thrashing cache (capacity 1) never changes counter results."""
        rng = random.Random(3)
        tags = [f"t{i}" for i in range(8)]
        observations = [
            rng.sample(tags, rng.randrange(1, 5)) for _ in range(200)
        ]
        tiny = SubsetCounter(subset_cache_size=1)
        roomy = SubsetCounter(subset_cache_size=4096)
        for observation in observations:
            tiny.observe(observation)
            roomy.observe(observation)
        assert tiny.cache.stats()["evictions"] > 0
        tiny_results = {r[0]: r[1:] for r in tiny.report_triples()}
        roomy_results = {r[0]: r[1:] for r in roomy.report_triples()}
        assert tiny_results == roomy_results

    def test_max_subset_size_caps_enumeration(self):
        cache = SubsetTupleCache(max_subset_size=2)
        key, by_mask, nonempty = cache.lookup(frozenset({"a", "b", "c"}))
        assert key == ("a", "b", "c")
        assert by_mask is None  # a capped enumeration is not a full lattice
        assert max(len(subset) for subset in nonempty) == 2
        assert len(nonempty) == 6  # 3 singletons + 3 pairs

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SubsetTupleCache(capacity=0)

    def test_pickles_its_bounds_and_counters_not_its_entries(self):
        """The enumerations are derived data: a pickled copy comes back
        empty (and small) and rebuilds them on demand."""
        cache = SubsetTupleCache(capacity=2)
        tagsets = [frozenset({"a", "b", "c"}), frozenset({"a", "d"}),
                   frozenset({"b", "e"})]
        for tagset in tagsets + tagsets[2:]:
            cache.lookup(tagset)
        before = cache.stats()
        assert (before["hits"], before["misses"], before["evictions"]) == (1, 3, 1)
        blob = pickle.dumps(cache)
        clone = pickle.loads(blob)
        assert clone.stats() == {**before, "size": 0}
        assert len(blob) < 200
        assert clone.lookup(tagsets[0]) == SubsetTupleCache().lookup(tagsets[0])
        capped = pickle.loads(pickle.dumps(SubsetTupleCache(max_subset_size=2)))
        assert capped.max_subset_size == 2
        assert cache.stats() == before  # pickling left the original alone

    def test_injected_empty_cache_is_used(self):
        """An injected cache must be honored even while empty (len 0)."""
        cache = SubsetTupleCache(capacity=16)
        counter = SubsetCounter(subset_cache=cache)
        assert counter.cache is cache
        counter.observe(["a", "b"])
        assert cache.stats()["misses"] == 1

    def test_size_capped_cache_rejected(self):
        """The report fold needs full lattices; a capped cache (the
        centralized baseline's shape) cannot back a SubsetCounter."""
        with pytest.raises(ValueError):
            SubsetCounter(subset_cache=SubsetTupleCache(max_subset_size=2))


@pytest.fixture(params=["dict", "spill"])
def make_counter(request, tmp_path):
    """SubsetCounter factory over both counter stores (the spill store at a
    threshold low enough that every stream below spills several runs)."""

    def make(**options):
        if request.param == "spill":
            options.update(
                counter_store="spill", spill_dir=str(tmp_path), spill_threshold=16
            )
        return SubsetCounter(**options)

    return make


class TestReportingEngineEquivalence:
    """The report fold must be bit-identical to Equation (2) computed key by
    key (``tests/oracle.py``), under both counter stores."""

    def test_adversarial_overlapping_tagsets(self, make_counter):
        """Heavily overlapping tagsets share keys across lattice types."""
        counter = make_counter()
        observations = [
            ["a", "b", "c", "d"],
            ["b", "c", "d", "e"],
            ["a", "c", "e"],
            ["a", "b"],
            ["c", "d", "e"],
            ["a", "b", "c", "d", "e"],
            ["a"],
            ["a", "b"],  # repeated type
        ]
        for tags in observations:
            counter.observe(tags)
        assert as_report(counter.report_triples()) == eq2_report(counter)

    @pytest.mark.parametrize("min_size", [1, 2, 3])
    def test_randomized_streams(self, make_counter, min_size):
        rng = random.Random(min_size)
        tags = [f"t{i}" for i in range(12)]
        for _ in range(25):
            counter = make_counter()
            for _ in range(rng.randrange(1, 50)):
                counter.observe(rng.sample(tags, rng.randrange(1, 9)))
            assert as_report(counter.report_triples(min_size)) == eq2_report(
                counter, min_size
            )

    def test_max_tags_truncation_consistent(self, make_counter):
        wide = [f"t{i}" for i in range(20)]
        counter = make_counter(max_tags_per_document=6)
        counter.observe(wide)
        counter.observe(wide[:4])
        assert as_report(counter.report_triples()) == eq2_report(counter)

    def test_rounds_after_clear_carry_nothing_over(self, make_counter):
        """Only the subset cache survives clear(): every round's report is
        Equation (2) over that round's observations alone."""
        rng = random.Random(5)
        tags = [f"t{i}" for i in range(8)]
        recurring = [["t0", "t1", "t2"], ["t1", "t2", "t3"]]
        counter = make_counter()
        for _ in range(6):
            for observation in recurring:
                counter.observe(observation)
            for _ in range(rng.randrange(0, 12)):
                counter.observe(rng.sample(tags, rng.randrange(1, 6)))
            assert as_report(counter.report_triples()) == eq2_report(counter)
            counter.clear()
            assert counter.report_triples() == []
        assert counter.cache.stats()["hits"] > 0

    def test_types_fold_in_first_observation_order(self):
        """Fold order is triple order: a key shared by overlapping types is
        emitted by the type observed first, and re-observing a type does
        not move it.  The Tracker's table order — and with it every pinned
        digest — depends on this."""

        def reported(*observations):
            counter = SubsetCounter()
            for tags in observations:
                counter.observe(tags)
            return ["".join(sorted(t)) for t, _, _ in counter.report_triples()]

        abc, bcd = ["a", "b", "c"], ["b", "c", "d"]
        assert reported(abc, bcd) == ["ab", "ac", "bc", "abc", "bd", "cd", "bcd"]
        assert reported(bcd, abc) == ["bc", "bd", "cd", "bcd", "ab", "ac", "abc"]
        assert reported(abc, bcd, abc) == reported(abc, bcd)


class TestJaccardCalculator:
    def test_report_matches_exact_computation(self):
        calculator = JaccardCalculator()
        documents = [["a", "b"], ["a", "b"], ["a"], ["b", "c"]]
        for tags in documents:
            calculator.observe(tags)
        results = {r.tagset: r for r in calculator.report(reset=False)}
        ab = results[frozenset({"a", "b"})]
        # docs with a and b: 2; docs with a or b: 4
        assert ab.jaccard == pytest.approx(0.5)
        assert ab.support == 2

    def test_report_resets_counters(self):
        calculator = JaccardCalculator()
        calculator.observe(["a", "b"])
        calculator.report()
        assert calculator.observations == 0
        assert calculator.report() == []

    def test_min_size_filters_singletons(self):
        calculator = JaccardCalculator()
        calculator.observe(["a"])
        calculator.observe(["a", "b"])
        tagsets = {r.tagset for r in calculator.report(min_size=2)}
        assert frozenset({"a"}) not in tagsets
        assert frozenset({"a", "b"}) in tagsets


class TestJaccardProperties:
    documents_strategy = st.lists(
        st.sets(st.sampled_from("abcde"), min_size=1, max_size=4),
        min_size=1,
        max_size=40,
    )

    @given(documents_strategy)
    def test_counter_jaccard_matches_exact(self, documents):
        """The counter/inclusion-exclusion path equals the set-based ground truth."""
        calculator = JaccardCalculator()
        tag_docs: dict[str, set[int]] = {}
        for doc_id, tags in enumerate(documents):
            calculator.observe(tags)
            for tag in tags:
                tag_docs.setdefault(tag, set()).add(doc_id)
        for result in calculator.report(reset=False):
            expected = exact_jaccard([tag_docs[t] for t in result.tagset])
            assert result.jaccard == pytest.approx(expected)

    @given(documents_strategy, st.integers(min_value=1, max_value=3))
    def test_report_fold_matches_equation_2(self, documents, min_size):
        counter = SubsetCounter()
        for tags in documents:
            counter.observe(tags)
        assert as_report(counter.report_triples(min_size)) == eq2_report(
            counter, min_size
        )

    @given(documents_strategy)
    def test_coefficients_in_unit_interval(self, documents):
        calculator = JaccardCalculator()
        for tags in documents:
            calculator.observe(tags)
        for result in calculator.report():
            assert 0.0 < result.jaccard <= 1.0

    @given(documents_strategy)
    def test_support_equals_cooccurrence_count(self, documents):
        calculator = JaccardCalculator()
        for tags in documents:
            calculator.observe(tags)
        for result in calculator.report(reset=False):
            expected = sum(1 for tags in documents if result.tagset <= tags)
            assert result.support == expected

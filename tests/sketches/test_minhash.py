"""Unit and property tests for MinHash signatures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.jaccard import exact_jaccard
from repro.sketches.minhash import MinHash


class TestMinHash:
    def test_identical_sets_estimate_one(self):
        first = MinHash.from_items(["a", "b", "c"])
        second = MinHash.from_items(["a", "b", "c"])
        assert first.jaccard(second) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        first = MinHash.from_items([f"a{i}" for i in range(50)], num_perm=256)
        second = MinHash.from_items([f"b{i}" for i in range(50)], num_perm=256)
        assert first.jaccard(second) < 0.1

    def test_estimate_close_to_true_jaccard(self):
        universe = [f"item{i}" for i in range(200)]
        set_a = set(universe[:120])
        set_b = set(universe[60:180])
        truth = len(set_a & set_b) / len(set_a | set_b)
        estimate = MinHash.from_items(set_a, num_perm=512).jaccard(
            MinHash.from_items(set_b, num_perm=512)
        )
        assert estimate == pytest.approx(truth, abs=0.1)

    @pytest.mark.parametrize("overlap", [20, 60, 100, 140])
    def test_estimate_within_four_standard_errors(self, overlap):
        """Two 150-element sets sharing ``overlap`` elements; the estimator's
        standard error is at most 1/(2 sqrt(num_perm))."""
        num_perm = 256
        left = [f"item{i}" for i in range(150)]
        right = [f"item{i}" for i in range(150 - overlap, 300 - overlap)]
        truth = overlap / (300 - overlap)
        estimate = MinHash.from_items(left, num_perm=num_perm).jaccard(
            MinHash.from_items(right, num_perm=num_perm)
        )
        assert abs(estimate - truth) <= 4 / (2 * num_perm**0.5)

    def test_signature_ignores_insertion_order_and_duplicates(self):
        items = [f"tag{i}" for i in range(40)]
        forward = MinHash.from_items(items)
        backward = MinHash.from_items(reversed(items + items[:10]))
        assert (forward.values == backward.values).all()

    def test_incompatible_signatures_rejected(self):
        with pytest.raises(ValueError):
            MinHash(num_perm=64).jaccard(MinHash(num_perm=128))
        with pytest.raises(ValueError):
            MinHash(seed=1).jaccard(MinHash(seed=2))

    def test_invalid_num_perm(self):
        with pytest.raises(ValueError):
            MinHash(num_perm=0)


class TestPairwiseEstimates:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(0, 40), min_size=5, max_size=30),
            min_size=2,
            max_size=4,
        )
    )
    def test_estimate_within_tolerance_of_truth(self, sets):
        signatures = [MinHash.from_items(s, num_perm=256) for s in sets]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                truth = exact_jaccard([sets[i], sets[j]])
                estimate = signatures[i].jaccard(signatures[j])
                assert estimate == pytest.approx(truth, abs=0.25)

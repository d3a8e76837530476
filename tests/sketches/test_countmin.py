"""Unit and property tests for the Count-Min sketch."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sketches.countmin import CountMinSketch


class TestCountMinBasics:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CountMinSketch(epsilon=0)
        with pytest.raises(ValueError):
            CountMinSketch(delta=2)

    @pytest.mark.parametrize(
        "epsilon, delta, width, depth",
        [(0.1, 0.1, 28, 3), (0.01, 0.01, 272, 5), (0.001, 0.001, 2719, 7)],
    )
    def test_dimensions_follow_epsilon_and_delta(self, epsilon, delta, width, depth):
        """w = ceil(e / epsilon) columns, d = ceil(ln(1 / delta)) rows."""
        sketch = CountMinSketch(epsilon=epsilon, delta=delta)
        assert (sketch.width, sketch.depth) == (width, depth)

    def test_weighted_add_equals_repeated_add(self):
        weighted, repeated = CountMinSketch(), CountMinSketch()
        weighted.add(("beer", "munich"), 5)
        for _ in range(5):
            repeated.add(("beer", "munich"))
        assert weighted.estimate(("beer", "munich")) == 5
        assert repeated.estimate(("beer", "munich")) == 5

    def test_negative_update_rejected(self):
        sketch = CountMinSketch()
        with pytest.raises(ValueError):
            sketch.add("a", -1)

    def test_unseen_item_estimates_zero_when_empty(self):
        sketch = CountMinSketch()
        assert sketch.estimate("never") == 0

    def test_estimate_never_underestimates(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        for i in range(200):
            sketch.add(f"item{i % 20}")
        for i in range(20):
            assert sketch.estimate(f"item{i}") >= 10


class TestCountMinProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    def test_overestimation_within_bound(self, items):
        """CM estimates are >= true counts and within eps*N with high prob."""
        sketch = CountMinSketch(epsilon=0.01, delta=0.001)
        true_counts: dict[int, int] = {}
        for item in items:
            sketch.add(item)
            true_counts[item] = true_counts.get(item, 0) + 1
        for item, count in true_counts.items():
            estimate = sketch.estimate(item)
            assert estimate >= count
            assert estimate <= count + max(1, sketch.epsilon * len(items) * 10)

"""Unit tests for the Bloom filter."""

import math

import pytest

from repro.sketches.bloom import BloomFilter, optimal_parameters


class TestOptimalParameters:
    def test_reasonable_sizes(self):
        n_bits, n_hashes = optimal_parameters(1000, 0.01)
        assert n_bits > 1000
        assert 1 <= n_hashes <= 20

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ValueError):
            optimal_parameters(100, 1.5)

    @pytest.mark.parametrize(
        "items, rate", [(100, 0.1), (1000, 0.01), (5000, 0.001), (1, 0.5)]
    )
    def test_matches_closed_form(self, items, rate):
        """m = ceil(-n ln p / ln^2 2) bits and k = round(m/n ln 2) >= 1."""
        n_bits, n_hashes = optimal_parameters(items, rate)
        assert n_bits == math.ceil(-items * math.log(rate) / math.log(2) ** 2)
        assert n_hashes == max(1, round(n_bits / items * math.log(2)))


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(expected_items=500, false_positive_rate=0.01)
        items = [f"tag{i}" for i in range(500)]
        bloom.update(items)
        assert all(item in bloom for item in items)

    def test_false_positive_rate_is_bounded(self):
        bloom = BloomFilter(expected_items=1000, false_positive_rate=0.01)
        bloom.update(f"present{i}" for i in range(1000))
        false_positives = sum(
            1 for i in range(5000) if f"absent{i}" in bloom
        )
        assert false_positives / 5000 < 0.05

    @pytest.mark.parametrize("rate", [0.2, 0.05, 0.01])
    def test_false_positive_rate_near_target_at_capacity(self, rate):
        bloom = BloomFilter(expected_items=2000, false_positive_rate=rate)
        bloom.update(f"present{i}" for i in range(2000))
        probes = 20_000
        false_positives = sum(1 for i in range(probes) if f"absent{i}" in bloom)
        assert false_positives / probes < 2 * rate

    def test_false_positives_exist_when_overfilled(self):
        """Overfilling the filter creates the spurious co-occurrences the
        paper warns about in Section 2."""
        bloom = BloomFilter(expected_items=20, false_positive_rate=0.01)
        bloom.update(f"present{i}" for i in range(2000))
        false_positives = sum(1 for i in range(2000) if f"absent{i}" in bloom)
        assert false_positives > 0

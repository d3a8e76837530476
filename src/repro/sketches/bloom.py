"""Bloom filter over hashable items.

Section 2 of the paper argues that representing per-tag document sets with
Bloom filters [3] makes non-co-occurring tags look co-occurring because of
false positives.  This implementation is used by the sketch baseline
benchmark to measure exactly that effect.
"""

from __future__ import annotations

import hashlib
import math
from typing import Hashable, Iterable

from .encoding import canonical_bytes


def optimal_parameters(expected_items: int, false_positive_rate: float) -> tuple[int, int]:
    """Optimal (number of bits, number of hash functions) for a Bloom filter."""
    if expected_items <= 0:
        raise ValueError("expected_items must be positive")
    if not 0.0 < false_positive_rate < 1.0:
        raise ValueError("false_positive_rate must be in (0, 1)")
    n_bits = math.ceil(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2))
    n_hashes = max(1, round(n_bits / expected_items * math.log(2)))
    return n_bits, n_hashes


class BloomFilter:
    """A classic Bloom filter with double hashing.

    Parameters
    ----------
    expected_items:
        Number of distinct items the filter is sized for.
    false_positive_rate:
        Target false-positive probability at ``expected_items`` insertions.
    """

    def __init__(self, expected_items: int = 1000, false_positive_rate: float = 0.01) -> None:
        self.n_bits, self.n_hashes = optimal_parameters(
            expected_items, false_positive_rate
        )
        self.expected_items = expected_items
        self.false_positive_rate = false_positive_rate
        self._bits = bytearray((self.n_bits + 7) // 8)

    def _positions(self, item: Hashable) -> list[int]:
        digest = hashlib.blake2b(canonical_bytes(item), digest_size=16).digest()
        first = int.from_bytes(digest[:8], "big")
        second = int.from_bytes(digest[8:], "big") or 1
        return [(first + i * second) % self.n_bits for i in range(self.n_hashes)]

    def add(self, item: Hashable) -> None:
        for position in self._positions(item):
            self._bits[position // 8] |= 1 << (position % 8)

    def update(self, items: Iterable[Hashable]) -> None:
        for item in items:
            self.add(item)

    def __contains__(self, item: Hashable) -> bool:
        return all(
            self._bits[position // 8] & (1 << (position % 8))
            for position in self._positions(item)
        )

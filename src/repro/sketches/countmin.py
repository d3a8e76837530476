"""Count-Min sketch for approximate frequency counting.

The related-work discussion (Section 2) mentions Count-Min sketches [5] as
a way to accelerate set operations; like Bloom filters they over-estimate,
which in this problem turns disjoint tag pairs into apparent co-occurrences.
The sketch baseline benchmark uses it to quantify the over-estimation that
substituting it for the Calculator's exact subset counters would introduce.
"""

from __future__ import annotations

import hashlib
import math
from typing import Hashable

import numpy as np

from .encoding import canonical_bytes


class CountMinSketch:
    """A Count-Min sketch with conservative point queries.

    Parameters
    ----------
    epsilon:
        Additive over-estimation bound as a fraction of the total count.
    delta:
        Probability that the bound is exceeded.
    """

    def __init__(self, epsilon: float = 0.001, delta: float = 0.01) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        self.width = math.ceil(math.e / epsilon)
        self.depth = math.ceil(math.log(1.0 / delta))
        self.epsilon = epsilon
        self.delta = delta
        self._table = np.zeros((self.depth, self.width), dtype=np.int64)

    def _columns(self, item: Hashable) -> list[int]:
        digest = hashlib.blake2b(canonical_bytes(item), digest_size=16).digest()
        first = int.from_bytes(digest[:8], "big")
        second = int.from_bytes(digest[8:], "big") or 1
        return [(first + row * second) % self.width for row in range(self.depth)]

    def add(self, item: Hashable, count: int = 1) -> None:
        if count < 0:
            raise ValueError("Count-Min sketch does not support negative updates")
        for row, column in enumerate(self._columns(item)):
            self._table[row, column] += count

    def estimate(self, item: Hashable) -> int:
        """Point query: an over-estimate of the item's true count."""
        return int(
            min(self._table[row, column] for row, column in enumerate(self._columns(item)))
        )

"""MinHash signatures for approximate Jaccard estimation.

The paper computes exact Jaccard coefficients via counters; its related-work
section argues that probabilistic sketches are a poor fit because false
positives make disjoint tags look co-occurring.  To quantify that argument
(and to provide the standard sketching baseline one would reach for today)
this module implements MinHash signatures with the multiply-add-shift
universal hash family (Dietzfelbinger et al.): with an odd random ``a`` and
a random ``b``, ``h(x) = ((a*x + b) mod 2^64) >> 32`` is 2-universal on
64-bit words — and the wraparound multiply is exactly what vectorised
``uint64`` arithmetic computes, so the permutations stay a single numpy
expression.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable

import numpy as np

from .encoding import canonical_bytes

_MAX_HASH = (1 << 32) - 1


def _stable_hash(value: Hashable) -> int:
    """Deterministic 32-bit hash of an arbitrary hashable value."""
    digest = hashlib.blake2b(canonical_bytes(value), digest_size=8).digest()
    return int.from_bytes(digest, "big") & _MAX_HASH


class MinHash:
    """A MinHash signature of a set.

    Parameters
    ----------
    num_perm:
        Number of hash permutations (signature length).  The standard error
        of the Jaccard estimate is roughly ``1/sqrt(num_perm)``.
    seed:
        Seed of the permutation parameters; two signatures are only
        comparable when built with the same ``num_perm`` and ``seed``.
    """

    def __init__(self, num_perm: int = 128, seed: int = 1) -> None:
        if num_perm <= 0:
            raise ValueError("num_perm must be positive")
        self.num_perm = num_perm
        self.seed = seed
        rng = np.random.default_rng(seed)
        # Multiply-add-shift parameters: a must be odd for 2-universality.
        self._a = rng.integers(0, 1 << 64, size=num_perm, dtype=np.uint64) | np.uint64(1)
        self._b = rng.integers(0, 1 << 64, size=num_perm, dtype=np.uint64)
        self.values = np.full(num_perm, _MAX_HASH, dtype=np.uint64)

    def update(self, item: Hashable) -> None:
        """Add one element to the underlying set."""
        raw = np.uint64(_stable_hash(item))
        # Wraparound mod 2^64 is intentional: it is the multiply-add-shift
        # family's modulus, computed for free by uint64 arithmetic.
        hashes = (self._a * raw + self._b) >> np.uint64(32)
        np.minimum(self.values, hashes, out=self.values)

    def jaccard(self, other: "MinHash") -> float:
        """Estimate the Jaccard similarity with another signature."""
        self._check_compatible(other)
        return float(np.mean(self.values == other.values))

    def _check_compatible(self, other: "MinHash") -> None:
        if self.num_perm != other.num_perm or self.seed != other.seed:
            raise ValueError(
                "MinHash signatures must share num_perm and seed to be compared"
            )

    @classmethod
    def from_items(
        cls, items: Iterable[Hashable], num_perm: int = 128, seed: int = 1
    ) -> "MinHash":
        signature = cls(num_perm=num_perm, seed=seed)
        for item in items:
            signature.update(item)
        return signature

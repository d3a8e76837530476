"""Probabilistic sketches: the related-work baselines of Section 2.

The paper (Section 2) argues that probabilistic set representations are a
poor fit for *exact* correlation tracking because their false positives make
disjoint tags look co-occurring.  This package holds the three sketches that
``benchmarks/test_sketch_baseline.py`` uses to quantify that argument; the
tracking pipeline itself counts exactly and never imports it.

Contents
--------
:class:`MinHash`
    Jaccard-preserving signatures (the datasketch-style alternative).
:class:`CountMinSketch`
    Approximate frequency counts with an additive over-estimate bound.
:class:`BloomFilter`
    Approximate set membership.

Examples
--------
Estimate a pairwise Jaccard coefficient from signatures::

    >>> from repro.sketches import MinHash
    >>> left = MinHash.from_items(range(0, 150), num_perm=256)
    >>> right = MinHash.from_items(range(50, 200), num_perm=256)
    >>> abs(left.jaccard(right) - 0.5) < 0.15   # true J = 100/200
    True

Count tag-pair frequencies in bounded memory::

    >>> from repro.sketches import CountMinSketch
    >>> sketch = CountMinSketch(epsilon=0.01, delta=0.01)
    >>> for _ in range(42):
    ...     sketch.add(("beer", "munich"))
    >>> sketch.estimate(("beer", "munich")) >= 42  # never under-estimates
    True
"""

from .bloom import BloomFilter, optimal_parameters
from .countmin import CountMinSketch
from .minhash import MinHash

__all__ = [
    "BloomFilter",
    "CountMinSketch",
    "MinHash",
    "optimal_parameters",
]

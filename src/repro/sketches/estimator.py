"""Sketch-backed Jaccard estimation: the core of the approximate tracking mode.

The paper's Calculators keep one exact counter per observed tag combination
and recover union sizes with inclusion–exclusion (Equation 2).  The
:class:`SketchJaccardEstimator` replaces that counter table with two
sketches:

* one :class:`~repro.sketches.minhash.MinHash` signature per tag, updated
  with the ids of the documents that carry the tag.  The multi-way Jaccard
  coefficient of a tagset is then estimated directly from the signatures
  (:meth:`MinHash.jaccard_multiway`) — no inclusion–exclusion, no
  per-subset counters, and the per-document work is linear in the number of
  tags instead of exponential;
* one :class:`~repro.sketches.countmin.CountMinSketch` over tag
  combinations, providing the support counts ``CN(s_i)`` that the Tracker
  uses to deduplicate reports.  Count-Min only over-estimates, so a
  replicated tagset still wins dedup by the longest-tracked counter.

Only the *keys* of the tracked combinations are kept exactly (they must be
enumerable at report time); their counts and the per-tag document sets are
sketched.  Subset keys are capped at ``max_subset_size`` tags — the same cap
the centralised baseline uses — so a document with ``m`` tags registers
``O(m^max_subset_size)`` keys instead of ``2^m`` counters.

Usage::

    >>> estimator = SketchJaccardEstimator(num_perm=256)
    >>> estimator.observe(["python", "pydata"], doc_id=1)
    >>> estimator.observe(["python", "pydata"], doc_id=2)
    >>> estimator.coefficient(["python", "pydata"])  # true J = 1.0, exact here
    1.0
    >>> estimator.observe(["python"], doc_id=3)      # now true J = 2/3
    >>> abs(estimator.coefficient(["python", "pydata"]) - 2 / 3) < 0.2
    True

The estimator mirrors :class:`repro.core.jaccard.JaccardCalculator`'s
interface (``observe`` / ``report`` / ``coefficient``) so the two are
interchangeable inside the Calculator operator.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable

from ..core.jaccard import JaccardResult
from .countmin import CountMinSketch
from .minhash import MinHash, _stable_hash


class SketchJaccardEstimator:
    """Estimates tagset Jaccard coefficients from per-tag MinHash signatures.

    Parameters
    ----------
    num_perm:
        MinHash signature width; the standard error of every estimate is
        roughly ``1/sqrt(num_perm)``.
    seed:
        Seed of the shared permutation family; all signatures spawned by one
        estimator are mutually comparable.
    countmin_epsilon, countmin_delta:
        Count-Min parameters for the support counts (additive over-estimate
        of at most ``epsilon * total`` with probability ``1 - delta``).
    max_subset_size:
        Largest tag-combination size tracked for reporting (the centralised
        baseline's cap, default 4).
    max_tags_per_document:
        Safety cap mirroring :class:`~repro.core.jaccard.SubsetCounter`.
    """

    def __init__(
        self,
        num_perm: int = 512,
        seed: int = 1,
        countmin_epsilon: float = 0.002,
        countmin_delta: float = 0.01,
        max_subset_size: int = 4,
        max_tags_per_document: int = 12,
    ) -> None:
        if num_perm < 8:
            raise ValueError("num_perm must be at least 8")
        if max_subset_size < 2:
            raise ValueError("max_subset_size must be at least 2")
        self.num_perm = num_perm
        self.seed = seed
        self.max_subset_size = max_subset_size
        self._max_tags = max_tags_per_document
        self.countmin_epsilon = countmin_epsilon
        self.countmin_delta = countmin_delta
        # Template signature: spawns share its permutation arrays, so the
        # per-new-tag cost is one numpy allocation, not an RNG re-seed.
        self._template = MinHash(num_perm=num_perm, seed=seed)
        self._signatures: dict[str, MinHash] = {}
        self._support = CountMinSketch(epsilon=countmin_epsilon, delta=countmin_delta)
        self._keys: set[tuple[str, ...]] = set()
        self._observations = 0

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    @property
    def observations(self) -> int:
        """Notifications observed since the last resetting report."""
        return self._observations

    @property
    def tracked_tagsets(self) -> int:
        """Number of distinct tag combinations currently tracked."""
        return len(self._keys)

    @property
    def error_bound(self) -> float:
        """Standard error of one Jaccard estimate (``1/sqrt(num_perm)``)."""
        return 1.0 / math.sqrt(self.num_perm)

    def observe(self, tags: Iterable[str], doc_id: object) -> None:
        """Record that document ``doc_id`` carried (this subset of) ``tags``."""
        unique = sorted(set(tags))
        if not unique:
            return
        if len(unique) > self._max_tags:
            unique = unique[: self._max_tags]
        raw_hash = _stable_hash(doc_id)
        for tag in unique:
            signature = self._signatures.get(tag)
            if signature is None:
                signature = self._template.spawn()
                self._signatures[tag] = signature
            signature.update_hashed(raw_hash)
        max_size = min(len(unique), self.max_subset_size)
        for size in range(2, max_size + 1):
            for combo in combinations(unique, size):
                self._support.add(combo)
                self._keys.add(combo)
        self._observations += 1

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def coefficient(self, tags: Iterable[str]) -> float:
        """Current estimate of the Jaccard coefficient of ``tags``."""
        signatures = [self._signatures.get(tag) for tag in set(tags)]
        if not signatures or any(signature is None for signature in signatures):
            return 0.0
        return MinHash.jaccard_multiway(signatures)  # type: ignore[arg-type]

    def support(self, tags: Iterable[str]) -> int:
        """Count-Min estimate of how many documents carried all of ``tags``."""
        return self._support.estimate(tuple(sorted(set(tags))))

    def report(self, min_size: int = 2, reset: bool = True) -> list[JaccardResult]:
        """Estimate coefficients for every tracked tag combination.

        Mirrors :meth:`repro.core.jaccard.JaccardCalculator.report`: one
        result per tracked combination of at least ``min_size`` tags, and —
        with ``reset`` — all sketches are dropped afterwards, exactly like a
        Calculator deleting its counters after a report round.
        """
        results: list[JaccardResult] = []
        signatures = self._signatures
        for key in self._keys:
            if len(key) < min_size:
                continue
            tag_signatures = [signatures[tag] for tag in key if tag in signatures]
            if len(tag_signatures) != len(key):
                continue
            # A zero estimate is still reported: the tagset demonstrably
            # co-occurred (it is tracked), and dropping it would deflate
            # coverage and hide the estimator's hardest (low-J) errors.
            estimate = MinHash.jaccard_multiway(tag_signatures)
            results.append(
                JaccardResult(
                    tagset=frozenset(key),
                    jaccard=estimate,
                    support=self._support.estimate(key),
                )
            )
        if reset:
            self.clear()
        return results

    def clear(self) -> None:
        """Drop all sketches (after a report round, like the exact counters)."""
        self._signatures.clear()
        self._keys.clear()
        self._support = CountMinSketch(
            epsilon=self.countmin_epsilon, delta=self.countmin_delta
        )
        self._observations = 0

    def __len__(self) -> int:
        return len(self._keys)

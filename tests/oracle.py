"""Reference implementations the production paths are held to.

**Equation (2), verbatim** — the oracle of the report fold.  No subset cache, no lattice, no tuple keys: walk the counter table and, for
every counted tagset, sum the signed intersection counts of its subsets
with :func:`union_size_inclusion_exclusion`.  ``3^m`` lookups per observed
``m``-tag type — fine for tests, and independent of everything
``JaccardCalculator.report_triples`` does to be fast.

**The per-type report fold** — :func:`per_type_report_triples` is
``JaccardCalculator.report_triples`` before it batched the wide lattices per
arity into numpy: a pure-Python sum-over-subsets per type.  It is the
*order* reference (triple order, float bits and Python scalar types) of
the batched fold; :func:`eq2_report` stays the arithmetic judge.

**The full-copy Tracker snapshot** — what ``DictTrackerStore.snapshot`` was
before it became layered: copy the whole table, sort the whole table.
:func:`full_copy`, :func:`full_sort_top_k` and :func:`table_digest` are that
code, kept as the oracle of the layered snapshot and of ``select_top_k``.

**The tuple-keyed baseline fold** — :func:`counter_ground_truth` is
``CentralizedCalculatorBolt``'s ground truth before it counted in numpy:
one ``Counter.update`` over the combination chains of every distinct
tagset, a Python tuple per subset.  It is the value *and* order reference
of the integer-coded fold.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import chain, combinations
from operator import mul
from typing import Iterable

from repro.core.jaccard import (
    JaccardCalculator,
    _union_size_from_tuple_counts,
    union_size_inclusion_exclusion,
)


def eq2_report(
    counter: JaccardCalculator, min_size: int = 2
) -> dict[frozenset[str], tuple[float, int]]:
    """``{tagset: (jaccard, support)}`` a report of ``counter`` must contain."""
    counts = dict(counter.items())
    return {
        tagset: (support / union_size_inclusion_exclusion(tagset, counts), support)
        for tagset, support in counts.items()
        if len(tagset) >= min_size
    }


def as_report(triples) -> dict[frozenset[str], tuple[float, int]]:
    """Wire triples in :func:`eq2_report`'s shape (a triple carries its
    tagset as a sorted tuple; the report keys it by frozenset); a tagset
    reported twice is an error, not a dict overwrite."""
    report = {
        frozenset(tagset): (jaccard, support)
        for tagset, jaccard, support in triples
    }
    assert len(report) == len(triples), "a tagset was reported more than once"
    return report


def _signs(m: int) -> tuple[int, ...]:
    return tuple(-1 if mask.bit_count() & 1 else 1 for mask in range(1 << m))


def _report_masks(m: int, min_size: int) -> tuple[int, ...]:
    return tuple(
        mask for mask in range(1, 1 << m) if mask.bit_count() >= min_size
    )


def per_type_report_triples(
    self: JaccardCalculator, min_size: int = 2
) -> list[tuple[frozenset[str], float, int]]:
    """``JaccardCalculator.report_triples`` as it was before the batched fold:
    one pure-Python sum-over-subsets per type, a frozenset per triple.
    Does not count ``types_folded``; otherwise verbatim."""
    # One counter lookup per lattice position.  The spill store reads
    # its runs once into a table private to this fold rather than
    # probing them per key; Counter.__missing__ returns 0.
    lookup = self._counts.window_lookup()
    cache_lookup = self._cache.lookup
    results: list[tuple[frozenset[str], float, int]] = []
    append = results.append
    done: set[tuple[str, ...]] = set()
    seen = done.add
    for vtype in self._types:
        m = len(vtype)
        if m < min_size:
            continue  # contributes no reportable keys of its own
        by_mask = cache_lookup(vtype)
        assert by_mask is not None  # full lattices are never size-capped
        # Two- and three-tag types — the bulk of a trending stream once
        # routing splits tagsets per Calculator — fold via unrolled
        # inclusion–exclusion: the generic lattice machinery costs more
        # than these few additions.  Only exercised at the default
        # min_size=2 (reportable keys of 2..m tags).
        if m == 2 and min_size == 2:
            pair = by_mask[3]
            if pair not in done:
                seen(pair)
                support = lookup(pair)
                union = lookup(by_mask[1]) + lookup(by_mask[2]) - support
                if support and union > 0:
                    append((frozenset(pair), support / union, support))
            continue
        if m == 3 and min_size == 2:
            na = lookup(by_mask[1])
            nb = lookup(by_mask[2])
            nc = lookup(by_mask[4])
            nab = lookup(by_mask[3])
            nac = lookup(by_mask[5])
            nbc = lookup(by_mask[6])
            for key, support, union in (
                (by_mask[3], nab, na + nb - nab),
                (by_mask[5], nac, na + nc - nac),
                (by_mask[6], nbc, nb + nc - nbc),
                (
                    by_mask[7],
                    (nabc := lookup(by_mask[7])),
                    na + nb + nc - nab - nac - nbc + nabc,
                ),
            ):
                if key in done:
                    continue
                seen(key)
                if support and union > 0:
                    append((frozenset(key), support / union, support))
            continue
        size = 1 << m
        # Counts of all subsets of the type (reused as the per-key
        # supports below), then signed for the fold: g[mask] =
        # (−1)^{|subset|} · CN(subset) — all via C-level maps.
        raw = list(map(lookup, by_mask))
        g = list(map(mul, _signs(m), raw))
        # Sum-over-subsets: after the i-th pass g[mask] holds the signed
        # sum over all subsets differing from mask only in bits 0..i.
        # The lower half-block is untouched within a pass, so larger
        # blocks fold with one slice assignment.
        for i in range(m):
            bit = 1 << i
            step = bit << 1
            if bit >= 16:
                for base in range(bit, size, step):
                    upper = base + bit
                    g[base:upper] = [
                        x + y for x, y in zip(g[base:upper], g[base - bit:base])
                    ]
            else:
                for base in range(bit, size, step):
                    for mask in range(base, base + bit):
                        g[mask] += g[mask - bit]
        for mask in _report_masks(m, min_size):
            key = by_mask[mask]
            if key in done:
                continue
            seen(key)
            support = raw[mask]
            union = -g[mask]
            if support == 0 or union <= 0:
                continue
            append((frozenset(key), support / union, support))
    return results


def full_copy(tracker) -> dict[frozenset[str], tuple[float, int]]:
    """``{tagset: (jaccard, support)}`` of a dict-store ``TrackerBolt``,
    right now: one O(table) comprehension over the live dedup table (keyed
    by sorted tag tuples; the copy keys by frozenset, as reads do)."""
    return {
        frozenset(key): (tracked.jaccard, tracked.support)
        for key, tracked in tracker._table._best.items()
    }


def full_sort_top_k(
    entries: dict[frozenset[str], tuple[float, int]], k: int, min_support: int = 0
) -> list[tuple[frozenset[str], float, int]]:
    """``top_k`` by sorting every qualifying row on the full key."""
    qualifying = [
        (tagset, jaccard, support)
        for tagset, (jaccard, support) in entries.items()
        if support >= min_support
    ]
    qualifying.sort(key=lambda row: (-row[1], -row[2], tuple(sorted(row[0]))))
    return qualifying[:k]


def table_digest(entries: dict[frozenset[str], tuple[float, int]]) -> str:
    """sha256 over the sorted ``tags=jaccard/support`` lines of a table."""
    hasher = hashlib.sha256()
    for line in sorted(
        f"{','.join(sorted(tagset))}={jaccard!r}/{support}"
        for tagset, (jaccard, support) in entries.items()
    ):
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def counter_ground_truth(
    tagsets: Iterable[frozenset[str]],
    min_occurrences: int = 3,
    max_subset_size: int = 4,
) -> dict[tuple[str, ...], float]:
    """The centralised baseline's ground truth of a tagset stream, as the
    tuple-keyed ``Counter`` fold computed it: the dict's order is each key's
    first appearance in the combination chains (distinct tagsets in
    first-observe order, sizes ascending, combinations lexicographic)."""
    pending: Counter = Counter(tagset for tagset in tagsets if tagset)
    iterables: list[Iterable[tuple[str, ...]]] = []
    for tagset, multiplicity in pending.items():
        key = tuple(sorted(tagset))
        sizes = range(1, min(len(key), max_subset_size) + 1)
        if multiplicity == 1:
            iterables.extend(combinations(key, size) for size in sizes)
        else:
            subsets = [
                combo for size in sizes for combo in combinations(key, size)
            ]
            iterables.extend([subsets] * multiplicity)
    counts: Counter = Counter()
    counts.update(chain.from_iterable(iterables))
    truth: dict[tuple[str, ...], float] = {}
    for key, count in counts.items():
        if len(key) < 2 or count <= min_occurrences:
            continue
        union = _union_size_from_tuple_counts(key, counts)
        truth[key] = count / union if union > 0 else 0.0
    return truth

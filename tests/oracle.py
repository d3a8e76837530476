"""Reference implementations the production paths are held to.

**Equation (2), verbatim** — the oracle of the report fold.  No subset cache, no lattice, no tuple keys: walk the counter table and, for
every counted tagset, sum the signed intersection counts of its subsets
with :func:`union_size_inclusion_exclusion`.  ``3^m`` lookups per observed
``m``-tag type — fine for tests, and independent of everything
``SubsetCounter.report_triples`` does to be fast.

**The full-copy Tracker snapshot** — what ``TrackerBolt.snapshot`` was
before it became layered: copy the whole table, sort the whole table.
:func:`full_copy`, :func:`full_sort_top_k` and :func:`table_digest` are that
code, kept as the oracle of the layered snapshot and of ``select_top_k``.
"""

from __future__ import annotations

import hashlib

from repro.core.jaccard import SubsetCounter, union_size_inclusion_exclusion


def eq2_report(
    counter: SubsetCounter, min_size: int = 2
) -> dict[frozenset[str], tuple[float, int]]:
    """``{tagset: (jaccard, support)}`` a report of ``counter`` must contain."""
    counts = dict(counter.items())
    return {
        tagset: (support / union_size_inclusion_exclusion(tagset, counts), support)
        for tagset, support in counts.items()
        if len(tagset) >= min_size
    }


def as_report(triples) -> dict[frozenset[str], tuple[float, int]]:
    """Wire triples in :func:`eq2_report`'s shape; a tagset reported twice
    is an error, not a dict overwrite."""
    report = {tagset: (jaccard, support) for tagset, jaccard, support in triples}
    assert len(report) == len(triples), "a tagset was reported more than once"
    return report


def full_copy(tracker) -> dict[frozenset[str], tuple[float, int]]:
    """``{tagset: (jaccard, support)}`` of a dict-store ``TrackerBolt``,
    right now: one O(table) comprehension over the live dedup table."""
    return {
        tagset: (tracked.jaccard, tracked.support)
        for tagset, tracked in tracker._best.items()
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

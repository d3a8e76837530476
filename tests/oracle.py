"""Equation (2), verbatim: the oracle the report fold is held to.

No subset cache, no lattice, no tuple keys: walk the counter table and, for
every counted tagset, sum the signed intersection counts of its subsets
with :func:`union_size_inclusion_exclusion`.  ``3^m`` lookups per observed
``m``-tag type — fine for tests, and independent of everything
``SubsetCounter.report_triples`` does to be fast.
"""

from __future__ import annotations

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

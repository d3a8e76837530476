"""Centralised exact baseline (Section 8.2.3), folded in numpy at read time.

To measure the accuracy loss of the distributed computation, the paper runs
a centralised approach that receives *all* tagsets and computes their exact
Jaccard coefficients over the whole run, never resetting its counters.  The
distributed system's error is the deviation of the Tracker's coefficients
from this ground truth, restricted to tagsets seen more than ``sn`` times.

The ground truth needs ``|⋂_{t∈K} T_t|`` — the number of documents carrying
every tag of ``K`` — for every tag combination ``K`` of up to
``max_subset_size`` tags that some document carries, and Equation (2)
recovers each union ``|⋃_{t∈K} T_t|`` from the intersection counts of
``K``'s subsets.  Nobody reads these numbers until the end-of-run error
report, so ``observe`` only records the document's tagset (one counter bump
per document; exact repeats, 10–20 % of real streams, share an entry) and
:meth:`CentralizedCalculatorBolt.ground_truth` folds the recorded multiset
once, in the *reporting* phase, and caches the result until the next
``observe``.

The fold works on integer codes, never on a tuple per subset:

* **Interning.**  Each tag gets an id in sorted string order, so a sorted
  id tuple decodes to the sorted tag tuple the Tracker keys by, and the
  lexicographic order of id tuples is that of the tag tuples.
* **One table per subset size.**  The distinct tagsets are grouped by
  length (each with its multiplicity and first-observe index).  For size
  ``s`` every ``s``-combination of every tagset is coded as *(rank of its
  (s−1)-prefix in the size s−1 table) · n + its last id*, where ``n`` is the
  vocabulary size; the codes are sorted and reduced into the size's table of
  unique codes, their counts and the first tagset that carried each.  The
  code is monotone in the lexicographic order, and its range is (unique
  (s−1)-subsets) · n — bounded by the data, not by ``n^s``, so the
  vocabulary has no cap; a range past int64 raises instead of wrapping.
* **Truth.**  A tagset qualifies with ≥ 2 tags and a count above
  ``min_occurrences``.  Its union is the signed sum over its subsets, each
  located in its size's table by ``searchsorted`` on the chained codes.
* **Order.**  Only the qualifying keys are decoded, and they come out in
  the order a per-document fold would first have counted them: by first
  tagset, then size, then lexicographically.  The error report's mean is a
  sum in that order, so its bits depend on it.

Unlike the Calculators, the baseline deliberately does *not* use the
subset-tuple LRU cache: it observes whole-document tagsets (not routed
sub-tagsets), which rarely repeat exactly.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np

from ..streamsim.components import Bolt
from ..streamsim.tuples import TupleMessage
from .streams import TAGSETS

#: Largest code range a size's table may need (exclusive); a larger one
#: raises ``OverflowError`` rather than wrapping around in int64.
_CODE_LIMIT = int(np.iinfo(np.int64).max)


class CentralizedCalculatorBolt(Bolt):
    """Exact, single-node Jaccard computation used as ground truth."""

    def __init__(self, min_occurrences: int = 3, max_subset_size: int = 4) -> None:
        super().__init__()
        if min_occurrences < 1:
            raise ValueError("min_occurrences must be at least 1")
        if max_subset_size < 2:
            raise ValueError("max_subset_size must be at least 2")
        self.min_occurrences = min_occurrences
        self.max_subset_size = max_subset_size
        #: Every non-empty tagset observed (tagset → multiplicity), in
        #: first-observe order.
        self._tagsets: Counter = Counter()
        #: :meth:`ground_truth` as of the last fold; ``None`` once stale.
        self._truth: dict[tuple[str, ...], float] | None = None
        self._documents_seen = 0

    def execute(self, message: TupleMessage) -> None:
        if message.schema is not TAGSETS:
            return
        # TAGSETS slot layout: (doc_id, timestamp, tagset).
        self.observe(message.values[2])

    def observe(self, tagset: frozenset[str]) -> None:
        """Record one document's tagset (also usable without the topology).

        The baseline assumes one call per distinct document, which is what
        the Parser guarantees.  Streaming cost is one counter bump; the
        subset fold is deferred to :meth:`ground_truth`.
        """
        self._documents_seen += 1
        if not tagset:
            return
        self._tagsets[tagset] += 1
        self._truth = None

    def ground_truth(self) -> dict[tuple[str, ...], float]:
        """Exact coefficients of every qualifying tagset, keyed by sorted tag
        tuples — the Tracker's own keys, so the run's error report probes its
        table directly.  The dict is cached until the next ``observe``; do not
        mutate it."""
        if self._truth is None:
            self._truth = _fold(
                self._tagsets, self.min_occurrences, self.max_subset_size
            )
        return self._truth

    @property
    def documents_seen(self) -> int:
        return self._documents_seen


class _Group:
    """The distinct tagsets of one length: sorted id rows, the index of each
    tagset's first observation, its multiplicity, and the ranks of its
    previous size's combinations in that size's table."""

    __slots__ = ("rows", "first", "weight", "ranks", "prefix_of")

    def __init__(self, rows: np.ndarray, first: np.ndarray, weight: np.ndarray):
        self.rows = rows
        self.first = first
        self.weight = weight
        self.ranks: np.ndarray | None = None
        #: Position tuple → column of the previous size's combinations.
        self.prefix_of: dict[tuple[int, ...], int] = {}


def _fold(
    tagsets: Counter, min_occurrences: int, max_size: int
) -> dict[tuple[str, ...], float]:
    """The ground truth of a tagset multiset (see the module docstring)."""
    vocabulary = sorted(set().union(*tagsets))
    n = len(vocabulary)
    tag_id = {tag: index for index, tag in enumerate(vocabulary)}.__getitem__
    by_length: dict[int, tuple[list[int], list[int], list[int]]] = {}
    for index, (tagset, multiplicity) in enumerate(tagsets.items()):
        ids, first, weight = by_length.setdefault(len(tagset), ([], [], []))
        ids.extend(map(tag_id, tagset))
        first.append(index)
        weight.append(multiplicity)
    groups = [
        _Group(
            # Frozenset iteration order is hash-dependent; the row sort is not.
            np.sort(np.array(ids, dtype=np.int64).reshape(-1, length), axis=1),
            np.array(first, dtype=np.int64),
            np.array(weight, dtype=np.int64),
        )
        for length, (ids, first, weight) in sorted(by_length.items())
    ]
    del by_length

    #: Per size (index = size): the table's unique codes and their counts.
    codes_of: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    counts_of: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    #: Per size with qualifying keys: their first tagsets, codes, truths
    #: and id rows.
    emitted: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for size in range(1, max_size + 1):
        groups = [group for group in groups if group.rows.shape[1] >= size]
        if not groups:
            break
        if len(codes_of[size - 1]) * n > _CODE_LIMIT:
            raise OverflowError(
                f"{len(codes_of[size - 1])} distinct {size - 1}-tag subsets "
                f"over {n} tags overflow the int64 codes of size {size}"
            )
        codes, first, counts = _table(groups, size, n)
        codes_of.append(codes)
        counts_of.append(counts)
        if size < 2:
            continue
        qualifying = counts > min_occurrences
        if not qualifying.any():
            continue
        keys = _decode(codes[qualifying], size, n, codes_of)
        union = _union(keys, n, codes_of, counts_of)
        emitted.append((
            first[qualifying],
            codes[qualifying],
            counts[qualifying] / union,
            keys,
        ))
    del groups, codes_of, counts_of
    if not emitted:
        return {}
    # First-count order: first tagset, then size, then lexicographic (the
    # codes are monotone in it within a size).
    order = np.lexsort((
        np.concatenate([codes for _, codes, _, _ in emitted]),
        np.concatenate([
            np.full(len(codes), keys.shape[1]) for _, codes, _, keys in emitted
        ]),
        np.concatenate([first for first, _, _, _ in emitted]),
    ))
    names = np.array(vocabulary, dtype=object)
    decoded = [
        key for *_, keys in emitted for key in map(tuple, names[keys].tolist())
    ]
    truth = np.concatenate([truth for _, _, truth, _ in emitted])
    return dict(zip(map(decoded.__getitem__, order.tolist()), truth[order].tolist()))


def _table(
    groups: list[_Group], size: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The size-``size`` table: its unique codes in ascending order, the
    first tagset carrying each, and their counts.

    Leaves each group's ``ranks`` (tagset × combination → table rank) and
    ``prefix_of`` at this size, for the next one.  Per combination the fold
    holds one code and one rank; counts and first tagsets accumulate per
    group, broadcasting the tagset's multiplicity and index."""
    columns_of = [
        list(combinations(range(group.rows.shape[1]), size)) for group in groups
    ]
    bounds = np.cumsum([0] + [
        group.rows.shape[0] * len(columns)
        for group, columns in zip(groups, columns_of)
    ])
    codes = np.empty(bounds[-1], dtype=np.int64)
    for group, columns, start, end in zip(groups, columns_of, bounds, bounds[1:]):
        last = group.rows[:, [column[-1] for column in columns]]
        if size > 1:
            prefix = [group.prefix_of[column[:-1]] for column in columns]
            last += group.ranks[:, prefix] * n
        codes[start:end] = last.ravel()
        group.prefix_of = {column: index for index, column in enumerate(columns)}
    order = np.argsort(codes)
    codes = codes[order]
    boundary = np.empty(len(codes), dtype=bool)
    boundary[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=boundary[1:])
    table = codes[boundary]
    del codes
    # Each combination's rank in the table: ranks in sorted order, then
    # scattered back to combination order.
    ranks = np.cumsum(boundary)
    ranks -= 1
    ranks[order] = ranks.copy()
    del order, boundary
    counts = np.zeros(len(table), dtype=np.int64)
    first = np.full(len(table), np.iinfo(np.int64).max)
    for group, start, end in zip(groups, bounds, bounds[1:]):
        group.ranks = ranks[start:end].reshape(group.rows.shape[0], -1)
        np.add.at(counts, group.ranks, group.weight[:, None])
        np.minimum.at(first, group.ranks, group.first[:, None])
    return table, first, counts


def _decode(
    codes: np.ndarray, size: int, n: int, codes_of: list[np.ndarray]
) -> np.ndarray:
    """The sorted id rows of size-``size`` codes."""
    ids = np.empty((len(codes), size), dtype=np.int64)
    for position in range(size - 1, 0, -1):
        prefix, ids[:, position] = np.divmod(codes, n)
        codes = codes_of[position][prefix]
    ids[:, 0] = codes
    return ids


def _union(
    keys: np.ndarray, n: int, codes_of: list[np.ndarray], counts_of: list[np.ndarray]
) -> np.ndarray:
    """``|⋃_{t∈K} T_t|`` of each id row ``K`` by inclusion–exclusion; every
    subset of a counted key is counted, so each lookup is an exact hit."""
    union = np.zeros(len(keys), dtype=np.int64)
    rank_of: dict[tuple[int, ...], np.ndarray] = {(): np.zeros(len(keys), np.int64)}
    for size in range(1, keys.shape[1] + 1):
        sign = 1 if size % 2 else -1
        for subset in combinations(range(keys.shape[1]), size):
            codes = rank_of[subset[:-1]] * n + keys[:, subset[-1]]
            ranks = rank_of[subset] = np.searchsorted(codes_of[size], codes)
            union += sign * counts_of[size][ranks]
    return union

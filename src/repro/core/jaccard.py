"""Jaccard coefficient computation for sets of co-occurring tags.

The Jaccard coefficient of a tagset ``s = {t_1, ..., t_n}`` is defined in
Equation (1) of the paper as the ratio of the number of documents annotated
with *all* tags of ``s`` to the number of documents annotated with *any* of
them.  Calculators never see the raw per-tag document sets; they only keep,
for every set of co-occurring tags, a counter of documents annotated with
all of the set's tags (:class:`JaccardCalculator`), and recover the size of
the union via the inclusion–exclusion principle (Equation (2)).

This module provides:

* :func:`exact_jaccard` — ground truth computed directly from per-tag
  document sets (used in tests and as the reference in property tests),
* :class:`SubsetTupleCache` — a bounded LRU cache of tagset → subset-tuple
  enumerations, so repeated (trending) tagsets skip the
  ``itertools.combinations`` re-enumeration on every observation,
* :class:`JaccardCalculator` — the counter table a Calculator maintains
  and the report fold over it (see below): counts incoming tagset
  notifications and reports Jaccard coefficients the way the Calculator
  operator does,
* :func:`union_size_inclusion_exclusion` — Equation (2) on top of a counter
  table.

Counters are keyed internally by sorted tag tuples rather than frozensets:
a Calculator touches hundreds of thousands of subsets per report round,
tuples are markedly cheaper to build than frozensets (cache-entry
construction is the dominant miss cost), and the cached enumeration is
shared between the observe and report paths so each subset tuple is
constructed once per cache residency.  The same interned tuples are what
the report puts on the wire: a triple's tagset slot holds the sorted tag
tuple, which the Tracker keys its table by.  Frozensets are built only
where a caller reads a result (:class:`JaccardResult`, :meth:`report`).

The report fold
---------------
A report round must produce, for every counted tagset of at least two tags,
its support (the counter value) and the size of the union of its tags'
document sets.  Equation (2) computed key by key re-walks the counter table
once per key: a key of ``m`` tags costs ``2^m − 1`` dictionary lookups, and
because every subset of an observed tagset is itself a counted key, one
distinct ``m``-tag tagset costs ``Σ_k C(m,k)·2^k ≈ 3^m`` lookups per round.

There is one report path, and it folds per *type* instead.  At observe time
the counter additionally records the distinct observed tagset *types* — the
state, growing with the counters, that tells the report which subset
lattices exist.  At report time each distinct type is folded **once**: the
counts of all ``2^m`` subsets of an ``m``-tag type form a subset lattice,
and a sum-over-subsets (SOS) transform produces the unions of *all* of its
subsets simultaneously in ``m·2^m`` additions instead of ``3^m`` lookups.

The fold runs in two passes.  The first groups the round's types of four
or more tags by arity, and each group is folded as one batch
(:func:`_fold_arity`): one ``(n_types × 2^m)`` int64 matrix filled by a
single gather through the counter table's per-fold ``window_lookup()``,
``m`` in-place strided adds for the SOS transform, the reportable masks
sliced out, and Jaccard as one vectorised division.
At the default minimum size of two, two- and three-tag types are not
batched: their unrolled inclusion–exclusion costs less than a matrix row
(other minimum sizes batch every arity).  The second pass, the
emission, walks the types in first-observation order, folds the two- and
three-tag ones inline and takes each wider type's row, and emits every key
not yet emitted — a key shared by overlapping types is emitted by the
first type that contains it.  That order is an invariant: the Tracker's
table order and every pinned digest depend on it.  The rows reach the wire
as Python ints and floats (``tolist``), never numpy scalars.  Like the
paper's Calculator, a report deletes its counters and carries nothing into
the next round.

The fold rearranges the same exact integer sums as Equation (2), and
int64 division rounds exactly like Python's ``int / int`` below ``2^53``,
so its coefficients are bit-identical to the key-by-key computation —
``tests/oracle.py`` keeps that computation verbatim, and the per-type fold
this one replaced as the order reference; ``tests/core/test_jaccard.py``
holds the fold to both.

Worked inclusion–exclusion example
----------------------------------
Observe three notifications: ``{a, b}``, ``{a, b}`` and ``{a, c}``.  The
counter table becomes::

    (a,): 3    (b,): 2    (c,): 1    (a, b): 2    (a, c): 1

For the tagset ``{a, b}``, Equation (2) gives::

    |T_a ∪ T_b| = |T_a| + |T_b| − |T_a ∩ T_b| = 3 + 2 − 2 = 3

so ``J({a, b}) = CN({a, b}) / |T_a ∪ T_b| = 2 / 3``, reported as the
triple ``(("a", "b"), 2/3, 2)``.  A two-tag type takes the unrolled path,
which is this sum; the batched fold of a wider type reaches the same
number through the signed subset lattice — for the type ``(a, b)`` it
would load ``f = [0, −3, −2, +2]`` (counts of
``∅, {a}, {b}, {a,b}`` with sign ``(−1)^{|subset|}``), runs the SOS
transform to get the signed partial sums of every subset, and negates —
``union({a,b}) = −(−3 − 2 + 2) = 3`` — computing the unions of ``{a}``,
``{b}`` and ``{a, b}`` in the same pass.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from ..store import StoreConfig, counter_table

#: Default capacity of the per-Calculator subset-tuple LRU cache.  Sized for
#: the distinct-tagset working set of one report round on the benchmark
#: workloads (a few thousand types per Calculator) with room to keep
#: trending types warm across rounds.
DEFAULT_SUBSET_CACHE_SIZE = 4096


def exact_jaccard(document_sets: Iterable[set[int]]) -> float:
    """Ground-truth Jaccard coefficient of a collection of document sets.

    ``document_sets`` holds, for every tag of the tagset, the set of
    documents annotated with that tag.  Returns 0.0 when the union is empty.
    """
    sets = [set(s) for s in document_sets]
    if not sets:
        return 0.0
    intersection = set(sets[0])
    union: set[int] = set()
    for current in sets:
        intersection &= current
        union |= current
    if not union:
        return 0.0
    return len(intersection) / len(union)


def _subset_tuples(tags: Iterable[str]) -> list[tuple[str, ...]]:
    """All non-empty subsets of ``tags`` as sorted tuples."""
    tag_list = sorted(set(tags))
    subsets: list[tuple[str, ...]] = []
    for size in range(1, len(tag_list) + 1):
        subsets.extend(combinations(tag_list, size))
    return subsets


def all_nonempty_subsets(tags: Iterable[str]) -> list[frozenset[str]]:
    """All non-empty subsets of ``tags`` (the sets a Calculator counts)."""
    return [frozenset(combo) for combo in _subset_tuples(tags)]


def union_size_inclusion_exclusion(
    tagset: frozenset[str], intersection_counts: Mapping[frozenset[str], int]
) -> int:
    """Size of the union of the tags' document sets via inclusion–exclusion.

    ``intersection_counts[sub]`` must hold ``|⋂_{t∈sub} T_t|`` for every
    non-empty subset ``sub`` of ``tagset``; missing subsets are treated as
    empty intersections (count 0), which is exactly what a Calculator
    observes when a tag combination never arrived.
    """
    total = 0
    tags = sorted(tagset)
    for size in range(1, len(tags) + 1):
        sign = 1 if size % 2 == 1 else -1
        for combo in combinations(tags, size):
            total += sign * intersection_counts.get(frozenset(combo), 0)
    return total


def _union_size_from_tuple_counts(
    tags: tuple[str, ...], counts: Mapping[tuple[str, ...], int]
) -> int:
    """Inclusion–exclusion over tuple-keyed counters (``tags`` sorted).

    The per-key computation: one ``2^m − 1`` walk of the counter table,
    used by :meth:`JaccardCalculator.coefficient`.  The centralised
    baseline does the same sum vectorised over integer-coded tables.
    """
    get = counts.get
    total = 0
    for size in range(1, len(tags) + 1):
        sign = 1 if size % 2 == 1 else -1
        subtotal = 0
        for combo in combinations(tags, size):
            subtotal += get(combo, 0)
        total += sign * subtotal
    return total


# --------------------------------------------------------------------- #
# Subset-tuple LRU cache
# --------------------------------------------------------------------- #
class SubsetTupleCache:
    """Bounded LRU cache of tagset → subset-tuple enumerations.

    Enumerating the subsets of an ``m``-tag tagset costs ``2^m`` tuple
    constructions; on trending streams the same tagsets recur thousands of
    times per round, so Calculators cache the enumeration per distinct
    sorted tag tuple.  Entries are evicted least-recently-used once
    ``capacity`` distinct tagsets are cached; an evicted tagset is simply
    re-enumerated (and re-cached) on its next occurrence, so eviction never
    affects correctness — only the hit rate (``stats()``).

    Entries are keyed by the *frozenset* of the tags — ``frozenset(fs)`` is
    a no-op for an incoming frozenset, so the hot observe path neither sorts
    nor copies the tagset on a cache hit.  An entry is one tuple,
    ``by_mask``: the subset tuples indexed by bitmask over the sorted tags
    (``by_mask[0] == ()``), the layout the report fold's lattice transform
    consumes.  Its last element is the canonical sorted tag tuple, and
    ``by_mask[1:]`` (read through ``islice``, never copied) is what
    ``Counter.update`` consumes at observe time.
    """

    __slots__ = ("_entries", "capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int = DEFAULT_SUBSET_CACHE_SIZE) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: OrderedDict[
            frozenset[str], tuple[tuple[str, ...], ...]
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, tags: Iterable[str]) -> tuple[tuple[str, ...], ...]:
        """The ``by_mask`` enumeration of a tagset."""
        fs = frozenset(tags)
        entries = self._entries
        entry = entries.get(fs)
        if entry is not None:
            self.hits += 1
            entries.move_to_end(fs)
            return entry
        self.misses += 1
        entry = self._build(tuple(sorted(fs)))
        entries[fs] = entry
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        return entry

    def _build(self, key: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
        # Power-set doubling: after processing tag i, by_mask holds the
        # subsets of key[:i+1] indexed by bitmask (appending tag i maps
        # block 0..2^i−1 onto block 2^i..2^{i+1}−1), so the lattice layout
        # falls out of plain list concatenation instead of per-mask bit
        # tests.
        by_mask: list[tuple[str, ...]] = [()]
        for tag in key:
            by_mask += [subset + (tag,) for subset in by_mask]
        return tuple(by_mask)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tags: Iterable[str]) -> bool:
        # Normalised like lookup(): any iterable of the tags, in any order.
        return frozenset(tags) in self._entries

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction accounting plus the current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "capacity": self.capacity,
        }

    def clear(self) -> None:
        """Drop all entries (accounting is preserved)."""
        self._entries.clear()

    def __getstate__(self) -> tuple[int, int, int, int]:
        # The enumerations are derived data: a copy in another process
        # rebuilds them on demand, so only the capacity and the accounting
        # are pickled (a Calculator returning from a worker shard would
        # otherwise ship megabytes of tuples nobody reads again).
        return (self.capacity, self.hits, self.misses, self.evictions)

    def __setstate__(self, state: tuple[int, int, int, int]) -> None:
        self.__init__(state[0])
        self.hits, self.misses, self.evictions = state[1:]


#: Per-arity sign rows of the subset lattice: ``_SIGNS[m][mask]`` is
#: ``(−1)^{popcount(mask)}``, the inclusion–exclusion sign of the subset
#: ``mask`` encodes.  Tiny (``m ≤ max_tags_per_document``) and shared by
#: every counter in the process.
_SIGNS: dict[int, np.ndarray] = {}

#: Per-(arity, min-size) reportable subsets (popcount ≥ the report's
#: minimum tagset size): the masks as a tuple for the emission pass and as
#: an index array for the fold's column selection.  Shared like
#: :data:`_SIGNS`.
_REPORT_MASKS: dict[tuple[int, int], tuple[tuple[int, ...], np.ndarray]] = {}


def _signs(m: int) -> np.ndarray:
    signs = _SIGNS.get(m)
    if signs is None:
        signs = np.array(
            [-1 if mask.bit_count() & 1 else 1 for mask in range(1 << m)],
            dtype=np.int64,
        )
        signs.flags.writeable = False  # shared by every counter
        _SIGNS[m] = signs
    return signs


def _report_masks(m: int, min_size: int) -> tuple[tuple[int, ...], np.ndarray]:
    masks = _REPORT_MASKS.get((m, min_size))
    if masks is None:
        listed = tuple(
            mask for mask in range(1, 1 << m) if mask.bit_count() >= min_size
        )
        index = np.array(listed, dtype=np.intp)
        index.flags.writeable = False
        masks = (listed, index)
        _REPORT_MASKS[(m, min_size)] = masks
    return masks


def _fold_arity(
    m: int,
    lattices: list[tuple[tuple[str, ...], ...]],
    lookup: Callable[[tuple[str, ...]], int],
    min_size: int,
) -> tuple[tuple[int, ...], Iterator[tuple[list[int], list[float]]]]:
    """Fold every ``m``-tag lattice of a round at once.

    The counts of all ``2^m`` subsets of the ``n`` types are gathered into
    one ``(n × 2^m)`` matrix, signed, and run through the sum-over-subsets
    transform as ``m`` in-place strided adds: viewing a row as
    ``(2^(m−i−1), 2, 2^i)`` blocks, pass ``i`` adds every block with bit
    ``i`` clear onto its partner with the bit set.  Afterwards
    ``union(subset) = −g[mask]`` for every subset of every type — exact
    int64 arithmetic, Equation (2) rearranged — and Jaccard is one
    division, which rounds exactly like Python's ``int / int`` for counts
    below ``2^53``.

    Returns the reportable masks and an iterator of per-type
    ``(supports, jaccards)`` rows as Python ints and floats (``tolist``):
    no numpy scalar reaches the wire.  An entry that must not be reported
    (zero support or non-positive union) has support 0.
    """
    n = len(lattices)
    size = 1 << m
    raw = np.fromiter(
        map(lookup, chain.from_iterable(lattices)), dtype=np.int64, count=n * size
    ).reshape(n, size)
    g = raw * _signs(m)
    for i in range(m):
        blocks = g.reshape(n, size >> (i + 1), 2, 1 << i)
        blocks[:, :, 1, :] += blocks[:, :, 0, :]
    masks, index = _report_masks(m, min_size)
    supports = raw[:, index]
    unions = -g[:, index]
    valid = (supports != 0) & (unions > 0)
    supports = np.where(valid, supports, 0)
    jaccards = supports / np.where(valid, unions, 1)
    return masks, zip(supports.tolist(), jaccards.tolist())


@dataclass(slots=True)
class JaccardResult:
    """A reported Jaccard coefficient.

    Mirrors the tuples ``(s_i, J(s_i), CN(s_i))`` emitted by Calculators:
    the tagset, its coefficient and the value of the supporting counter
    (the number of documents annotated with all tags of the set), which the
    Tracker uses to resolve duplicates.
    """

    tagset: frozenset[str]
    jaccard: float
    support: int


class JaccardCalculator:
    """Counter table over sets of co-occurring tags, and the report fold.

    The algorithmic core of the Calculator operator, usable standalone
    (e.g. in examples that do not need the full topology).  For every
    received tagset notification the Calculator increments the counter of
    *all* subsets of the notification (Section 6.2): receiving
    ``{a, b, c}`` increments the counters of ``{a}``, ``{b}``, ``{c}``,
    ``{a,b}``, ``{a,c}``, ``{b,c}`` and ``{a,b,c}``.  The counter of a set
    therefore equals the number of received documents annotated with all of
    the set's tags.

    Besides the subset counters it maintains what the report fold needs:
    the distinct observed tagset *types* of the round, in
    first-observation order (the subset lattices the report folds — see
    the module docstring), and the bounded LRU cache of subset
    enumerations shared by the observe and report paths
    (``subset_cache_size`` bounds it).  ``store`` is the counter table's
    spill configuration: ``None`` keeps the table in RAM, a
    :class:`~repro.store.StoreConfig` backs it with a
    :class:`~repro.store.SpillingCounterStore` (see
    :func:`repro.store.counter_table`).
    """

    def __init__(
        self,
        max_tags_per_document: int = 12,
        subset_cache_size: int = DEFAULT_SUBSET_CACHE_SIZE,
        store: StoreConfig | None = None,
    ) -> None:
        self._counts = counter_table(store)
        #: Distinct observed tagset types of the round, as an insertion-
        #: ordered set: the report folds each type's subset lattice once,
        #: in first-observation order.  The order is load-bearing — it is
        #: the order of the reported triples (a key shared by overlapping
        #: types is emitted by the first of them), which the Tracker's
        #: table order and every pinned digest depend on.
        self._types: dict[frozenset[str], None] = {}
        self._max_tags = max_tags_per_document
        self._cache = SubsetTupleCache(subset_cache_size)
        self._observations = 0
        #: Type lattices folded by all reports so far (cumulative,
        #: survives ``reset_counts()``).
        self.types_folded = 0

    @property
    def observations(self) -> int:
        """Notifications counted since the last report (empty tagsets are
        dropped, not counted)."""
        return self._observations

    @property
    def cache(self) -> SubsetTupleCache:
        """The subset-enumeration cache (shared with the report path)."""
        return self._cache

    @property
    def store_stats(self) -> dict[str, float] | None:
        """Spill-store accounting, or ``None`` for the in-RAM table.

        Spill/window-read counters and block-cache hit/miss/eviction figures
        from the backing store.  Cumulative — survives ``reset_counts()``,
        run deletion and pickling, like the subset-cache stats.
        """
        return self._counts.stats()

    def observe(self, tags: Iterable[str]) -> None:
        """Record one tagset notification (an empty tagset counts nothing)."""
        fs = frozenset(tags)  # no-op for the wire format (already frozen)
        if not fs:
            return
        if len(fs) > self._max_tags:
            # Guard against combinatorial blow-up on pathological documents;
            # real tweets carry < 10 tags (Section 3.1).
            fs = frozenset(sorted(fs)[: self._max_tags])
        self._counts.update(islice(self._cache.lookup(fs), 1, None))
        self._types[fs] = None
        self._observations += 1

    def count(self, tags: Iterable[str]) -> int:
        """Documents observed that carry all of ``tags``."""
        return self._counts.get(tuple(sorted(set(tags))), 0)

    def counted_tagsets(self, min_size: int = 2) -> list[frozenset[str]]:
        """All counted tag combinations with at least ``min_size`` tags."""
        return [frozenset(key) for key in self._counts if len(key) >= min_size]

    def items(self) -> Iterable[tuple[frozenset[str], int]]:
        """(tagset, count) pairs for all counted combinations."""
        for key, count in self._counts.items():
            yield frozenset(key), count

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, tags: object) -> bool:
        return tuple(sorted(set(tags))) in self._counts  # type: ignore[arg-type]

    def reset_counts(self) -> None:
        """Drop the counted window (what a resetting report does, and how a
        state migration commits).

        The subset-enumeration cache survives the reset.  Cross-round hits
        save only ~10 % of the lattice positions built (50 k of 477 k on
        the trending benchmark stream, 22 k of 518 k on churn), yet
        clearing the cache here measured +8 % CPU on trending (more
        collector work) for −17 % peak RSS.
        """
        self._counts.clear()
        self._types = {}
        self._observations = 0

    def close(self) -> None:
        """Drop all counters and release the table (a spill store's
        directory is recreated lazily by the next spill).  Called after the
        final drain, so finished Calculators leave nothing on disk."""
        self.reset_counts()
        self._counts.close()

    def coefficient(self, tags: Iterable[str]) -> float:
        """Current Jaccard coefficient of ``tags``."""
        key = tuple(sorted(set(tags)))
        intersection = self._counts.get(key, 0)
        if intersection == 0:
            return 0.0
        union = _union_size_from_tuple_counts(key, self._counts)
        if union <= 0:
            return 0.0
        return intersection / union

    # ------------------------------------------------------------------ #
    # The report fold
    # ------------------------------------------------------------------ #
    def report_triples(
        self, min_size: int = 2, reset: bool = True
    ) -> list[tuple[tuple[str, ...], float, int]]:
        """Coefficients as raw ``(tagset, jaccard, support)`` wire triples:
        one subset-lattice fold per distinct observed tagset type.

        Mirrors the periodic reporting of Calculators: every ``y`` time
        units the maximum possible number of coefficients is emitted and the
        counters are deleted (``reset=True``; ``reset=False`` is a state
        migration's side-effect-free prepare).

        The hot reporting path: report rounds ship hundreds of thousands of
        coefficients per run, so the periodic emit, the end-of-run drain
        and the Tracker all consume these triples directly instead of
        wrapping each one in a :class:`JaccardResult`.  A triple's tagset
        is the cache's sorted tag tuple, not a frozenset.

        Every counted key is a subset of at least one observed type, so
        folding each type's lattice once covers all keys; keys shared by
        overlapping types are emitted on first encounter only, and types
        emit in first-observation order (see ``_types``).  Two- and
        three-tag types fold inline; wider ones are batched per arity by
        :func:`_fold_arity` before the emission pass walks the types.
        """
        # One counter lookup per lattice position.  The spill store reads
        # its runs once into a table private to this fold rather than
        # probing them per key; the dict table's is Counter.__getitem__.
        lookup = self._counts.window_lookup()
        cache_lookup = self._cache.lookup
        # Pass one: the lattices to fold, in first-observation order, and
        # the wide ones grouped by arity for the batched fold.
        lattices: list[tuple[tuple[str, ...], ...]] = []
        batches: dict[int, list[tuple[tuple[str, ...], ...]]] = {}
        unrolled = min_size == 2
        for vtype in self._types:
            m = len(vtype)
            if m < min_size:
                continue  # contributes no reportable keys of its own
            by_mask = cache_lookup(vtype)
            lattices.append(by_mask)
            if m > 3 or not unrolled:
                batches.setdefault(m, []).append(by_mask)
        self.types_folded += len(lattices)
        folded = {
            m: _fold_arity(m, group, lookup, min_size)
            for m, group in batches.items()
        }

        # Pass two: emission.  Two- and three-tag types — the bulk of a
        # trending stream once routing splits tagsets per Calculator — fold
        # here via unrolled inclusion–exclusion (batching them measured
        # slower); wider types take their next folded row.
        results: list[tuple[tuple[str, ...], float, int]] = []
        append = results.append
        done: set[tuple[str, ...]] = set()
        seen = done.add
        for by_mask in lattices:
            size = len(by_mask)
            if size == 4 and unrolled:
                pair = by_mask[3]
                if pair not in done:
                    seen(pair)
                    support = lookup(pair)
                    union = lookup(by_mask[1]) + lookup(by_mask[2]) - support
                    if support and union > 0:
                        append((pair, support / union, support))
                continue
            if size == 8 and unrolled:
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
                        append((key, support / union, support))
                continue
            masks, rows = folded[size.bit_length() - 1]
            supports, jaccards = next(rows)
            for key, support, jaccard in zip(
                map(by_mask.__getitem__, masks), supports, jaccards
            ):
                if key in done:
                    continue
                seen(key)
                if support:
                    append((key, jaccard, support))
        if reset:
            self.reset_counts()
        return results

    def report(self, min_size: int = 2, reset: bool = True) -> list[JaccardResult]:
        """:meth:`report_triples` wrapped as :class:`JaccardResult` objects
        (every counted tagset of at least ``min_size`` tags)."""
        return [
            JaccardResult(frozenset(tagset), jaccard, support)
            for tagset, jaccard, support in self.report_triples(min_size, reset)
        ]

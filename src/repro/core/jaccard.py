"""Jaccard coefficient computation for sets of co-occurring tags.

The Jaccard coefficient of a tagset ``s = {t_1, ..., t_n}`` is defined in
Equation (1) of the paper as the ratio of the number of documents annotated
with *all* tags of ``s`` to the number of documents annotated with *any* of
them.  Calculators never see the raw per-tag document sets; they only keep,
for every set of co-occurring tags, a counter of documents annotated with
all of the set's tags (``SubsetCounter``), and recover the size of the union
via the inclusion–exclusion principle (Equation (2)).

This module provides:

* :func:`exact_jaccard` — ground truth computed directly from per-tag
  document sets (used in tests and as the reference in property tests),
* :class:`SubsetTupleCache` — a bounded LRU cache of tagset → subset-tuple
  enumerations, so repeated (trending) tagsets skip the
  ``itertools.combinations`` re-enumeration on every observation,
* :class:`SubsetCounter` — the counter table a Calculator maintains and
  the report fold over it (see below),
* :class:`JaccardCalculator` — counts incoming tagset notifications and
  reports Jaccard coefficients the way the Calculator operator does,
* :func:`union_size_inclusion_exclusion` — Equation (2) on top of a counter
  table.

Counters are keyed internally by sorted tag tuples rather than frozensets:
a Calculator touches hundreds of thousands of subsets per report round,
tuples are markedly cheaper to build than frozensets (cache-entry
construction is the dominant miss cost), and the cached enumeration is
shared between the observe and report paths so each subset tuple is
constructed once per cache residency.  Only reported coefficients are
frozen, one frozenset per emitted result.

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
counts of all ``2^m`` subsets of an ``m``-tag type are gathered into a
subset lattice and a sum-over-subsets (SOS) transform produces the unions
of *all* of its subsets simultaneously in ``m·2^m`` additions instead of
``3^m`` lookups.  Keys shared by several types (heavily overlapping
tagsets) are emitted once, by the first type that contains them: types fold
in first-observation order, which therefore fixes the order of the reported
triples (an invariant — the Tracker's table order and every pinned digest
depend on it).  Like the paper's Calculator, a report deletes its counters
and carries nothing into the next round.

The fold rearranges the same exact integer sums as Equation (2), so its
coefficients are bit-identical to the key-by-key computation —
``tests/oracle.py`` is that computation, verbatim, and
``tests/core/test_jaccard.py`` holds the fold to it.

Worked inclusion–exclusion example
----------------------------------
Observe three notifications: ``{a, b}``, ``{a, b}`` and ``{a, c}``.  The
counter table becomes::

    (a,): 3    (b,): 2    (c,): 1    (a, b): 2    (a, c): 1

For the tagset ``{a, b}``, Equation (2) gives::

    |T_a ∪ T_b| = |T_a| + |T_b| − |T_a ∩ T_b| = 3 + 2 − 2 = 3

so ``J({a, b}) = CN({a, b}) / |T_a ∪ T_b| = 2 / 3``.  The report fold
reaches the same number through the signed subset lattice of the
observed type ``(a, b)``: it loads ``f = [0, −3, −2, +2]`` (counts of
``∅, {a}, {b}, {a,b}`` with sign ``(−1)^{|subset|}``), runs the SOS
transform to get the signed partial sums of every subset, and negates —
``union({a,b}) = −(−3 − 2 + 2) = 3`` — computing the unions of ``{a}``,
``{b}`` and ``{a, b}`` in the same pass.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Iterable, Mapping

from ..store import COUNTER_STORES, DEFAULT_SPILL_THRESHOLD, SpillingCounterStore

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

    The per-key computation: one ``2^m − 1`` walk of the counter table.
    Used by single-key queries and the centralised baseline's ground truth.
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
    nor copies the tagset on a cache hit.  Each entry holds three views of
    the same enumeration:

    * ``key`` — the canonical sorted tag tuple (computed once, on miss),
    * ``by_mask`` — subset tuples indexed by bitmask over ``key``
      (``by_mask[0] == ()``), the layout the report fold's lattice
      transform consumes.  ``None`` when ``max_subset_size`` caps
      the enumeration (the capped enumeration is not a full lattice).
    * ``nonempty`` — the non-empty subset tuples as one flat tuple, the
      layout ``Counter.update`` consumes at observe time.
    """

    __slots__ = ("_entries", "capacity", "max_subset_size",
                 "hits", "misses", "evictions")

    def __init__(
        self,
        capacity: int = DEFAULT_SUBSET_CACHE_SIZE,
        max_subset_size: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if max_subset_size is not None and max_subset_size < 1:
            raise ValueError("max_subset_size must be at least 1 (or None)")
        self.capacity = capacity
        self.max_subset_size = max_subset_size
        self._entries: OrderedDict[
            frozenset[str],
            tuple[
                tuple[str, ...],
                tuple[tuple[str, ...], ...] | None,
                tuple[tuple[str, ...], ...],
            ],
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(
        self, tags: Iterable[str]
    ) -> tuple[
        tuple[str, ...],
        tuple[tuple[str, ...], ...] | None,
        tuple[tuple[str, ...], ...],
    ]:
        """The ``(key, by_mask, nonempty)`` enumeration of a tagset."""
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

    def _build(
        self, key: tuple[str, ...]
    ) -> tuple[
        tuple[str, ...],
        tuple[tuple[str, ...], ...] | None,
        tuple[tuple[str, ...], ...],
    ]:
        if self.max_subset_size is not None:
            capped: list[tuple[str, ...]] = []
            for size in range(1, min(len(key), self.max_subset_size) + 1):
                capped.extend(combinations(key, size))
            return key, None, tuple(capped)
        # Power-set doubling: after processing tag i, by_mask holds the
        # subsets of key[:i+1] indexed by bitmask (appending tag i maps
        # block 0..2^i−1 onto block 2^i..2^{i+1}−1), so the lattice layout
        # falls out of plain list concatenation instead of per-mask bit
        # tests.
        by_mask: list[tuple[str, ...]] = [()]
        for tag in key:
            by_mask += [subset + (tag,) for subset in by_mask]
        frozen = tuple(by_mask)
        return key, frozen, frozen[1:]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tags: object) -> bool:
        return tags in self._entries

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

    def __getstate__(self) -> tuple[int, int | None, int, int, int]:
        # The enumerations are derived data: a copy in another process
        # rebuilds them on demand, so only the bounds and the accounting
        # are pickled (a Calculator returning from a worker shard would
        # otherwise ship megabytes of tuples nobody reads again).
        return (self.capacity, self.max_subset_size,
                self.hits, self.misses, self.evictions)

    def __setstate__(self, state: tuple[int, int | None, int, int, int]) -> None:
        self.__init__(state[0], state[1])
        self.hits, self.misses, self.evictions = state[2:]


#: Per-arity sign vectors of the subset lattice: ``_SIGNS[m][mask]`` is
#: ``(−1)^{popcount(mask)}``, the inclusion–exclusion sign of the subset
#: ``mask`` encodes.  Tiny (``m ≤ max_tags_per_document``) and shared by
#: every counter in the process.
_SIGNS: dict[int, tuple[int, ...]] = {}

#: Per-(arity, min-size) mask lists of reportable subsets (popcount ≥ the
#: report's minimum tagset size), shared like :data:`_SIGNS`.
_REPORT_MASKS: dict[tuple[int, int], tuple[int, ...]] = {}


def _signs(m: int) -> tuple[int, ...]:
    signs = _SIGNS.get(m)
    if signs is None:
        signs = tuple(-1 if mask.bit_count() & 1 else 1 for mask in range(1 << m))
        _SIGNS[m] = signs
    return signs


def _report_masks(m: int, min_size: int) -> tuple[int, ...]:
    masks = _REPORT_MASKS.get((m, min_size))
    if masks is None:
        masks = tuple(
            mask for mask in range(1, 1 << m) if mask.bit_count() >= min_size
        )
        _REPORT_MASKS[(m, min_size)] = masks
    return masks


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


class SubsetCounter:
    """Counter table over sets of co-occurring tags.

    For every received tagset notification the Calculator increments the
    counter of *all* subsets of the notification (Section 6.2): receiving
    ``{a, b, c}`` increments the counters of ``{a}``, ``{b}``, ``{c}``,
    ``{a,b}``, ``{a,c}``, ``{b,c}`` and ``{a,b,c}``.  The counter of a set
    therefore equals the number of received documents annotated with all of
    the set's tags.

    Besides the subset counters the table maintains what the report fold
    needs: the distinct observed tagset *types* of the round, in
    first-observation order (the subset lattices the report folds — see
    the module docstring), and the bounded LRU cache of subset
    enumerations shared by the observe and report paths.
    """

    def __init__(
        self,
        max_tags_per_document: int = 12,
        subset_cache: SubsetTupleCache | None = None,
        subset_cache_size: int = DEFAULT_SUBSET_CACHE_SIZE,
        counter_store: str = "dict",
        spill_dir: str | None = None,
        spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
    ) -> None:
        if subset_cache is not None and subset_cache.max_subset_size is not None:
            raise ValueError(
                "SubsetCounter needs full subset lattices; a cache with "
                "max_subset_size set cannot back the report fold"
            )
        if counter_store not in COUNTER_STORES:
            raise ValueError(
                f"counter_store must be one of {', '.join(COUNTER_STORES)}"
            )
        self.counter_store = counter_store
        #: The backing table: a plain ``Counter`` (default) or the
        #: out-of-core :class:`~repro.store.SpillingCounterStore`, which
        #: exposes the same mapping surface the report folds over.
        if counter_store == "spill":
            self._counts: Counter | SpillingCounterStore = SpillingCounterStore(
                spill_dir=spill_dir, spill_threshold=spill_threshold
            )
        else:
            self._counts = Counter()
        #: Distinct observed tagset types of the round, as an insertion-
        #: ordered set: the report folds each type's subset lattice once,
        #: in first-observation order.  The order is load-bearing — it is
        #: the order of the reported triples (a key shared by overlapping
        #: types is emitted by the first of them), which the Tracker's
        #: table order and every pinned digest depend on.
        self._types: dict[frozenset[str], None] = {}
        self._max_tags = max_tags_per_document
        self._cache = (
            subset_cache
            if subset_cache is not None
            else SubsetTupleCache(subset_cache_size)
        )
        #: Type lattices folded by all reports so far (cumulative,
        #: survives ``clear()``).
        self.types_folded = 0

    @property
    def cache(self) -> SubsetTupleCache:
        """The subset-enumeration cache (shared with the report path)."""
        return self._cache

    def observe(self, tags: Iterable[str]) -> None:
        """Record one incoming tagset notification."""
        fs = frozenset(tags)  # no-op for the wire format (already frozen)
        if not fs:
            return
        if len(fs) > self._max_tags:
            # Guard against combinatorial blow-up on pathological documents;
            # real tweets carry < 10 tags (Section 3.1).
            fs = frozenset(sorted(fs)[: self._max_tags])
        _, _, nonempty = self._cache.lookup(fs)
        self._counts.update(nonempty)
        self._types[fs] = None

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

    def clear(self) -> None:
        """Drop all counters (Calculators do this after each report round).

        The subset-enumeration cache survives the reset on purpose: the
        trending tagsets of the next round are usually the same types.
        """
        self._counts.clear()
        self._types = {}

    def close(self) -> None:
        """Drop all counters and release the spill store's directory (it is
        recreated lazily by the next spill).  Called after the final drain,
        so finished Calculators leave nothing on disk."""
        self.clear()
        if self.counter_store == "spill":
            self._counts.close()

    def jaccard(self, tags: Iterable[str]) -> float:
        """Jaccard coefficient of ``tags`` from the current counters."""
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
        self, min_size: int = 2
    ) -> list[tuple[frozenset[str], float, int]]:
        """Coefficients as raw ``(tagset, jaccard, support)`` wire triples:
        one subset-lattice fold per distinct observed tagset type.

        The hot reporting path: report rounds ship hundreds of thousands of
        coefficients per run, so the periodic emit, the end-of-run drain
        and the Tracker all consume these triples directly instead of
        wrapping each one in a :class:`JaccardResult`.

        Every counted key is a subset of at least one observed type, so
        folding each type's lattice once covers all keys; keys shared by
        overlapping types are emitted on first encounter only, and types
        fold in first-observation order (see ``_types``).  The fold is the
        sum-over-subsets transform of the signed counts, after which
        ``union(subset) = −g[mask]`` for every subset of the type — exact
        integer arithmetic, Equation (2) rearranged.
        """
        # One counter lookup per lattice position.  The spill store reads
        # its runs once into a table private to this fold rather than
        # probing them per key; Counter.__missing__ returns 0.
        lookup = (
            self._counts.window_lookup() if self.counter_store == "spill"
            else self._counts.__getitem__
        )
        cache_lookup = self._cache.lookup
        results: list[tuple[frozenset[str], float, int]] = []
        append = results.append
        done: set[tuple[str, ...]] = set()
        seen = done.add
        for vtype in self._types:
            m = len(vtype)
            if m < min_size:
                continue  # contributes no reportable keys of its own
            self.types_folded += 1
            _, by_mask, _ = cache_lookup(vtype)
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

    def report_results(self, min_size: int = 2) -> list[JaccardResult]:
        """Coefficients of every counted tagset of at least ``min_size`` tags."""
        return [
            JaccardResult(tagset, jaccard, support)
            for tagset, jaccard, support in self.report_triples(min_size)
        ]

    def store_stats(self) -> dict[str, float] | None:
        """Spill-store accounting, or ``None`` under the default dict store.

        Spill/window-read counters and block-cache hit/miss/eviction figures
        from the backing store.  Cumulative — survives ``clear()``, run
        deletion and pickling, like the subset-cache stats.
        """
        if self.counter_store != "spill":
            return None
        return self._counts.stats()


class JaccardCalculator:
    """Counts tagset notifications and reports Jaccard coefficients.

    This is the algorithmic core of the Calculator operator, factored out so
    it can be used standalone (e.g. in examples that do not need the full
    topology).  ``subset_cache_size`` bounds the LRU cache of subset
    enumerations (see the module docstring).
    """

    def __init__(
        self,
        max_tags_per_document: int = 12,
        subset_cache_size: int = DEFAULT_SUBSET_CACHE_SIZE,
        counter_store: str = "dict",
        spill_dir: str | None = None,
        spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
    ) -> None:
        self._counter = SubsetCounter(
            max_tags_per_document,
            subset_cache_size=subset_cache_size,
            counter_store=counter_store,
            spill_dir=spill_dir,
            spill_threshold=spill_threshold,
        )
        self._observations = 0
        self.counter_store = counter_store

    @property
    def observations(self) -> int:
        """Number of notifications observed since the last report."""
        return self._observations

    @property
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction accounting of the subset-tuple LRU cache."""
        return self._counter.cache.stats()

    @property
    def store_stats(self) -> dict[str, float] | None:
        """Spill-store accounting (``None`` under the default dict store)."""
        return self._counter.store_stats()

    @property
    def counter(self) -> SubsetCounter:
        """The underlying counter table (report accounting lives there)."""
        return self._counter

    def observe(self, tags: Iterable[str]) -> None:
        """Record one tagset notification."""
        self._counter.observe(tags)
        self._observations += 1

    def coefficient(self, tags: Iterable[str]) -> float:
        """Current Jaccard coefficient of ``tags``."""
        return self._counter.jaccard(tags)

    def report(self, min_size: int = 2, reset: bool = True) -> list[JaccardResult]:
        """Compute coefficients for every counted co-occurring tagset.

        Mirrors the periodic reporting of Calculators: every ``y`` time
        units the maximum possible number of coefficients is emitted and the
        counters are deleted (``reset=True``).
        """
        return [
            JaccardResult(tagset, jaccard, support)
            for tagset, jaccard, support in self.report_triples(min_size, reset)
        ]

    def report_triples(
        self, min_size: int = 2, reset: bool = True
    ) -> list[tuple[frozenset[str], float, int]]:
        """:meth:`report` as raw wire triples (the Calculator hot path)."""
        results = self._counter.report_triples(min_size)
        if reset:
            self.reset_counts()
        return results

    def reset_counts(self) -> None:
        """Drop the counted window (what a resetting report does, and how a
        state migration commits); the subset cache survives."""
        self._counter.clear()
        self._observations = 0

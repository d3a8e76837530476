"""The Tracker bolt: deduplicates coefficients reported by Calculators.

When a tag is replicated across partitions, several Calculators may report a
Jaccard coefficient for the same tagset.  The Tracker keeps, for every
tagset, the coefficient supported by the longest-tracked counter (maximum
``CN(s_i)``), the heuristic of Section 6.2.

Result access is lazy: :meth:`TrackerBolt.coefficient_view` exposes the
tracked coefficients as a read-only mapping over the live dedup table and
:meth:`TrackerBolt.iter_coefficients` streams them — the error report of a
run probes tens of thousands of tagsets without materialising a dict copy
per report.  :meth:`TrackerBolt.coefficients` still builds a plain dict for
callers that want a snapshot.

The dedup table itself is pluggable (``tracker_store``): the default
``"dict"`` keeps every winner in RAM exactly as before, while ``"spill"``
backs the bolt with :class:`repro.store.SpillingTrackerStore` — cold
entries freeze into sorted run files past a threshold, the max-support
rule becomes the run-merge combiner, and reads answer from a merged view
of hot dict + runs.  Both stores produce bit-identical coefficients,
supports and duplicate accounting (pinned by the equivalence suites).
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.jaccard import JaccardResult
from ..store import (
    SpillingTrackerStore,
    StoreConfig,
    TRACKER_STORES,
    select_top_k,
)
from ..streamsim.components import Bolt
from ..streamsim.tuples import TupleMessage
from .streams import COEFFICIENTS


@dataclass(slots=True)
class TrackedCoefficient:
    """The best coefficient seen so far for one tagset."""

    jaccard: float
    support: int
    reports: int = 1


class CoefficientView(Mapping):
    """Read-only mapping view over the Tracker's dedup table.

    Backed directly by the live ``tagset -> TrackedCoefficient`` dict:
    lookups and membership tests cost one dict probe and **no** per-report
    dict materialisation (the old ``coefficients()`` built a full copy every
    time the error report ran).  ``min_support`` filters transparently —
    filtered entries behave as absent.  Iteration length under a filter is
    O(n) on first use and cached until the Tracker ingests again.
    """

    __slots__ = ("_best", "_min_support", "_len", "_stamp", "_tracker")

    def __init__(self, tracker: "TrackerBolt", min_support: int = 0) -> None:
        self._tracker = tracker
        self._best = tracker._best
        self._min_support = min_support
        self._len: int | None = None
        self._stamp = tracker.reports_received

    def __getitem__(self, tagset: frozenset[str]) -> float:
        tracked = self._best[tagset]
        if tracked.support < self._min_support:
            raise KeyError(tagset)
        return tracked.jaccard

    def __contains__(self, tagset: object) -> bool:
        tracked = self._best.get(tagset)  # type: ignore[arg-type]
        return tracked is not None and tracked.support >= self._min_support

    def __iter__(self) -> Iterator[frozenset[str]]:
        min_support = self._min_support
        for tagset, tracked in self._best.items():
            if tracked.support >= min_support:
                yield tagset

    def __len__(self) -> int:
        if self._min_support <= 0:
            return len(self._best)
        if self._len is None or self._stamp != self._tracker.reports_received:
            self._stamp = self._tracker.reports_received
            self._len = sum(1 for _ in self)
        return self._len


class SpillCoefficientView(Mapping):
    """Read-only mapping over a spill-backed Tracker's merged table.

    The same contract as :class:`CoefficientView` — one logical probe per
    lookup, ``min_support`` filtering, cached filtered length — but each
    probe folds the hot segment with the live runs through the store's
    block cache instead of hitting one dict.
    """

    __slots__ = ("_store", "_min_support", "_len", "_stamp", "_tracker")

    def __init__(self, tracker: "TrackerBolt", min_support: int = 0) -> None:
        self._tracker = tracker
        self._store = tracker._store
        self._min_support = min_support
        self._len: int | None = None
        self._stamp = tracker.reports_received

    def __getitem__(self, tagset: frozenset[str]) -> float:
        record = self._store.get(tagset)
        if record is None or record[1] < self._min_support:
            raise KeyError(tagset)
        return record[0]

    def __contains__(self, tagset: object) -> bool:
        record = self._store.get(tagset)  # type: ignore[arg-type]
        return record is not None and record[1] >= self._min_support

    def __iter__(self) -> Iterator[frozenset[str]]:
        min_support = self._min_support
        for tagset, _jaccard, support, _reports in self._store.iter_entries():
            if support >= min_support:
                yield tagset

    def __len__(self) -> int:
        if self._min_support <= 0:
            return len(self._store)
        if self._len is None or self._stamp != self._tracker.reports_received:
            self._stamp = self._tracker.reports_received
            self._len = sum(1 for _ in self)
        return self._len


@dataclass(frozen=True, slots=True)
class TrackerSnapshot:
    """Immutable, round-consistent view of the Tracker's dedup table.

    The service daemon's read path: the writer thread takes one snapshot per
    quiescent point (see ``AsyncServiceExecutor.on_quiescent``) and publishes
    it by plain reference assignment; query threads only ever touch the
    published snapshot, never the live table.  The live
    :class:`CoefficientView` is *not* safe for cross-thread reads — ingest
    mutates :class:`TrackedCoefficient` entries in place, so a concurrent
    reader could observe a torn jaccard/support pair.  A snapshot can't:
    every ``(jaccard, support)`` pair here was frozen on the ingesting
    thread, and neither the dataclass nor a layer changes after publication.

    The table is a stack of layers, newest first; a tagset's value is the
    one in the newest layer that holds it.  :meth:`TrackerBolt.snapshot`
    freezes only the tagsets that changed since the previous snapshot into
    a new layer and reuses every older one, so consecutive snapshots share
    all but O(changed entries) of their memory — the dict-store twin of
    :class:`repro.store.RunBackedTrackerSnapshot` (immutable runs plus a
    bounded hot copy).
    """

    #: Monotone publication index (one per quiescent point, 0 = pre-ingest).
    round_index: int
    reports_received: int
    duplicate_reports: int
    #: ``{tagset: (jaccard, support)}`` dicts, newest first; shared between
    #: snapshots and never mutated once published.
    layers: tuple[dict[frozenset[str], tuple[float, int]], ...] = ()
    #: Distinct tagsets over all layers.
    size: int = 0
    #: Entries the Tracker had written into layers (compaction included)
    #: when this snapshot was taken; cumulative over the Tracker's life.
    entries_copied: int = 0

    def __len__(self) -> int:
        return self.size

    @property
    def layer_count(self) -> int:
        """Layers a point query probes at most."""
        return len(self.layers)

    @property
    def entries(self) -> dict[frozenset[str], tuple[float, int]]:
        """``tagset -> (jaccard, support)`` at snapshot time, merged into a
        fresh dict (O(table); the layers themselves are not exposed)."""
        merged: dict[frozenset[str], tuple[float, int]] = {}
        for layer in reversed(self.layers):  # oldest first: newer overrides
            merged.update(layer)
        return merged

    def coefficient(
        self, tagset: Iterable[str]
    ) -> tuple[float, int] | None:
        """``(jaccard, support)`` of one tagset, or ``None`` if untracked."""
        tagset = frozenset(tagset)
        for layer in self.layers:
            pair = layer.get(tagset)
            if pair is not None:
                return pair
        return None

    def top_k(
        self, k: int, min_support: int = 0
    ) -> list[tuple[frozenset[str], float, int]]:
        """The ``k`` highest-coefficient tagsets at this round.

        Deterministic: ties break on descending support, then on the sorted
        tag tuple, so two queries against the same snapshot always agree.
        """
        return select_top_k(self.entries.items(), k, min_support)

    def digest(self) -> str:
        """Order-independent hash of the snapshot's coefficient table.

        The soak suite's torn-read oracle: a query answer is consistent iff
        it matches the retained snapshot carrying the same round index, and
        snapshots compare by this digest.
        """
        lines = sorted(
            f"{','.join(sorted(tagset))}={jaccard!r}/{support}"
            for tagset, (jaccard, support) in self.entries.items()
        )
        hasher = hashlib.sha256()
        for line in lines:
            hasher.update(line.encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()


class TrackerBolt(Bolt):
    """Selects, per tagset, the reported coefficient with maximum support.

    ``tracker_store="dict"`` (the default) keeps the dedup table as a
    plain in-RAM dict; ``"spill"`` backs it with a
    :class:`~repro.store.SpillingTrackerStore` (``store_config`` tunes
    its spill directory/threshold/cache/merge knobs).
    """

    def __init__(
        self,
        tracker_store: str = "dict",
        store_config: StoreConfig | None = None,
    ) -> None:
        super().__init__()
        if tracker_store not in TRACKER_STORES:
            raise ValueError(
                f"unknown tracker_store {tracker_store!r}; "
                f"expected one of {TRACKER_STORES}"
            )
        self.tracker_store = tracker_store
        self._best: dict[frozenset[str], TrackedCoefficient] = {}
        self._store: SpillingTrackerStore | None = (
            SpillingTrackerStore(config=store_config)
            if tracker_store == "spill"
            else None
        )
        self.reports_received = 0
        self.duplicate_reports = 0
        # Snapshot publication (dict store).  ``_dirty`` holds the tagsets
        # that gained a new winner since the last snapshot() — None until
        # the first call, so a batch run that never snapshots pays one
        # ``is not None`` test per winner.  ``_layers`` is the last
        # snapshot's layer stack: published, hence never mutated.
        self._dirty: set[frozenset[str]] | None = None
        self._layers: tuple[dict[frozenset[str], tuple[float, int]], ...] = ()
        self._entries_copied = 0

    def execute(self, message: TupleMessage) -> None:
        if message.schema is not COEFFICIENTS:
            return
        # COEFFICIENTS slot layout: (results, timestamp).
        self.ingest(message.values[0])

    def ingest(
        self, results: "Iterable[tuple[frozenset[str], float, int]]"
    ) -> None:
        """Deduplicate a batch of ``(tagset, jaccard, support)`` wire triples.

        The hot path: one batched tuple per Calculator report round (and
        the end-of-run drain) carries every coefficient of the round, so
        the dedup loop runs inline on the triples instead of wrapping each
        in a :class:`JaccardResult`.
        """
        if self._store is not None:
            received, duplicates = self._store.ingest(results)
            self.reports_received += received
            self.duplicate_reports += duplicates
            return
        best = self._best
        dirty = self._dirty
        received = 0
        duplicates = 0
        for tagset, jaccard, support in results:
            received += 1
            tagset = frozenset(tagset)
            existing = best.get(tagset)
            if existing is None:
                best[tagset] = TrackedCoefficient(
                    jaccard=float(jaccard), support=int(support)
                )
                if dirty is not None:
                    dirty.add(tagset)
                continue
            duplicates += 1
            existing.reports += 1
            if support > existing.support:
                existing.jaccard = float(jaccard)
                existing.support = int(support)
                if dirty is not None:
                    dirty.add(tagset)
        self.reports_received += received
        self.duplicate_reports += duplicates

    def ingest_repeated(
        self,
        pairs: "Iterable[tuple[tuple[frozenset[str], float, int], int]]",
    ) -> None:
        """Ingest ``(triple, count)`` pairs — each triple ``count`` times.

        Nothing in ``src/`` calls this any more; it stays because
        ``benchmarks/bench/bench_trace.py`` resolves the name strictly.
        """
        for triple, count in pairs:
            self.ingest([triple] * count)

    def observe(self, result: JaccardResult) -> None:
        """Record one reported coefficient (kept for single-result callers)."""
        self.ingest(((result.tagset, result.jaccard, result.support),))

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def coefficient_view(self, min_support: int = 0) -> Mapping:
        """Lazy read-only mapping over the dedup table (no dict copy)."""
        if self._store is not None:
            return SpillCoefficientView(self, min_support)
        return CoefficientView(self, min_support)

    def iter_coefficients(
        self, min_support: int = 0
    ) -> Iterator[tuple[frozenset[str], float]]:
        """Stream ``(tagset, coefficient)`` pairs without materialising.

        Dict store: insertion order.  Spill store: encoded-key order (a
        merged sweep over hot segment + runs) — deterministic regardless
        of spill timing, with the same pairs either way.
        """
        if self._store is not None:
            for tagset, jaccard, support, _reports in self._store.iter_entries():
                if support >= min_support:
                    yield tagset, jaccard
            return
        for tagset, tracked in self._best.items():
            if tracked.support >= min_support:
                yield tagset, tracked.jaccard

    def coefficients(self, min_support: int = 0) -> dict[frozenset[str], float]:
        """Final coefficient per tagset as a snapshot dict (copies)."""
        return dict(self.iter_coefficients(min_support))

    def snapshot(self, round_index: int = 0):
        """Round-consistent immutable view of the dedup table.

        Must be called from the thread that ingests (the service writer
        thread, at a quiescent point); the returned snapshot may then be
        read freely from any thread.

        Dict store: O(entries changed since the previous call), not
        O(table).  The tagsets ingest marked dirty are frozen into a new
        ``{tagset: (jaccard, support)}`` layer stacked on the previous
        snapshot's layers, which are shared, not copied.  To keep the stack
        logarithmic, older layers are folded into the new one while it has
        grown to at least half the next older layer (size-tiered, like an
        LSM tree's runs): every surviving layer is more than twice the one
        above it, and an entry is re-copied only into a layer at least 1.5x
        the one it leaves (entries the new layer overrides die instead), so
        O(log n) times over its life.  The first call starts the dirty
        tracking and freezes the whole table once.

        Spill store: a run-backed view
        (:class:`repro.store.RunBackedTrackerSnapshot`) over the published
        run files plus the bounded hot segment — same query surface and
        digest.
        """
        if self._store is not None:
            return self._store.snapshot(
                round_index, self.reports_received, self.duplicate_reports
            )
        best = self._best
        dirty = self._dirty
        if dirty is None:
            dirty = self._dirty = set(best)
        if dirty:
            older = self._layers
            size = len(dirty)
            fold = 0
            while fold < len(older) and 2 * size >= len(older[fold]):
                size += len(older[fold])
                fold += 1
            layer: dict[frozenset[str], tuple[float, int]] = {}
            for folded in reversed(older[:fold]):  # oldest first
                layer.update(folded)
            for tagset in dirty:
                tracked = best[tagset]
                layer[tagset] = (tracked.jaccard, tracked.support)
            self._layers = (layer,) + older[fold:]
            self._entries_copied += len(layer)
            dirty.clear()
        return TrackerSnapshot(
            round_index=round_index,
            reports_received=self.reports_received,
            duplicate_reports=self.duplicate_reports,
            layers=self._layers,
            size=len(best),
            entries_copied=self._entries_copied,
        )

    def supports(self) -> dict[frozenset[str], int]:
        """Supporting counter value per tagset."""
        if self._store is not None:
            return {
                tagset: support
                for tagset, _jaccard, support, _reports
                in self._store.iter_entries()
            }
        return {tagset: tracked.support for tagset, tracked in self._best.items()}

    def export_triples(self) -> list[tuple[frozenset[str], float, int]]:
        """The dedup table as ``(tagset, jaccard, support)`` wire triples.

        Dict store: insertion order; spill store: encoded-key order.
        Either way, re-ingesting the export into a fresh Tracker
        reproduces this one's winning coefficients exactly: the dedup rule
        (maximum support wins, equal support never displaces) makes ingest
        associative over concatenation of report streams — and order-
        insensitive across *distinct* tagsets, so the two orders are
        interchangeable.  The splice-equivalence suites use this to merge
        the trackers of a prefix run and a suffix run into the state one
        continuous run would hold.
        """
        if self._store is not None:
            return [
                (tagset, jaccard, support)
                for tagset, jaccard, support, _reports
                in self._store.iter_entries()
            ]
        return [
            (tagset, tracked.jaccard, tracked.support)
            for tagset, tracked in self._best.items()
        ]

    # ------------------------------------------------------------------ #
    # Store plumbing
    # ------------------------------------------------------------------ #
    def store_stats(self) -> dict[str, float] | None:
        """The spill store's accounting, or ``None`` for the dict store."""
        return self._store.stats() if self._store is not None else None

    def close(self) -> None:
        """Release the spill store's runs and directory (dict store: no-op)."""
        if self._store is not None:
            self._store.close()

    def __len__(self) -> int:
        if self._store is not None:
            return len(self._store)
        return len(self._best)

"""The Tracker bolt: deduplicates coefficients reported by Calculators.

When a tag is replicated across partitions, several Calculators may report a
Jaccard coefficient for the same tagset.  The Tracker keeps, for every
tagset, the coefficient supported by the longest-tracked counter (maximum
``CN(s_i)``), the heuristic of Section 6.2.

The dedup table is one object behind one interface, chosen once by
:func:`repro.store.tracker_table`: the in-RAM
:class:`~repro.store.DictTrackerStore` (``store=None``) or the
out-of-core :class:`~repro.store.SpillingTrackerStore` (a
:class:`~repro.store.StoreConfig`), whose cold entries freeze into sorted
run files and whose merge combiner is the max-support rule.  Both produce
bit-identical coefficients, supports and duplicate accounting (pinned by
the equivalence suites); the bolt delegates to whichever it holds.

The table is keyed by the sorted tag tuple a Calculator puts in a triple's
tagset slot; ingest sorts anything else it is given (a frozenset such as a
:class:`JaccardResult`'s tagset, a list) into that key.  Frozensets are
built only at the read boundary: every public read — the view,
:meth:`TrackerBolt.coefficients`, ``supports``, ``export_triples``,
``iter_coefficients`` and the snapshots' ``entries``, ``coefficient`` and
``top_k`` — takes and returns tagsets as frozensets.

Result access is lazy: :meth:`TrackerBolt.coefficient_view` exposes the
tracked coefficients as a read-only mapping over the live dedup table and
:meth:`TrackerBolt.iter_coefficients` streams them — the error report of a
run probes tens of thousands of tagsets without materialising a dict copy
per report.  :meth:`TrackerBolt.coefficients` still builds a plain dict for
callers that want a snapshot.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, Iterator

from ..core.jaccard import JaccardResult
from ..store import (
    RunBackedTrackerSnapshot,
    StoreConfig,
    TrackerSnapshot,
    tracker_table,
)
from ..streamsim.components import Bolt
from ..streamsim.tuples import TupleMessage
from .streams import COEFFICIENTS


class CoefficientView(Mapping):
    """Read-only mapping view over the Tracker's dedup table.

    Each lookup or membership test is one probe of the live table (its
    ``get``) and **no** per-report dict materialisation.  ``min_support``
    filters transparently — filtered entries behave as absent.  Iteration
    length under a filter is O(n) on first use and cached until the Tracker
    ingests again.  Lookups take a frozenset (or any iterable of the tags;
    a tuple is taken as the sorted key, see :func:`~repro.store.tagset_key`);
    iteration yields frozensets, in the table's ``iter_entries`` order.
    """

    __slots__ = ("_table", "_min_support", "_len", "_stamp", "_tracker")

    def __init__(self, tracker: "TrackerBolt", min_support: int = 0) -> None:
        self._tracker = tracker
        self._table = tracker._table
        self._min_support = min_support
        self._len: int | None = None
        self._stamp = tracker.reports_received

    def __getitem__(self, tagset: Iterable[str]) -> float:
        record = self._table.get(tagset)
        if record is None or record[1] < self._min_support:
            raise KeyError(tagset)
        return record[0]

    def __contains__(self, tagset: object) -> bool:
        record = self._table.get(tagset)  # type: ignore[arg-type]
        return record is not None and record[1] >= self._min_support

    def get(self, tagset: Iterable[str], default: float | None = None) -> float | None:
        """The coefficient of ``tagset``, or ``default`` when it is absent or
        filtered — one probe, where ``Mapping.get`` would raise and catch."""
        record = self._table.get(tagset)
        if record is None or record[1] < self._min_support:
            return default
        return record[0]

    def __iter__(self) -> Iterator[frozenset[str]]:
        min_support = self._min_support
        for tagset, _jaccard, support, _reports in self._table.iter_entries():
            if support >= min_support:
                yield tagset

    def __len__(self) -> int:
        if self._min_support <= 0:
            return len(self._table)
        if self._len is None or self._stamp != self._tracker.reports_received:
            self._stamp = self._tracker.reports_received
            self._len = sum(1 for _ in self)
        return self._len


class TrackerBolt(Bolt):
    """Selects, per tagset, the reported coefficient with maximum support.

    ``store`` is the dedup table's spill configuration: ``None`` (the
    default) keeps it in RAM, a :class:`~repro.store.StoreConfig` backs it
    with a :class:`~repro.store.SpillingTrackerStore`.
    """

    def __init__(self, store: StoreConfig | None = None) -> None:
        super().__init__()
        self._table = tracker_table(store)
        self.reports_received = 0
        self.duplicate_reports = 0

    def execute(self, message: TupleMessage) -> None:
        if message.schema is not COEFFICIENTS:
            return
        # COEFFICIENTS slot layout: (results, timestamp).
        self.ingest(message.values[0])

    def ingest(
        self, results: "Iterable[tuple[Iterable[str], float, int]]"
    ) -> None:
        """Deduplicate a batch of ``(tagset, jaccard, support)`` wire triples.

        The hot path: one batched tuple per Calculator report round (and
        the end-of-run drain) carries every coefficient of the round, so
        the table's dedup loop runs on the triples instead of wrapping each
        in a :class:`JaccardResult`.  A tagset that is not a tuple is
        sorted into one (:func:`~repro.store.tagset_key`), so frozensets
        and sorted tuples of the same tags land in one entry.
        """
        received, duplicates = self._table.ingest(results)
        self.reports_received += received
        self.duplicate_reports += duplicates

    def ingest_repeated(
        self,
        pairs: "Iterable[tuple[tuple[Iterable[str], float, int], int]]",
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
    def coefficient_view(self, min_support: int = 0) -> CoefficientView:
        """Lazy read-only mapping over the dedup table (no dict copy)."""
        return CoefficientView(self, min_support)

    def iter_coefficients(
        self, min_support: int = 0
    ) -> Iterator[tuple[frozenset[str], float]]:
        """Stream ``(tagset, coefficient)`` pairs without materialising.

        In-RAM table: first-sighting order.  Spill table: encoded-key
        order (a merged sweep over hot segment + runs) — deterministic
        regardless of spill timing, with the same pairs either way.
        """
        for tagset, jaccard, support, _reports in self._table.iter_entries():
            if support >= min_support:
                yield tagset, jaccard

    def coefficients(self, min_support: int = 0) -> dict[frozenset[str], float]:
        """Final coefficient per tagset as a snapshot dict (copies)."""
        return dict(self.iter_coefficients(min_support))

    def snapshot(
        self, round_index: int = 0
    ) -> TrackerSnapshot | RunBackedTrackerSnapshot:
        """Round-consistent immutable view of the dedup table.

        Must be called from the thread that ingests (the service writer
        thread, at a quiescent point); the returned snapshot may then be
        read freely from any thread.  The in-RAM table publishes a layered
        :class:`~repro.store.TrackerSnapshot` in O(entries changed since
        the previous call); the spill table a
        :class:`~repro.store.RunBackedTrackerSnapshot` over its published
        run files plus the bounded hot segment — same query surface and
        digest.
        """
        return self._table.snapshot(
            round_index, self.reports_received, self.duplicate_reports
        )

    def supports(self) -> dict[frozenset[str], int]:
        """Supporting counter value per tagset."""
        return {
            tagset: support
            for tagset, _jaccard, support, _reports in self._table.iter_entries()
        }

    def export_triples(self) -> list[tuple[frozenset[str], float, int]]:
        """The dedup table as ``(tagset, jaccard, support)`` wire triples.

        In-RAM table: first-sighting order; spill table: encoded-key order.
        Either way, re-ingesting the export into a fresh Tracker
        reproduces this one's winning coefficients exactly: the dedup rule
        (maximum support wins, equal support never displaces) makes ingest
        associative over concatenation of report streams — and order-
        insensitive across *distinct* tagsets, so the two orders are
        interchangeable.  The splice-equivalence suites use this to merge
        the trackers of a prefix run and a suffix run into the state one
        continuous run would hold.
        """
        return [
            (tagset, jaccard, support)
            for tagset, jaccard, support, _reports in self._table.iter_entries()
        ]

    # ------------------------------------------------------------------ #
    # Store plumbing
    # ------------------------------------------------------------------ #
    def store_stats(self) -> dict[str, float] | None:
        """The spill table's accounting, or ``None`` for the in-RAM one."""
        return self._table.stats()

    def close(self) -> None:
        """Release the table's runs and directory (in-RAM table: no-op)."""
        self._table.close()

    def __len__(self) -> int:
        return len(self._table)

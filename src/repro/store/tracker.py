"""The Tracker's dedup tables: in RAM, or spilling to sorted runs.

:func:`tracker_table` is the one place a
:class:`repro.operators.tracker.TrackerBolt`'s table is chosen: ``None``
gives the in-RAM :class:`DictTrackerStore`, a :class:`StoreConfig` the
:class:`SpillingTrackerStore`.  Both offer one interface — ``ingest``
(returning the batch's received and duplicate counts), ``get``,
``iter_entries``, ``__len__``, ``snapshot``, ``stats`` and ``close`` — so
the bolt delegates every call without asking which one it holds.  Their
snapshots (:class:`TrackerSnapshot`, :class:`RunBackedTrackerSnapshot`)
answer ``top_k`` and ``digest`` with one shared implementation.

:class:`SpillingTrackerStore` is the out-of-core table.  Where the counter store
holds additive subset counts, this store holds the Tracker's *dedup
winners* — per reported tagset the coefficient of the report with maximum
support, plus how many reports ever mentioned the tagset.  Entries
accumulate in a hot in-RAM dict; past ``spill_threshold`` distinct
tagsets the segment is frozen into a raw-value RSC1 run (see
:mod:`repro.store.format`) and the RAM reclaimed, so resident entries
stay bounded by the threshold no matter how long the stream runs.

The dedup rule *is* the merge combiner.  Folding two records for the same
tagset (older left, newer right)::

    winner   = new if new.support > old.support else old     # ties keep old
    reports  = old.reports + new.reports

is exactly what :class:`DictTrackerStore` does report by report, and the fold is
associative (leftmost argmax under strictly-greater displacement), so any
way of slicing the report sequence into segments — hot dict, one run,
many runs, compactions — folds back to the identical record.
That equivalence is what pins the spill table bit-identical to the
in-RAM one, and it holds only while merges fold *oldest → newest*:
every merge path here feeds streams in spill order and relies on
``heapq.merge`` stability.

Duplicate accounting (``duplicate_reports`` in every ``RunReport`` and
service ``stats`` reply) needs to know whether a tagset was *ever* seen,
including in spilled segments.  ``ingest`` decides that once per batch:
the batch's tagsets that are not hot are encoded once, sorted and
resolved against the runs live at batch start with one forward cursor
per run (each block fetched at most once) before any triple is applied.

:meth:`SpillingTrackerStore.snapshot` builds the service daemon's
run-backed :class:`RunBackedTrackerSnapshot`: an immutable view that
opens its *own* readers over the published run files (POSIX keeps an
unlinked-but-open mmap valid, so later compactions cannot disturb it)
plus a copy of the bounded hot segment — no full-table copy per
quiescent point.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import struct
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator

from .config import StoreConfig
from .format import (
    BlockCache,
    RunFormatError,
    RunReader,
    _read_uvarint,
    _write_uvarint,
    decode_key,
    encode_key,
    merge_runs,
)
from .runstore import RunStore, merged_rows

#: Names of the available tracker stores (mirrored by
#: ``SystemConfig.tracker_store`` and the CLI ``--tracker-store`` flag).
TRACKER_STORES = ("dict", "spill")

_JACCARD = struct.Struct("<d")

#: A record whose support and reports are both below 128 — almost every
#: one — is exactly these 10 bytes (a one-byte uvarint is the byte).
_SMALL_RECORD = struct.Struct("<dBB")


# --------------------------------------------------------------------- #
# The coefficient record codec and its merge combiner
# --------------------------------------------------------------------- #
def encode_value(jaccard: float, support: int, reports: int) -> bytes:
    """One coefficient record as raw run-file bytes:
    ``<d jaccard · uvarint support · uvarint reports``.

    The jaccard travels as its exact IEEE-754 double bits — a spilled
    coefficient read back ``repr()``s identically to the float the
    Calculator emitted, which the digest equivalence depends on.
    """
    if 0 <= support < 128 and 0 <= reports < 128:
        # Both varints are the byte itself: one fixed 10-byte pack.
        return _SMALL_RECORD.pack(jaccard, support, reports)
    out = bytearray(_JACCARD.pack(jaccard))
    _write_uvarint(out, support)
    _write_uvarint(out, reports)
    return bytes(out)


def decode_value(data: bytes) -> tuple[float, int, int]:
    """Inverse of :func:`encode_value`: ``(jaccard, support, reports)``.

    Strict, like the rest of the reader: a record too short for its
    double or its varints, or with bytes left over, is a
    :class:`RunFormatError`, never a mis-decoded coefficient.
    """
    end = len(data)
    if end == _SMALL_RECORD.size:
        record = _SMALL_RECORD.unpack(data)
        if record[1] < 128 and record[2] < 128:
            return record
    if end < _JACCARD.size:
        raise RunFormatError(
            f"coefficient record of {end} bytes is too short for its jaccard"
        )
    jaccard = _JACCARD.unpack_from(data, 0)[0]
    support, pos = _read_uvarint(data, _JACCARD.size, end)
    reports, pos = _read_uvarint(data, pos, end)
    if pos != end:
        raise RunFormatError(
            f"{end - pos} trailing bytes after a coefficient record"
        )
    return jaccard, support, reports


def combine_max_support(old: bytes, new: bytes) -> bytes:
    """Fold two records of one tagset, oldest first.

    The newer record displaces only on *strictly greater* support — equal
    support keeps the incumbent, mirroring :class:`DictTrackerStore`'s rule —
    and report counts always sum.
    """
    old_j, old_s, old_r = decode_value(old)
    new_j, new_s, new_r = decode_value(new)
    if new_s > old_s:
        return encode_value(new_j, new_s, old_r + new_r)
    return encode_value(old_j, old_s, old_r + new_r)


def tagset_key(tags: Iterable[str]) -> tuple[str, ...]:
    """The Tracker's key of a tagset: its tags as a sorted tuple.

    A tuple is taken to be that key already — it is the form Calculators
    put on the wire — and any other iterable (a frozenset, a list) is
    sorted.
    """
    return tags if type(tags) is tuple else tuple(sorted(tags))


def _sorted_rows(hot: dict) -> list[tuple[bytes, bytes]]:
    """A hot segment as run entries — ``(encoded key, record)`` in key
    order.  Hot entries are ``[jaccard, support, reports, encoded]``;
    ``encoded`` is the key's bytes when the batch's membership resolution
    already computed them (else ``None``), so a tagset is encoded once."""
    return sorted(
        (entry[3] or encode_key(key),
         encode_value(entry[0], entry[1], entry[2]))
        for key, entry in hot.items()
    )


def _folded_record(
    readers: list, hot: dict, key: tuple[str, ...]
) -> bytes | None:
    """One tagset's record (``key`` its sorted tag tuple) folded over
    ``readers`` (oldest first) and then its hot entry — the point-query
    twin of the merge fold."""
    merged: bytes | None = None
    if readers:
        encoded = encode_key(key)
        for reader in readers:
            value = reader.get(encoded)
            if value is not None:
                merged = value if merged is None else (
                    combine_max_support(merged, value)
                )
    entry = hot.get(key)
    if entry is not None:
        hot_value = encode_value(entry[0], entry[1], entry[2])
        merged = hot_value if merged is None else (
            combine_max_support(merged, hot_value)
        )
    return merged


def select_top_k(
    items: Iterable[tuple[Iterable[str], tuple[float, int]]],
    k: int,
    min_support: int = 0,
) -> list[tuple[Iterable[str], float, int]]:
    """The ``k`` best ``(tagset, jaccard, support)`` rows of a table given
    as ``(tagset, (jaccard, support))`` items — *the* ``top_k`` order of
    every snapshot: jaccard descending, then support descending, then the
    sorted tag tuple ascending.  Tagsets come back as given (the
    snapshots pass sorted tuples and freeze the ``k`` rows they return).

    One pass, threshold selection: a ``k``-heap of bare ``(jaccard,
    support)`` pairs carries the cut (the ``k``-th best pair so far, which
    only rises), rows below it are dropped on sight, and the sorted-tag
    tie-break — the expensive part of the key — is computed only for the
    rows still at or above the final cut.
    """
    if k < 1:
        return []
    heap: list[tuple[float, int]] = []
    kept: list[tuple[Iterable[str], tuple[float, int]]] = []
    for item in items:
        pair = item[1]
        if pair[1] < min_support:
            continue
        if len(heap) < k:
            heapq.heappush(heap, pair)
        elif pair < heap[0]:
            continue
        elif pair > heap[0]:
            heapq.heapreplace(heap, pair)
        kept.append(item)
    if not heap:
        return []
    cut = heap[0]
    rows = [
        (tagset, pair[0], pair[1]) for tagset, pair in kept if pair >= cut
    ]
    rows.sort(key=lambda row: (-row[1], -row[2], tuple(sorted(row[0]))))
    return rows[:k]


class SnapshotQueries:
    """The whole-table queries both snapshot kinds answer identically.

    A subclass yields its merged table from :meth:`_items` as ``(sorted
    tag tuple, (jaccard, support))`` pairs, one per tagset, in any order.
    """

    __slots__ = ()

    def _items(self) -> Iterable[tuple[tuple[str, ...], tuple[float, int]]]:
        raise NotImplementedError

    def top_k(
        self, k: int = 10, min_support: int = 0
    ) -> list[tuple[frozenset[str], float, int]]:
        """The ``k`` highest-coefficient tagsets at this round.

        Deterministic: ties break on descending support, then on the sorted
        tag tuple (:func:`select_top_k`), so two queries against the same
        snapshot always agree.
        """
        rows = select_top_k(self._items(), k, min_support)
        return [(frozenset(key), jaccard, support)
                for key, jaccard, support in rows]

    def digest(self) -> str:
        """Order-independent hash of the snapshot's coefficient table.

        The soak suite's torn-read oracle: a query answer is consistent iff
        it matches the retained snapshot carrying the same round index, and
        snapshots compare by this digest — equal for equal tables, whichever
        store produced them.
        """
        lines = sorted(
            f"{','.join(key)}={jaccard!r}/{support}"
            for key, (jaccard, support) in self._items()
        )
        hasher = hashlib.sha256()
        for line in lines:
            hasher.update(line.encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()


@dataclass(frozen=True, slots=True)
class TrackerSnapshot(SnapshotQueries):
    """Immutable, round-consistent view of the in-RAM dedup table.

    The service daemon's read path: the writer thread takes one snapshot per
    quiescent point (see ``AsyncServiceExecutor.on_quiescent``) and publishes
    it by plain reference assignment; query threads only ever touch the
    published snapshot, never the live table.  The live table is *not* safe
    for cross-thread reads — ingest mutates :class:`TrackedCoefficient`
    entries in place, so a concurrent reader could observe a torn
    jaccard/support pair.  A snapshot can't: every ``(jaccard, support)``
    pair here was frozen on the ingesting thread, and neither the dataclass
    nor a layer changes after publication.

    The table is a stack of layers, newest first; a tagset's value is the
    one in the newest layer that holds it.  Layers are keyed by sorted tag
    tuples, like the live table; the query surface takes and returns
    frozensets.  :meth:`DictTrackerStore.snapshot` freezes only the tagsets
    that changed since the previous snapshot into a new layer and reuses
    every older one, so consecutive snapshots share all but O(changed
    entries) of their memory — the dict-store twin of
    :class:`RunBackedTrackerSnapshot` (immutable runs plus a bounded hot
    copy).
    """

    #: Monotone publication index (one per quiescent point, 0 = pre-ingest).
    round_index: int
    reports_received: int
    duplicate_reports: int
    #: ``{sorted tag tuple: (jaccard, support)}`` dicts, newest first;
    #: shared between snapshots and never mutated once published.
    layers: tuple[dict[tuple[str, ...], tuple[float, int]], ...] = ()
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

    def _merged(self) -> dict[tuple[str, ...], tuple[float, int]]:
        merged: dict[tuple[str, ...], tuple[float, int]] = {}
        for layer in reversed(self.layers):  # oldest first: newer overrides
            merged.update(layer)
        return merged

    def _items(self) -> Iterable[tuple[tuple[str, ...], tuple[float, int]]]:
        return self._merged().items()

    @property
    def entries(self) -> dict[frozenset[str], tuple[float, int]]:
        """``tagset -> (jaccard, support)`` at snapshot time, merged into a
        fresh dict (O(table); the layers themselves are not exposed)."""
        return {frozenset(key): pair for key, pair in self._merged().items()}

    def coefficient(
        self, tagset: Iterable[str]
    ) -> tuple[float, int] | None:
        """``(jaccard, support)`` of one tagset, or ``None`` if untracked."""
        key = tuple(sorted(tagset))
        for layer in self.layers:
            pair = layer.get(key)
            if pair is not None:
                return pair
        return None


@dataclass(slots=True)
class TrackedCoefficient:
    """The best coefficient seen so far for one tagset."""

    jaccard: float
    support: int
    reports: int = 1


class DictTrackerStore:
    """The in-RAM dedup table: one :class:`TrackedCoefficient` per tagset,
    keyed by sorted tag tuple, in first-sighting order."""

    def __init__(self) -> None:
        self._best: dict[tuple[str, ...], TrackedCoefficient] = {}
        # Snapshot publication.  ``_dirty`` holds the tagsets that gained a
        # new winner since the last snapshot() — None until the first call,
        # so a batch run that never snapshots pays one ``is not None`` test
        # per winner.  ``_layers`` is the last snapshot's layer stack:
        # published, hence never mutated.
        self._dirty: set[tuple[str, ...]] | None = None
        self._layers: tuple[dict[tuple[str, ...], tuple[float, int]], ...] = ()
        self._entries_copied = 0

    def ingest(self, results: Iterable[tuple]) -> tuple[int, int]:
        """Apply ``(tags, jaccard, support)`` triples; returns the
        ``(received, duplicates)`` deltas for the owning bolt's counters.

        First sighting stores the report, later sightings displace only on
        strictly greater support.  Keys are canonicalised like
        :func:`tagset_key`.
        """
        best = self._best
        dirty = self._dirty
        received = 0
        duplicates = 0
        for tagset, jaccard, support in results:
            received += 1
            if type(tagset) is not tuple:
                tagset = tuple(sorted(tagset))
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
        return received, duplicates

    def get(self, tagset: Iterable[str]) -> tuple[float, int, int] | None:
        """The ``(jaccard, support, reports)`` of one tagset."""
        tracked = self._best.get(tagset_key(tagset))
        if tracked is None:
            return None
        return tracked.jaccard, tracked.support, tracked.reports

    def iter_entries(self) -> Iterator[tuple[frozenset, float, int, int]]:
        """All ``(tagset, jaccard, support, reports)`` records, in
        first-sighting order; each tagset comes back as a frozenset."""
        for key, tracked in self._best.items():
            yield frozenset(key), tracked.jaccard, tracked.support, tracked.reports

    def __len__(self) -> int:
        return len(self._best)

    def snapshot(
        self, round_index: int, reports_received: int, duplicate_reports: int
    ) -> TrackerSnapshot:
        """A layered :class:`TrackerSnapshot`, in O(entries changed since
        the previous call), not O(table).

        The tagsets ingest marked dirty are frozen into a new ``{tagset:
        (jaccard, support)}`` layer stacked on the previous snapshot's
        layers, which are shared, not copied.  To keep the stack
        logarithmic, older layers are folded into the new one while it has
        grown to at least half the next older layer (size-tiered, like an
        LSM tree's runs): every surviving layer is more than twice the one
        above it, and an entry is re-copied only into a layer at least 1.5x
        the one it leaves (entries the new layer overrides die instead), so
        O(log n) times over its life.  The first call starts the dirty
        tracking and freezes the whole table once.
        """
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
            layer: dict[tuple[str, ...], tuple[float, int]] = {}
            for folded in reversed(older[:fold]):  # oldest first
                layer.update(folded)
            for key in dirty:
                tracked = best[key]
                layer[key] = (tracked.jaccard, tracked.support)
            self._layers = (layer,) + older[fold:]
            self._entries_copied += len(layer)
            dirty.clear()
        return TrackerSnapshot(
            round_index=round_index,
            reports_received=reports_received,
            duplicate_reports=duplicate_reports,
            layers=self._layers,
            size=len(best),
            entries_copied=self._entries_copied,
        )

    def stats(self) -> None:
        """No spill accounting for a table that never spills."""
        return None

    def close(self) -> None:
        """Nothing to release: the table lives in RAM."""


def tracker_table(
    store: StoreConfig | None,
) -> DictTrackerStore | SpillingTrackerStore:
    """A Tracker's dedup table: in RAM (``None``) or spilling to runs under
    ``store``."""
    return DictTrackerStore() if store is None else SpillingTrackerStore(store)


class SpillingTrackerStore(RunStore):
    """Coefficient table that freezes cold segments into sorted run files."""

    prefix = "repro-tracker-"
    raw_values = True
    combine = staticmethod(combine_max_support)

    def __init__(self, config: StoreConfig) -> None:
        # Hot entries are [jaccard, support, reports, encoded key or None]
        # lists (mutated in place) keyed by tagset; a hot entry for a
        # run-resident tagset is a pure *delta* — the fold with the run
        # record happens at read or merge time via combine_max_support.
        super().__init__(config, {}, {
            "merges": 0,
            "merge_seconds": 0.0,
            "membership_probes": 0,
            "snapshot_entries_copied": 0,
        })
        self._distinct = 0

    def _hot_rows(self) -> list[tuple[bytes, bytes]]:
        return _sorted_rows(self._hot)

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def _new_keys(
        self, batch: list[tuple]
    ) -> dict[tuple[str, ...], bytes | None]:
        """The batch's tagsets in neither the hot dict nor a run live at
        batch start, mapped to their encoded keys (``None`` while no run
        exists); ``membership_probes`` counts the keys resolved."""
        hot = self._hot
        runs = self._runs
        new: dict[tuple[str, ...], bytes | None] = {}
        for key, _jaccard, _support in batch:
            if type(key) is not tuple:
                key = tuple(sorted(key))
            if key not in hot and key not in new:
                new[key] = encode_key(key) if runs else None
        if not new or not runs:
            return new
        pending = sorted(new.values())
        self._stats["membership_probes"] += len(pending)
        seen = set()
        for reader in runs:
            seen.update(key for key, _value in reader.get_sorted(pending))
        if seen:
            new = {key: encoded for key, encoded in new.items()
                   if encoded not in seen}
        return new

    def ingest(self, results: Iterable[tuple]) -> tuple[int, int]:
        """Apply ``(tags, jaccard, support)`` triples; returns the
        ``(received, duplicates)`` deltas for the owning bolt's counters.

        Bit-for-bit :class:`DictTrackerStore`'s rule: first sighting stores the
        report, later sightings displace only on strictly greater support.
        A first sighting pops its tagset from the batch's ``new`` set, so
        a later one is a duplicate even if a spill froze the first.  Keys
        are canonicalised like :func:`tagset_key`.
        """
        batch = results if isinstance(results, list) else list(results)
        new = self._new_keys(batch)
        duplicates = 0
        hot = self._hot
        threshold = self.config.spill_threshold
        for key, jaccard, support in batch:
            if type(key) is not tuple:
                key = tuple(sorted(key))
            entry = hot.get(key)
            if entry is None:
                if key in new:
                    encoded = new.pop(key)
                    self._distinct += 1
                else:
                    encoded = None
                    duplicates += 1
                hot[key] = [float(jaccard), int(support), 1, encoded]
                if len(hot) >= threshold:
                    self.spill()
            else:
                duplicates += 1
                entry[2] += 1
                if support > entry[1]:
                    entry[0] = float(jaccard)
                    entry[1] = int(support)
        return len(batch), duplicates

    def spill(self) -> None:
        """Freeze the hot segment into a published raw-value run, then
        compact once the live-run count reaches the merge fan-in."""
        super().spill()
        if len(self._runs) >= self.config.merge_fan_in:
            self.compact()

    def compact(self) -> None:
        """Merge all live runs, oldest first, into one (bounds the cursors
        a batch's membership resolution and a point query open).

        Each spill adds one run and each compaction leaves one, so this is
        always a single merge of ``merge_fan_in`` runs.  A failed merge
        sweeps every on-disk artefact of this store before propagating, so
        abort paths leave no orphaned runs behind.
        """
        started = time.perf_counter()
        paths = [reader.path for reader in self._runs]
        for reader in self._runs:
            reader.close()
        self._runs = []
        try:
            merged = merge_runs(
                paths, self._next_path("merge"),
                block_size=self.config.block_size,
                combine=combine_max_support,
            )
        except BaseException:
            self._sweep_run_files()
            raise
        for path in paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._runs = [RunReader(merged, self._cache)]
        stats = self._stats
        stats["merges"] += 1
        stats["merge_seconds"] += time.perf_counter() - started

    def clear(self) -> None:
        """Drop every record: hot segment, run files, distinct count."""
        super().clear()
        self._distinct = 0

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def get(self, tagset: Iterable[str]) -> tuple[float, int, int] | None:
        """The folded ``(jaccard, support, reports)`` of one tagset."""
        merged = _folded_record(self._runs, self._hot, tagset_key(tagset))
        return decode_value(merged) if merged is not None else None

    def iter_entries(self) -> Iterator[tuple[frozenset, float, int, int]]:
        """All ``(tagset, jaccard, support, reports)`` records, in
        encoded-key order — deterministic regardless of spill timing.
        The read boundary: each tagset comes back as a frozenset."""
        for key, value in self._merged_encoded():
            jaccard, support, reports = decode_value(value)
            yield frozenset(decode_key(key)), jaccard, support, reports

    def __contains__(self, tagset: Iterable[str]) -> bool:
        return _folded_record(
            self._runs, self._hot, tagset_key(tagset)
        ) is not None

    def __len__(self) -> int:
        return self._distinct

    # ------------------------------------------------------------------ #
    # Snapshots (service mode)
    # ------------------------------------------------------------------ #
    def snapshot(
        self, round_index: int, reports_received: int, duplicate_reports: int
    ) -> "RunBackedTrackerSnapshot":
        """An immutable view over the published runs + the hot segment.

        Opened synchronously on the caller's (writer) thread, before any
        further mutation: the snapshot's own readers keep the current run
        files alive even after the store compacts or unlinks them.
        """
        self._stats["snapshot_entries_copied"] += len(self._hot)
        return RunBackedTrackerSnapshot(
            round_index=round_index,
            reports_received=reports_received,
            duplicate_reports=duplicate_reports,
            distinct=self._distinct,
            run_paths=[reader.path for reader in self._runs],
            hot={key: tuple(entry) for key, entry in self._hot.items()},
            entries_copied=self._stats["snapshot_entries_copied"],
        )


class RunBackedTrackerSnapshot(SnapshotQueries):
    """Immutable tracker view answering queries from runs + a hot copy.

    Duck-types :class:`TrackerSnapshot`'s query surface (``round_index``,
    ``reports_received``, ``duplicate_reports``, ``__len__``,
    ``layer_count``, ``entries_copied``, ``coefficient``, and the shared
    ``top_k`` and ``digest``) without copying the table: run blocks are faulted in on demand through a private
    block cache.  All reads are serialised by one lock — the cache is not
    thread-safe, and daemon query threads share the snapshot.

    The readers are opened at construction time (writer thread, quiescent
    point); the backing files stay readable even after the store unlinks
    them, so a retained snapshot keeps answering the same round forever.
    """

    __slots__ = (
        "round_index", "reports_received", "duplicate_reports",
        "entries_copied",
        "_distinct", "_hot", "_readers", "_cache", "_lock", "_finalizer",
        "__weakref__",
    )

    def __init__(
        self,
        round_index: int,
        reports_received: int,
        duplicate_reports: int,
        distinct: int,
        run_paths: list[str],
        hot: dict[tuple[str, ...], tuple],
        entries_copied: int = 0,
    ) -> None:
        self.round_index = round_index
        self.reports_received = reports_received
        self.duplicate_reports = duplicate_reports
        #: Hot-segment entries the store had copied into snapshots when
        #: this one was taken (cumulative; runs are shared, never copied).
        self.entries_copied = entries_copied
        self._distinct = distinct
        self._hot = hot
        self._cache = BlockCache(64)
        self._readers = []
        try:
            for path in run_paths:
                self._readers.append(RunReader(path, self._cache))
        except BaseException:
            for reader in self._readers:
                reader.close()
            raise
        self._lock = threading.Lock()
        self._finalizer = weakref.finalize(
            self, _close_readers, self._readers
        )

    def close(self) -> None:
        """Release the snapshot's readers (a GC finalizer backstops)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None

    def __len__(self) -> int:
        return self._distinct

    @property
    def layer_count(self) -> int:
        """Runs plus the hot copy — what a point query probes."""
        return len(self._readers) + bool(self._hot)

    def coefficient(self, tagset: Iterable[str]) -> tuple[float, int] | None:
        """The folded ``(jaccard, support)`` of one tagset, if reported."""
        key = tuple(sorted(tagset))
        with self._lock:
            merged = _folded_record(self._readers, self._hot, key)
        if merged is None:
            return None
        jaccard, support, _reports = decode_value(merged)
        return jaccard, support

    def _items(self) -> Iterator[tuple[tuple[str, ...], tuple[float, int]]]:
        # Holds the lock for the whole sweep: top_k and digest consume it
        # to the end.
        with self._lock:
            rows = merged_rows(
                self._readers, _sorted_rows(self._hot), combine_max_support
            )
            for key, value in rows:
                jaccard, support, _reports = decode_value(value)
                yield decode_key(key), (jaccard, support)


def _close_readers(readers: list) -> None:
    for reader in readers:
        try:
            reader.close()
        except Exception:
            pass

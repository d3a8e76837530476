"""The spilling tracker store: the coefficient table as sorted runs.

:class:`SpillingTrackerStore` is the out-of-core backing table for
:class:`repro.operators.tracker.TrackerBolt`.  Where the counter store
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

is exactly what the in-RAM dict does report by report, and the fold is
associative (leftmost argmax under strictly-greater displacement), so any
way of slicing the report sequence into segments — hot dict, one run,
many runs, layered compactions — folds back to the identical record.
That equivalence is what pins ``tracker_store="spill"`` bit-identical to
the dict default, and it holds only while merges fold *oldest → newest*:
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
import shutil
import struct
import tempfile
import threading
import weakref
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
    merged_entries,
    write_run,
)
from .merge import compact_runs

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
    support keeps the incumbent, mirroring ``TrackerBolt``'s in-RAM rule —
    and report counts always sum.
    """
    old_j, old_s, old_r = decode_value(old)
    new_j, new_s, new_r = decode_value(new)
    if new_s > old_s:
        return encode_value(new_j, new_s, old_r + new_r)
    return encode_value(old_j, old_s, old_r + new_r)


def _encode_tagset(tagset: frozenset) -> bytes:
    return encode_key(tuple(sorted(tagset)))


def _sorted_rows(hot: dict) -> list[tuple[bytes, bytes]]:
    """A hot segment as run entries — ``(encoded key, record)`` in key
    order.  Hot entries are ``[jaccard, support, reports, encoded]``;
    ``encoded`` is the key's bytes when the batch's membership resolution
    already computed them (else ``None``), so a tagset is sorted and
    encoded once."""
    return sorted(
        (entry[3] or _encode_tagset(key),
         encode_value(entry[0], entry[1], entry[2]))
        for key, entry in hot.items()
    )


def _folded_record(readers: list, hot: dict, tagset: frozenset) -> bytes | None:
    """One tagset's record folded over ``readers`` (oldest first) and then
    its hot entry — the point-query twin of the merge fold."""
    merged: bytes | None = None
    if readers:
        encoded = _encode_tagset(tagset)
        for reader in readers:
            value = reader.get(encoded)
            if value is not None:
                merged = value if merged is None else (
                    combine_max_support(merged, value)
                )
    entry = hot.get(tagset)
    if entry is not None:
        hot_value = encode_value(entry[0], entry[1], entry[2])
        merged = hot_value if merged is None else (
            combine_max_support(merged, hot_value)
        )
    return merged


def select_top_k(
    items: Iterable[tuple[frozenset, tuple[float, int]]],
    k: int,
    min_support: int = 0,
) -> list[tuple[frozenset, float, int]]:
    """The ``k`` best ``(tagset, jaccard, support)`` rows of a table given
    as ``(tagset, (jaccard, support))`` items — *the* ``top_k`` order of
    every snapshot: jaccard descending, then support descending, then the
    sorted tag tuple ascending.

    One pass, threshold selection: a ``k``-heap of bare ``(jaccard,
    support)`` pairs carries the cut (the ``k``-th best pair so far, which
    only rises), rows below it are dropped on sight, and the sorted-tag
    tie-break — the expensive part of the key — is computed only for the
    rows still at or above the final cut.
    """
    if k < 1:
        return []
    heap: list[tuple[float, int]] = []
    kept: list[tuple[frozenset, tuple[float, int]]] = []
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


class SpillingTrackerStore:
    """Coefficient table that freezes cold segments into sorted run files."""

    def __init__(
        self,
        spill_dir: str | None = None,
        spill_threshold: int | None = None,
        *,
        block_size: int | None = None,
        cache_blocks: int | None = None,
        merge_fan_in: int | None = None,
        config: StoreConfig | None = None,
    ) -> None:
        config = (config or StoreConfig()).replacing(
            spill_dir=os.fspath(spill_dir) if spill_dir is not None else None,
            spill_threshold=spill_threshold,
            block_size=block_size,
            cache_blocks=cache_blocks,
            merge_fan_in=merge_fan_in,
        )
        self.config = config
        # Hot entries are [jaccard, support, reports, encoded key or None]
        # lists (mutated in place) keyed by tagset; a hot entry for a
        # run-resident tagset is a pure *delta* — the fold with the run
        # record happens at read or merge time via combine_max_support.
        self._hot: dict[frozenset, list] = {}
        self._runs: list[RunReader] = []
        self._cache = BlockCache(config.cache_blocks)
        self._dir: str | None = None
        self._finalizer = None
        self._sequence = 0
        self._distinct = 0
        self._stats = {
            "spilled_entries": 0,
            "runs_written": 0,
            "run_bytes_written": 0,
            "merges": 0,
            "merge_seconds": 0.0,
            "membership_probes": 0,
            "snapshot_entries_copied": 0,
        }

    # ------------------------------------------------------------------ #
    # Directory lifecycle (same contract as SpillingCounterStore)
    # ------------------------------------------------------------------ #
    def ensure_dir(self) -> str:
        """The store's private spill directory, created on first use."""
        if self._dir is None:
            root = self.config.spill_dir
            if root is not None:
                os.makedirs(root, exist_ok=True)
            self._dir = tempfile.mkdtemp(prefix="repro-tracker-", dir=root)
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._dir, True
            )
        return self._dir

    @property
    def directory(self) -> str | None:
        """The spill directory, or ``None`` while nothing spilled yet."""
        return self._dir

    def _next_path(self, kind: str) -> str:
        self._sequence += 1
        return os.path.join(
            self.ensure_dir(), f"{kind}-{self._sequence:06d}.run"
        )

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def _new_keys(self, batch: list[tuple]) -> dict[frozenset, bytes | None]:
        """The batch's tagsets in neither the hot dict nor a run live at
        batch start, mapped to their encoded keys (``None`` while no run
        exists); ``membership_probes`` counts the keys resolved."""
        hot = self._hot
        runs = self._runs
        new: dict[frozenset, bytes | None] = {}
        for tags, _jaccard, _support in batch:
            key = frozenset(tags)
            if key not in hot and key not in new:
                new[key] = _encode_tagset(key) if runs else None
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

        Bit-for-bit the dict tracker's rule: first sighting stores the
        report, later sightings displace only on strictly greater support.
        A first sighting pops its tagset from the batch's ``new`` set, so
        a later one is a duplicate even if a spill froze the first.
        """
        batch = results if isinstance(results, list) else list(results)
        new = self._new_keys(batch)
        duplicates = 0
        hot = self._hot
        threshold = self.config.spill_threshold
        for tags, jaccard, support in batch:
            key = frozenset(tags)
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
        hot = self._hot
        if not hot:
            return
        result = write_run(
            self._next_path("run"), _sorted_rows(hot),
            block_size=self.config.block_size, raw_values=True,
        )
        self._runs.append(RunReader(result.path, self._cache))
        stats = self._stats
        stats["spilled_entries"] += result.entries
        stats["runs_written"] += 1
        stats["run_bytes_written"] += result.file_bytes
        hot.clear()
        if len(self._runs) >= self.config.merge_fan_in:
            self.compact()

    def compact(self) -> None:
        """Merge all live runs into one (bounds the cursors a batch's
        membership resolution and a point query open).

        A failed merge sweeps every on-disk artefact of this store before
        propagating, so abort paths leave no orphaned runs behind.
        """
        if len(self._runs) < 2:
            return
        paths = [reader.path for reader in self._runs]
        for reader in self._runs:
            reader.close()
        self._runs = []
        try:
            result = compact_runs(
                paths,
                lambda layer, index: self._next_path(f"merge{layer}"),
                fan_in=self.config.merge_fan_in,
                block_size=self.config.block_size,
                combine=combine_max_support,
            )
        except BaseException:
            self._sweep_run_files()
            raise
        self._runs = [RunReader(result.path, self._cache)]
        stats = self._stats
        stats["merges"] += result.merges
        stats["merge_seconds"] += result.seconds

    def _sweep_run_files(self) -> None:
        directory = self._dir
        if directory is None or not os.path.isdir(directory):
            return
        for name in os.listdir(directory):
            if name.endswith(".run") or name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    pass

    def clear(self) -> None:
        """Drop every record: hot segment, run files, distinct count."""
        self._hot.clear()
        self._distinct = 0
        for reader in self._runs:
            reader.close()
            try:
                os.unlink(reader.path)
            except OSError:
                pass
        self._runs = []
        self._sweep_run_files()

    def close(self) -> None:
        """Release everything, including the spill directory itself."""
        self.clear()
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._dir = None

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #
    def get(self, tagset: frozenset) -> tuple[float, int, int] | None:
        """The folded ``(jaccard, support, reports)`` of one tagset."""
        merged = _folded_record(self._runs, self._hot, tagset)
        return decode_value(merged) if merged is not None else None

    def _merged_encoded(self) -> Iterator[tuple[bytes, bytes]]:
        streams: list[Iterator[tuple[bytes, bytes]]] = [
            reader.entries() for reader in self._runs  # oldest first
        ]
        if self._hot:
            streams.append(iter(_sorted_rows(self._hot)))
        return merged_entries(streams, combine=combine_max_support)

    def iter_entries(self) -> Iterator[tuple[frozenset, float, int, int]]:
        """All ``(tagset, jaccard, support, reports)`` records, in
        encoded-key order — deterministic regardless of spill timing."""
        for key, value in self._merged_encoded():
            jaccard, support, reports = decode_value(value)
            yield frozenset(decode_key(key)), jaccard, support, reports

    def __contains__(self, tagset: frozenset) -> bool:
        return _folded_record(self._runs, self._hot, tagset) is not None

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

    # ------------------------------------------------------------------ #
    # Stats
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, float]:
        """Cumulative spill/merge accounting plus block-cache counters."""
        stats: dict[str, float] = dict(self._stats)
        cache = self._cache.stats()
        stats["block_cache_hits"] = cache["hits"]
        stats["block_cache_misses"] = cache["misses"]
        stats["block_cache_evictions"] = cache["evictions"]
        stats["runs_live"] = len(self._runs)
        stats["hot_entries"] = len(self._hot)
        return stats

    def __getstate__(self) -> dict:
        raise TypeError(
            "SpillingTrackerStore is not picklable: it owns its spill "
            "directory and open run files; the Tracker stays in the process "
            "that built it (export_triples() / iter_entries() copy its table)"
        )


class RunBackedTrackerSnapshot:
    """Immutable tracker view answering queries from runs + a hot copy.

    Duck-types :class:`repro.operators.tracker.TrackerSnapshot`'s query
    surface (``round_index``, ``reports_received``, ``duplicate_reports``,
    ``__len__``, ``layer_count``, ``entries_copied``, ``coefficient``,
    ``top_k``, ``digest``) without copying
    the table: run blocks are faulted in on demand through a private
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
        hot: dict[frozenset, tuple],
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

    def coefficient(self, tagset: frozenset) -> tuple[float, int] | None:
        """The folded ``(jaccard, support)`` of one tagset, if reported."""
        with self._lock:
            merged = _folded_record(self._readers, self._hot, tagset)
        if merged is None:
            return None
        jaccard, support, _reports = decode_value(merged)
        return jaccard, support

    def _merged_items(self) -> Iterator[tuple[frozenset, tuple[float, int]]]:
        streams: list[Iterator[tuple[bytes, bytes]]] = [
            reader.entries() for reader in self._readers
        ]
        if self._hot:
            streams.append(iter(_sorted_rows(self._hot)))
        for key, value in merged_entries(streams, combine=combine_max_support):
            jaccard, support, _reports = decode_value(value)
            yield frozenset(decode_key(key)), (jaccard, support)

    def top_k(
        self, k: int = 10, min_support: int = 0
    ) -> list[tuple[frozenset, float, int]]:
        """The ``k`` strongest coefficients, identically ordered to the
        dict snapshot's (jaccard desc, support desc, tags lexically)."""
        with self._lock:
            return select_top_k(self._merged_items(), k, min_support)

    def digest(self) -> str:
        """Order-insensitive content hash — line-identical to the dict
        snapshot's over the same table."""
        with self._lock:
            lines = sorted(
                f"{','.join(sorted(tagset))}={jaccard!r}/{support}"
                for tagset, (jaccard, support) in self._merged_items()
            )
        hasher = hashlib.sha256()
        for line in lines:
            hasher.update(line.encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()


def _close_readers(readers: list) -> None:
    for reader in readers:
        try:
            reader.close()
        except Exception:
            pass

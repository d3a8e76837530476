"""The spilling counter store.

:class:`SpillingCounterStore` is a drop-in backing table for
:class:`repro.core.jaccard.SubsetCounter`: the same mapping surface a
``collections.Counter`` offers the report fold (``__getitem__``
returning 0 for absent keys, ``get``, ``items``, iteration, ``clear``),
but with bounded resident memory.  Observations accumulate in a *hot*
in-RAM ``Counter`` segment; once the hot segment reaches
``spill_threshold`` distinct keys it is frozen — sorted by encoded key and
written as one immutable run file (see :mod:`repro.store.format`) — and
the RAM is reclaimed.  Point lookups sum the hot segment with every live
run (through the shared mmap/LRU-block-cache read path).  A report or
drain fold, which looks up every lattice position of the round, instead
asks :meth:`SpillingCounterStore.window_lookup` for a lookup over the
whole window: every live run read once, block by block in file order, and
summed with the hot segment into a table private to that one fold call.
Runs are never merged on disk — they live until the round's ``clear()``.

Because counts are additive, the summed table is exactly the table a
plain ``Counter`` would hold — spill timing and run count are unobservable
in the reported coefficients (pinned by the spill ≡ dict equivalence
suite).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import weakref
from collections import Counter
from typing import Callable, Iterable, Iterator

from .config import DEFAULT_CACHE_BLOCKS, DEFAULT_SPILL_THRESHOLD, StoreConfig
from .format import (
    BlockCache,
    RunReader,
    decode_key,
    encode_key,
    merged_entries,
    write_run,
)

#: Names of the available counter stores (mirrored by
#: ``SystemConfig.counter_store`` and the CLI ``--counter-store`` flag).
COUNTER_STORES = ("dict", "spill")


class SpillingCounterStore:
    """Counter mapping that freezes cold segments into sorted run files."""

    def __init__(
        self,
        spill_dir: str | None = None,
        spill_threshold: int | None = None,
        *,
        block_size: int | None = None,
        cache_blocks: int | None = None,
        config: StoreConfig | None = None,
    ) -> None:
        config = (config or StoreConfig()).replacing(
            spill_dir=os.fspath(spill_dir) if spill_dir is not None else None,
            spill_threshold=spill_threshold,
            block_size=block_size,
            cache_blocks=cache_blocks,
        )
        self.config = config
        self._hot: Counter = Counter()
        self._runs: list[RunReader] = []
        self._cache = BlockCache(config.cache_blocks)
        self._dir: str | None = None
        self._finalizer = None
        self._sequence = 0
        self._stats = {
            "spilled_entries": 0,
            "runs_written": 0,
            "run_bytes_written": 0,
            "window_reads": 0,
            "window_read_seconds": 0.0,
            "window_entries_max": 0,
        }

    # ------------------------------------------------------------------ #
    # Directory lifecycle
    # ------------------------------------------------------------------ #
    def ensure_dir(self) -> str:
        """The store's private spill directory, created on first use.

        A fresh ``mkdtemp`` under ``spill_dir`` (or the system temp dir)
        per store instance, so the k Calculators of a run — across any
        number of worker processes — never collide.  Removed again by
        :meth:`close`, and by a GC finalizer as a backstop.
        """
        if self._dir is None:
            root = self.config.spill_dir
            if root is not None:
                os.makedirs(root, exist_ok=True)
            self._dir = tempfile.mkdtemp(prefix="repro-spill-", dir=root)
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
    def update(self, keys: Iterable[tuple[str, ...]]) -> None:
        """Count one occurrence of every key in ``keys`` (Counter.update)."""
        hot = self._hot
        hot.update(keys)
        if len(hot) >= self.config.spill_threshold:
            self.spill()

    def spill(self) -> None:
        """Freeze the hot segment into a sorted, published run file."""
        hot = self._hot
        if not hot:
            return
        rows = sorted((encode_key(key), count) for key, count in hot.items())
        result = write_run(
            self._next_path("run"), rows, block_size=self.config.block_size
        )
        self._runs.append(RunReader(result.path, self._cache))
        stats = self._stats
        stats["spilled_entries"] += result.entries
        stats["runs_written"] += 1
        stats["run_bytes_written"] += result.file_bytes
        hot.clear()

    def window_lookup(self) -> Callable[[tuple[str, ...]], int]:
        """The count lookup of one report or drain fold: every live run
        read once, in file order through the checked decoder, and summed
        with the hot segment by encoded key (counts are additive: no merge,
        no output file).  Only the returned closure holds the table, so no
        later fold, spill or clear can read a stale one; its one item per
        key is less than the fold's own list of one triple per key."""
        hot = self._hot
        if not self._runs:
            return hot.__getitem__
        started = time.perf_counter()
        table: dict[bytes, int] = dict(self._runs[0].entries())
        get = table.get
        for reader in self._runs[1:]:
            for key, count in reader.entries():
                table[key] = get(key, 0) + count
        for key, count in hot.items():
            encoded = encode_key(key)
            table[encoded] = get(encoded, 0) + count
        stats = self._stats
        stats["window_reads"] += 1
        stats["window_read_seconds"] += time.perf_counter() - started
        stats["window_entries_max"] = max(stats["window_entries_max"], len(table))
        return lambda key: get(encode_key(key), 0)

    def _sweep_run_files(self) -> None:
        """Delete every run artefact (``*.run``/``*.tmp``) in the dir."""
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
        """Drop all counts: hot segment and every spilled run file.

        Run files are removed eagerly (report rounds call this after every
        fold); stats and the spill directory itself survive for the next
        round.  Stray ``.tmp`` artefacts in the directory are swept too.
        """
        self._hot.clear()
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
    # Read path (the Counter-compatible mapping surface)
    # ------------------------------------------------------------------ #
    def __getitem__(self, key: tuple[str, ...]) -> int:
        total = self._hot.get(key, 0)
        runs = self._runs
        if runs:
            encoded = encode_key(key)
            for reader in runs:
                count = reader.get(encoded)
                if count is not None:
                    total += count
        return total

    def get(self, key: tuple[str, ...], default: int | None = None):
        total = self[key]
        if total:
            return total
        # Counts are strictly positive, so 0 means the key was never
        # observed — exactly when dict.get would fall back to the default.
        return default

    def __contains__(self, key: object) -> bool:
        return bool(self[key])  # type: ignore[index]

    def _merged_encoded(self) -> Iterator[tuple[bytes, int]]:
        streams: list[Iterator[tuple[bytes, int]]] = [
            reader.entries() for reader in self._runs
        ]
        hot = self._hot
        if hot:
            streams.append(iter(sorted(
                (encode_key(key), count) for key, count in hot.items()
            )))
        return merged_entries(streams)

    def items(self) -> Iterator[tuple[tuple[str, ...], int]]:
        """All ``(key, count)`` pairs, in encoded-key order.

        Deterministic regardless of spill timing: the same observations
        yield the same sequence whether they spilled into one run, many,
        or none at all.
        """
        if not self._runs:
            return iter(sorted(self._hot.items(), key=lambda kv: encode_key(kv[0])))
        return (
            (decode_key(key), count) for key, count in self._merged_encoded()
        )

    def keys(self) -> Iterator[tuple[str, ...]]:
        return (key for key, _count in self.items())

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return self.keys()

    def __len__(self) -> int:
        if not self._runs:
            return len(self._hot)
        return sum(1 for _ in self._merged_encoded())

    # ------------------------------------------------------------------ #
    # Stats and pickling
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, float]:
        """Cumulative spill/window-read accounting plus block-cache
        counters (``window_entries_max`` is a peak, not a sum)."""
        stats: dict[str, float] = dict(self._stats)
        cache = self._cache.stats()
        stats["block_cache_hits"] = cache["hits"]
        stats["block_cache_misses"] = cache["misses"]
        stats["block_cache_evictions"] = cache["evictions"]
        stats["runs_live"] = len(self._runs)
        stats["hot_entries"] = len(self._hot)
        return stats

    def __getstate__(self) -> dict:
        # Ship a *manifest* of published run files, never the decoded
        # tables: the receiving process re-opens the runs by path (same
        # host — the process executor's workers are forked siblings).
        return {
            "config": self.config,
            "hot": dict(self._hot),
            "manifest": [reader.path for reader in self._runs],
            "stats": dict(self._stats),
            # Cache *counters* cross the wire (they feed the driver's
            # aggregated RunReport.store_stats); cached blocks do not.
            "cache_counters": (
                self._cache.hits, self._cache.misses, self._cache.evictions
            ),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(config=state["config"])
        self._hot.update(state["hot"])
        self._stats.update(state["stats"])
        self._cache.hits, self._cache.misses, self._cache.evictions = (
            state["cache_counters"]
        )
        manifest = state["manifest"]
        if manifest:
            # Adopt the sender's directory (and its cleanup duty).
            self._dir = os.path.dirname(manifest[0])
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._dir, True
            )
            self._runs = [RunReader(path, self._cache) for path in manifest]

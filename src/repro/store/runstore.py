"""The run lifecycle both spilling stores share.

:class:`RunStore` owns everything about a spilling table that does not
depend on what its records mean: a private run directory, an in-RAM *hot*
segment that is frozen into a sorted, published RSC1 run once it reaches
``spill_threshold`` entries, the live runs (oldest first) read through one
LRU :class:`~repro.store.format.BlockCache`, the merged view of runs plus
hot rows, cleanup, accounting and the pickling rule.  A subclass supplies
only its record layout — :attr:`RunStore.raw_values`, the equal-key fold
:attr:`RunStore.combine` and how its hot segment becomes sorted rows — and
its own read surface:

* :class:`~repro.store.spill.SpillingCounterStore` — uvarint counts,
  summed; runs are never merged on disk;
* :class:`~repro.store.tracker.SpillingTrackerStore` — raw coefficient
  records folded by max support; compacts its runs into one with a single
  merge whenever ``merge_fan_in`` are live.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from typing import Iterator

from .config import DEFAULT_CACHE_BLOCKS, StoreConfig
from .format import BlockCache, RunReader, merged_entries, write_run


def merged_rows(readers: list[RunReader], hot_rows: list, combine=None) -> Iterator:
    """One sorted ``(encoded key, value)`` stream over ``readers`` (oldest
    first) and then ``hot_rows`` (already sorted), equal keys folded by
    ``combine`` in that order (``None`` sums counts)."""
    streams = [reader.entries() for reader in readers]
    if hot_rows:
        streams.append(iter(hot_rows))
    return merged_entries(streams, combine=combine)


class RunStore:
    """A hot segment plus sorted run files in a private directory."""

    #: ``mkdtemp`` prefix of the store's private run directory.
    prefix: str
    #: Whether runs carry raw byte values (else uvarint counts).
    raw_values = False
    #: Equal-key fold of the merged view, oldest value first (``None``
    #: sums counts).
    combine = None

    def __init__(self, config: StoreConfig, hot, stats: dict[str, float]) -> None:
        self.config = config
        self._hot = hot
        self._runs: list[RunReader] = []
        self._cache = BlockCache(DEFAULT_CACHE_BLOCKS)
        self._dir: str | None = None
        self._finalizer = None
        self._sequence = 0
        self._stats = {
            "spilled_entries": 0,
            "runs_written": 0,
            "run_bytes_written": 0,
            **stats,
        }

    def _hot_rows(self) -> list:
        """The hot segment as ``(encoded key, value)`` rows in key order."""
        raise NotImplementedError

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
            self._dir = tempfile.mkdtemp(prefix=self.prefix, dir=root)
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
    def spill(self) -> None:
        """Freeze the hot segment into a sorted, published run file."""
        hot = self._hot
        if not hot:
            return
        result = write_run(
            self._next_path("run"), self._hot_rows(),
            block_size=self.config.block_size, raw_values=self.raw_values,
        )
        self._runs.append(RunReader(result.path, self._cache))
        stats = self._stats
        stats["spilled_entries"] += result.entries
        stats["runs_written"] += 1
        stats["run_bytes_written"] += result.file_bytes
        hot.clear()

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
        """Drop every record: hot segment and every run file.

        Stats and the spill directory itself survive for the next round;
        stray ``.tmp`` artefacts in the directory are swept too.
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
    # Read path
    # ------------------------------------------------------------------ #
    def _merged_encoded(self) -> Iterator:
        """Every record as ``(encoded key, value)``, in key order: the
        runs oldest first, then the hot rows, folded by :attr:`combine`."""
        return merged_rows(self._runs, self._hot_rows(), self.combine)

    # ------------------------------------------------------------------ #
    # Stats and pickling
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, float]:
        """Cumulative spill accounting, the subclass's own counters and
        the block-cache counters, plus the live run and hot entry counts."""
        stats: dict[str, float] = dict(self._stats)
        cache = self._cache.stats()
        stats["block_cache_hits"] = cache["hits"]
        stats["block_cache_misses"] = cache["misses"]
        stats["block_cache_evictions"] = cache["evictions"]
        stats["runs_live"] = len(self._runs)
        stats["hot_entries"] = len(self._hot)
        return stats

    def __getstate__(self) -> dict:
        # Records never cross a process boundary: runs belong to the
        # directory of the process that wrote them, and a copy adopting
        # it would be a second owner.  An empty store ships its config and
        # its counters (they feed RunReport.store_stats across processes).
        if self._hot or self._runs:
            raise TypeError(
                f"{type(self).__name__} is not picklable while it holds "
                "records: its runs belong to the process that wrote them "
                "(close() it first, or copy its records out)"
            )
        return {
            "config": self.config,
            "stats": dict(self._stats),
            "cache_counters": (
                self._cache.hits, self._cache.misses, self._cache.evictions
            ),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(config=state["config"])
        self._stats.update(state["stats"])
        self._cache.hits, self._cache.misses, self._cache.evictions = (
            state["cache_counters"]
        )

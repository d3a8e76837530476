"""The Calculator's counter tables: in RAM, or spilling to sorted runs.

:func:`counter_table` is the one place a
:class:`repro.core.jaccard.JaccardCalculator`'s table is chosen: ``None``
gives the in-RAM :class:`DictCounterStore`, a :class:`StoreConfig` the
:class:`SpillingCounterStore`.  Both offer one surface — a
``collections.Counter``'s (``update``, ``__getitem__`` returning 0 for
absent keys, ``get``, ``items``, iteration, ``clear``) plus the report
fold's :meth:`~SpillingCounterStore.window_lookup`, ``stats()`` and
``close()`` — so the Calculator never asks which one it holds.

:class:`SpillingCounterStore` bounds resident memory.  It is a
:class:`~repro.store.runstore.RunStore` over count runs: observations
accumulate in a *hot* in-RAM ``Counter`` segment; once the hot segment
reaches ``spill_threshold`` distinct keys it is frozen — sorted by encoded
key and written as one immutable run file (see :mod:`repro.store.format`)
— and the RAM is reclaimed.  Point lookups sum the hot segment with every live
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

import time
from collections import Counter
from typing import Callable, Iterable, Iterator

from .config import DEFAULT_SPILL_THRESHOLD, StoreConfig  # noqa: F401 (re-export)
from .format import decode_key, encode_key
from .runstore import RunStore

#: Names of the available counter stores (mirrored by
#: ``SystemConfig.counter_store`` and the CLI ``--counter-store`` flag).
COUNTER_STORES = ("dict", "spill")


class DictCounterStore(Counter):
    """The in-RAM counter table: a plain ``Counter`` with the spill store's
    fold and lifecycle surface."""

    def window_lookup(self) -> Callable[[tuple[str, ...]], int]:
        """The count lookup of one fold: ``Counter.__getitem__`` (0 for an
        absent key)."""
        return self.__getitem__

    def stats(self) -> None:
        """No spill accounting for a table that never spills."""
        return None

    def close(self) -> None:
        """Drop every count (nothing else to release)."""
        self.clear()


def counter_table(
    store: StoreConfig | None,
) -> DictCounterStore | SpillingCounterStore:
    """A Calculator's counter table: in RAM (``None``) or spilling to runs
    under ``store``."""
    return DictCounterStore() if store is None else SpillingCounterStore(store)


class SpillingCounterStore(RunStore):
    """Counter mapping that freezes cold segments into sorted run files."""

    prefix = "repro-spill-"

    def __init__(self, config: StoreConfig) -> None:
        super().__init__(config, Counter(), {
            "window_reads": 0,
            "window_read_seconds": 0.0,
            "window_entries_max": 0,
        })

    def _hot_rows(self) -> list[tuple[bytes, int]]:
        return sorted((encode_key(key), count) for key, count in self._hot.items())

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #
    def update(self, keys: Iterable[tuple[str, ...]]) -> None:
        """Count one occurrence of every key in ``keys`` (Counter.update)."""
        hot = self._hot
        hot.update(keys)
        if len(hot) >= self.config.spill_threshold:
            self.spill()

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

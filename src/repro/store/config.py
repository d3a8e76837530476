"""Shared knobs for the out-of-core stores.

Both spilling stores — :class:`~repro.store.spill.SpillingCounterStore`
(Calculator window state) and :class:`~repro.store.tracker.SpillingTrackerStore`
(the Tracker's coefficient table) — freeze an in-RAM hot segment into sorted
RSC1 runs and answer reads from a merged view.  They share the exact same
tuning surface: where runs live, when to spill, how big a block is, how many
cache blocks to pin, and how merges fan in.  :class:`StoreConfig` is that
surface, extracted once so the two stores cannot drift apart one keyword
argument at a time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .format import DEFAULT_BLOCK_SIZE
from .merge import DEFAULT_MERGE_FAN_IN

#: Hot-segment entry count at which a store freezes a sorted run to disk.
DEFAULT_SPILL_THRESHOLD = 65536

#: Blocks pinned by a store's LRU block cache (per store instance).
DEFAULT_CACHE_BLOCKS = 512


@dataclass(frozen=True, slots=True)
class StoreConfig:
    """One bundle of spill/cache/merge knobs shared by the spilling stores.

    Parameters
    ----------
    spill_dir:
        Parent directory for the store's private run directory (``None`` →
        the system temp dir).
    spill_threshold:
        Hot-segment entry count that triggers a spill.
    block_size:
        Target uncompressed bytes per run-file block.
    cache_blocks:
        Capacity of the store's LRU block cache.
    merge_fan_in:
        Maximum runs merged per layer during compaction (the tracker store;
        the counter store never merges).
    """

    spill_dir: str | None = None
    spill_threshold: int = DEFAULT_SPILL_THRESHOLD
    block_size: int = DEFAULT_BLOCK_SIZE
    cache_blocks: int = DEFAULT_CACHE_BLOCKS
    merge_fan_in: int = DEFAULT_MERGE_FAN_IN

    def __post_init__(self) -> None:
        if self.spill_threshold < 1:
            raise ValueError("spill_threshold must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.cache_blocks < 1:
            raise ValueError("cache_blocks must be >= 1")
        if self.merge_fan_in < 2:
            raise ValueError("merge_fan_in must be >= 2")

    def replacing(self, **overrides: object) -> "StoreConfig":
        """A copy with every non-``None`` override applied.

        ``None`` means "keep mine", so call sites can forward optional
        keyword arguments straight through without an `if` per knob.
        """
        updates = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **updates) if updates else self

"""Shared knobs for the out-of-core stores.

Both spilling stores — :class:`~repro.store.spill.SpillingCounterStore`
(Calculator window state) and :class:`~repro.store.tracker.SpillingTrackerStore`
(the Tracker's coefficient table) — are :class:`~repro.store.runstore.RunStore`
subclasses: one run lifecycle that freezes an in-RAM hot segment into sorted
RSC1 runs and answers reads from a merged view.  :class:`StoreConfig` is that
lifecycle's tuning surface: where runs live, when to spill, how big a block
is, and at how many live runs the tracker store compacts.  It is also the
handle that selects a spilling table:
:func:`~repro.store.counter_table` and :func:`~repro.store.tracker_table`
(and the Calculator and Tracker that call them) take ``StoreConfig | None``,
where ``None`` means the in-RAM table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .format import DEFAULT_BLOCK_SIZE

#: Hot-segment entry count at which a store freezes a sorted run to disk.
DEFAULT_SPILL_THRESHOLD = 65536

#: Blocks pinned by a store's LRU block cache (per store instance).
DEFAULT_CACHE_BLOCKS = 512

#: Live runs at which the tracker store compacts them into one.
DEFAULT_MERGE_FAN_IN = 8


@dataclass(frozen=True, slots=True)
class StoreConfig:
    """One bundle of spill/cache/compaction knobs shared by the run stores.

    Parameters
    ----------
    spill_dir:
        Parent directory for the store's private run directory (``None`` →
        the system temp dir).
    spill_threshold:
        Hot-segment entry count that triggers a spill.
    block_size:
        Target uncompressed bytes per run-file block.
    merge_fan_in:
        Live runs at which the tracker store compacts them into one (the
        counter store never merges).
    """

    spill_dir: str | None = None
    spill_threshold: int = DEFAULT_SPILL_THRESHOLD
    block_size: int = DEFAULT_BLOCK_SIZE
    merge_fan_in: int = DEFAULT_MERGE_FAN_IN

    def __post_init__(self) -> None:
        if self.spill_threshold < 1:
            raise ValueError("spill_threshold must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.merge_fan_in < 2:
            raise ValueError("merge_fan_in must be >= 2")

"""Out-of-core storage: spill-to-disk sorted runs, read back in batches.

The ``repro.store`` subsystem bounds resident memory for the two tables
that otherwise scale with stream length:

* :class:`repro.core.jaccard.SubsetCounter`'s window counts, via
  ``SystemConfig(counter_store="spill")``, and
* :class:`repro.operators.tracker.TrackerBolt`'s coefficient table, via
  ``SystemConfig(tracker_store="spill")``.

Modules:

* :mod:`repro.store.format` — the versioned on-disk run format (blocked,
  key-prefix-compressed entries + an in-RAM lexicon/fence-pointer index),
  its atomic writer, the mmap/LRU-block-cache read path and the k-way
  merge (:func:`merged_entries`, :func:`merge_runs`) with a pluggable,
  order-preserving value combiner.  Runs carry either uvarint counts (the
  default) or opaque raw byte values (:data:`FLAG_RAW_VALUES` — the
  tracker's coefficient records),
* :mod:`repro.store.config` — :class:`StoreConfig`, the one bundle of
  spill/cache/compaction knobs both spilling stores share,
* :mod:`repro.store.runstore` — :class:`RunStore`, the one run lifecycle
  (directory, hot segment → sorted run, merged view, cleanup, stats,
  pickling rule) both spilling stores subclass,
* :mod:`repro.store.spill` — :class:`SpillingCounterStore` (the
  Counter-compatible mapping the report fold reads in one pass),
* :mod:`repro.store.tracker` — :class:`SpillingTrackerStore` (the
  Tracker's dedup table as runs, max-support rule as merge combiner,
  compacted by one merge whenever ``merge_fan_in`` runs are live) and
  :class:`RunBackedTrackerSnapshot` (service mode's copy-free snapshot);
  also home of :func:`select_top_k`, the one ``top_k`` ordering rule both
  snapshot kinds answer with.

See docs/ARCHITECTURE.md "Counter store" for the design.
"""

from .config import (
    DEFAULT_CACHE_BLOCKS,
    DEFAULT_MERGE_FAN_IN,
    DEFAULT_SPILL_THRESHOLD,
    StoreConfig,
)
from .format import (
    DEFAULT_BLOCK_SIZE,
    FLAG_RAW_VALUES,
    FORMAT_VERSION,
    BlockCache,
    RunFormatError,
    RunReader,
    RunWriteResult,
    decode_key,
    encode_key,
    merge_runs,
    merged_entries,
    write_run,
)
from .runstore import RunStore
from .spill import COUNTER_STORES, SpillingCounterStore
from .tracker import (
    TRACKER_STORES,
    RunBackedTrackerSnapshot,
    SpillingTrackerStore,
    combine_max_support,
    select_top_k,
    tagset_key,
)

__all__ = [
    "BlockCache",
    "COUNTER_STORES",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CACHE_BLOCKS",
    "DEFAULT_MERGE_FAN_IN",
    "DEFAULT_SPILL_THRESHOLD",
    "FLAG_RAW_VALUES",
    "FORMAT_VERSION",
    "RunBackedTrackerSnapshot",
    "RunFormatError",
    "RunReader",
    "RunStore",
    "RunWriteResult",
    "SpillingCounterStore",
    "SpillingTrackerStore",
    "StoreConfig",
    "TRACKER_STORES",
    "combine_max_support",
    "decode_key",
    "encode_key",
    "merge_runs",
    "merged_entries",
    "select_top_k",
    "tagset_key",
    "write_run",
]

"""The pipeline's two tables, in RAM or spilled to sorted runs on disk.

The ``repro.store`` subsystem owns the two tables that otherwise scale with
stream length, and the one seam that picks how each is stored:

* :func:`counter_table` — a :class:`repro.core.jaccard.JaccardCalculator`'s
  window counts: :class:`DictCounterStore` or :class:`SpillingCounterStore`,
* :func:`tracker_table` — a :class:`repro.operators.tracker.TrackerBolt`'s
  coefficient table: :class:`DictTrackerStore` or
  :class:`SpillingTrackerStore`.

Each takes a ``StoreConfig | None`` handle — ``None`` for the in-RAM table —
that :class:`repro.pipeline.system.TagCorrelationSystem` builds once from
``SystemConfig(counter_store=..., tracker_store=...)``; nothing below the
pipeline reads a store name.  The two tables of a kind share one interface,
so their owners never ask which one they hold.

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
* :mod:`repro.store.spill` — :func:`counter_table`,
  :class:`DictCounterStore` and :class:`SpillingCounterStore` (the
  Counter-compatible mapping the report fold reads in one pass),
* :mod:`repro.store.tracker` — :func:`tracker_table`,
  :class:`DictTrackerStore` (with its layered :class:`TrackerSnapshot`)
  and :class:`SpillingTrackerStore` (the Tracker's dedup table as runs,
  max-support rule as merge combiner, compacted by one merge whenever
  ``merge_fan_in`` runs are live, with :class:`RunBackedTrackerSnapshot`,
  service mode's copy-free snapshot); also home of :func:`select_top_k`,
  the one ``top_k`` ordering rule both snapshot kinds answer with.

See docs/ARCHITECTURE.md "Storage seam" and "Counter store" for the design.
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
from .spill import (
    COUNTER_STORES,
    DictCounterStore,
    SpillingCounterStore,
    counter_table,
)
from .tracker import (
    TRACKER_STORES,
    DictTrackerStore,
    RunBackedTrackerSnapshot,
    SpillingTrackerStore,
    TrackerSnapshot,
    combine_max_support,
    select_top_k,
    tagset_key,
    tracker_table,
)

__all__ = [
    "BlockCache",
    "COUNTER_STORES",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CACHE_BLOCKS",
    "DEFAULT_MERGE_FAN_IN",
    "DEFAULT_SPILL_THRESHOLD",
    "DictCounterStore",
    "DictTrackerStore",
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
    "TrackerSnapshot",
    "combine_max_support",
    "counter_table",
    "decode_key",
    "encode_key",
    "merge_runs",
    "merged_entries",
    "select_top_k",
    "tagset_key",
    "tracker_table",
    "write_run",
]

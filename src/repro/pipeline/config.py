"""Configuration of the end-to-end tag-correlation system.

Groups the experiment parameters of Section 8.1 (``k``, ``P``, ``thr``,
``tps``) with the operational constants of Section 8.2 (single-addition
threshold ``sn = 3``, quality statistics every 1000 notified tagsets,
5-minute report interval and 5-minute partitioning windows), scaled through
a single place so that benchmarks can shrink the workload while keeping the
paper's ratios.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any

from ..core.jaccard import DEFAULT_SUBSET_CACHE_SIZE
from ..store import COUNTER_STORES, DEFAULT_SPILL_THRESHOLD, TRACKER_STORES
from ..core.partition import PartitionSeed
from ..operators.controller import REPARTITION_POLICIES
from ..streamsim.executors import EXECUTOR_NAMES
from ..workloads.generator import SCENARIO_NAMES

#: Auto-sized process executors never spawn more workers than this: beyond a
#: handful of shards the Disseminator-side driver loop, not the Calculator
#: layer, is the bottleneck (see docs/PERFORMANCE.md).
MAX_AUTO_WORKERS = 4

#: Default values taken verbatim from Section 8.2.
PAPER_DEFAULTS = {
    "k": 10,
    "n_partitioners": 10,
    "repartition_threshold": 0.5,
    "tweets_per_second": 1300.0,
    "single_addition_threshold": 3,
    "quality_check_interval": 1000,
    "report_interval_seconds": 300.0,
    "window_seconds": 300.0,
}


@dataclass(slots=True)
class SystemConfig:
    """All knobs of the distributed tag-correlation pipeline."""

    algorithm: str = "DS"
    k: int = 10
    n_partitioners: int = 10
    repartition_threshold: float = 0.5
    #: How the Disseminator's controller decides to ask for a full swap:
    #: ``"threshold"`` is the paper's either-or quality rule (avgCom or
    #: maxLoad degraded by more than ``thr``); ``"capacity"`` triggers on
    #: the combined per-document update cost of ``analysis.capacity``
    #: degrading by more than ``thr``; ``"fixed"`` swaps at the document
    #: counts of ``repartition_at``; ``"never"`` disables swaps (Single
    #: Additions still apply).
    repartition_policy: str = "threshold"
    #: Document counts at which the ``"fixed"`` policy forces a swap.
    repartition_at: tuple[int, ...] = ()
    #: What happens to Calculator state when a new partition map arrives
    #: mid-stream: ``"none"`` installs the map immediately and keeps the
    #: counters (the legacy behaviour); ``"migrate"`` runs the coordinated
    #: quiesce → migrate → install handoff (the counters are reported to
    #: the Tracker and reset, so post-swap state matches a fresh start
    #: under the new map).
    repartition_handoff: str = "none"
    #: Optional pre-installed partition map: the run starts with this
    #: assignment (epoch 0) instead of bootstrapping one, exactly as a run
    #: resumed after a migration would.  Used by the splice-equivalence
    #: suites.
    initial_partitions: PartitionSeed | None = None
    single_addition_threshold: int = 3
    quality_check_interval: int = 1000
    report_interval_seconds: float = 300.0
    window_mode: str = "count"
    window_size: float = 5000
    bootstrap_documents: int = 1000
    max_tags_per_document: int = 12
    include_centralized_baseline: bool = True
    algorithm_options: dict[str, Any] = field(default_factory=dict)

    #: Calculator mode: ``"exact"`` uses the paper's subset counters,
    #: ``"sketch"`` the MinHash/Count-Min approximate tracking mode.
    calculator: str = "exact"
    #: Capacity of each exact Calculator's LRU cache of tagset →
    #: subset-tuple enumerations (repeated trending tagsets skip
    #: ``itertools.combinations`` re-enumeration).
    subset_cache_size: int = DEFAULT_SUBSET_CACHE_SIZE
    #: Backing table of each exact Calculator's subset counters:
    #: ``"dict"`` (default) keeps everything in RAM; ``"spill"`` freezes
    #: cold segments into sorted on-disk run files and merges them at
    #: report/drain time, bounding resident memory by ``spill_threshold``
    #: instead of window size.  Bit-identical coefficients either way —
    #: see docs/ARCHITECTURE.md "Counter store".
    counter_store: str = "dict"
    #: Root directory for spilled run files (``None`` = the system temp
    #: dir); each Calculator creates a private subdirectory beneath it.
    #: Only consulted when ``counter_store="spill"``.
    spill_dir: str | None = None
    #: Distinct hot keys per Calculator at which a segment is frozen to
    #: disk (the resident-memory bound of the spill store).
    spill_threshold: int = DEFAULT_SPILL_THRESHOLD
    #: Backing table of the Tracker's coefficient dedup table: ``"dict"``
    #: (default) retains every reported tagset's winner in RAM forever;
    #: ``"spill"`` freezes cold entries into sorted run files with the
    #: max-support dedup rule as the merge combiner, bounding resident
    #: coefficient entries by ``tracker_spill_threshold``.  Bit-identical
    #: coefficients, supports and duplicate accounting either way.
    tracker_store: str = "dict"
    #: Resident coefficient entries at which the tracker store spills
    #: (``None`` = inherit ``spill_threshold``).  Only consulted when
    #: ``tracker_store="spill"``.
    tracker_spill_threshold: int | None = None
    #: Coefficient triples per COEFFICIENTS emission and per drained
    #: shipment chunk: ``0`` (default) ships each report round / drain as
    #: one monolithic list; a positive value slices them into bounded
    #: chunks end-to-end (Calculator emit → executor drain protocol),
    #: capping the peak triple-list footprint.  Purely physical — the
    #: Tracker ingests the same triples in the same order either way.
    report_chunk_size: int = 0
    #: Routed tagsets per notification micro-batch (1 = unbatched legacy
    #: behaviour: one message per routed tagset per Calculator).
    notification_batch_size: int = 64
    #: Messages per routed link batch of the substrate (the unit one
    #: grouping call, one accounting update and one ``execute_batch``
    #: delivery covers): ``0`` = unlimited (one batch per run of
    #: same-stream emissions of a component invocation, the default),
    #: ``1`` = per-message delivery (the pre-slot-tuple wire cadence).
    #: Purely physical — logical metrics are identical at every setting.
    link_batch_size: int = 0
    #: MinHash signature width of the sketch mode (standard error of each
    #: Jaccard estimate is roughly ``1/sqrt(minhash_permutations)``).
    minhash_permutations: int = 512
    #: Seed of the shared MinHash permutation family.
    minhash_seed: int = 1
    #: Count-Min parameters for the sketch mode's support counts.
    countmin_epsilon: float = 0.002
    countmin_delta: float = 0.01
    #: Largest tag-combination size the sketch mode reports (the
    #: centralised baseline's cap).
    sketch_max_subset_size: int = 4

    #: Which workload scenario produced the document stream this run
    #: consumes (``workloads.SCENARIO_NAMES``), or ``None`` when unknown
    #: (externally supplied documents).  Pure provenance metadata: it does
    #: not change pipeline behaviour, but is stamped into
    #: ``RunReport.workload_scenario`` so bench cells, traces and
    #: equivalence fixtures stay attributable to their workload shape.
    scenario: str | None = None

    #: Execution engine: ``"inline"`` runs the whole topology depth-first in
    #: this process; ``"process"`` shards the Calculator layer across
    #: ``multiprocessing`` workers (identical logical metrics, see
    #: docs/PERFORMANCE.md for when it pays off); ``"service"`` feeds the
    #: same depth-first loop from a bounded cross-thread ingest queue — the
    #: always-on engine behind ``repro.service`` (identical logical metrics
    #: to inline over the same document sequence, pinned by the batch≡served
    #: equivalence suite).
    executor: str = "inline"
    #: Worker processes of the process executor; ``0`` = auto (one per CPU
    #: core, capped at :data:`MAX_AUTO_WORKERS`).  Ignored in inline mode.
    workers: int = 0
    #: Bound of the service executor's ingest queue, in *batches*: a
    #: non-blocking submit against a full queue is refused with a
    #: ``backpressure`` error instead of buffering unboundedly.  Ignored by
    #: the other executors.
    service_queue_limit: int = 8

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.n_partitioners < 1:
            raise ValueError("n_partitioners must be at least 1")
        if self.window_mode not in ("count", "time"):
            raise ValueError("window_mode must be 'count' or 'time'")
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if self.bootstrap_documents < 1:
            raise ValueError("bootstrap_documents must be at least 1")
        if self.repartition_threshold < 0:
            raise ValueError("repartition_threshold must be non-negative")
        if self.repartition_policy not in REPARTITION_POLICIES:
            raise ValueError(
                "repartition_policy must be one of "
                f"{', '.join(REPARTITION_POLICIES)}"
            )
        if any(point < 1 for point in self.repartition_at):
            raise ValueError("repartition_at points must be positive document counts")
        if self.repartition_at and self.repartition_policy != "fixed":
            raise ValueError(
                "repartition_at requires repartition_policy='fixed'"
            )
        if self.repartition_handoff not in ("none", "migrate"):
            raise ValueError("repartition_handoff must be 'none' or 'migrate'")
        if self.initial_partitions is not None and self.initial_partitions.k != self.k:
            raise ValueError(
                f"initial_partitions has {self.initial_partitions.k} partitions "
                f"but k={self.k}"
            )
        if self.calculator not in ("exact", "sketch"):
            raise ValueError("calculator must be 'exact' or 'sketch'")
        if self.subset_cache_size < 1:
            raise ValueError("subset_cache_size must be at least 1")
        if self.counter_store not in COUNTER_STORES:
            raise ValueError(
                f"counter_store must be one of {', '.join(COUNTER_STORES)}"
            )
        if self.spill_threshold < 1:
            raise ValueError("spill_threshold must be at least 1")
        if self.tracker_store not in TRACKER_STORES:
            raise ValueError(
                f"tracker_store must be one of {', '.join(TRACKER_STORES)}"
            )
        if (
            self.tracker_spill_threshold is not None
            and self.tracker_spill_threshold < 1
        ):
            raise ValueError("tracker_spill_threshold must be at least 1")
        if self.report_chunk_size < 0:
            raise ValueError(
                "report_chunk_size must be non-negative (0 = unchunked)"
            )
        if self.notification_batch_size < 1:
            raise ValueError("notification_batch_size must be at least 1")
        if self.link_batch_size < 0:
            raise ValueError("link_batch_size must be non-negative (0 = unlimited)")
        if self.minhash_permutations < 8:
            raise ValueError("minhash_permutations must be at least 8")
        if not 0.0 < self.countmin_epsilon < 1.0:
            raise ValueError("countmin_epsilon must be in (0, 1)")
        if not 0.0 < self.countmin_delta < 1.0:
            raise ValueError("countmin_delta must be in (0, 1)")
        if self.sketch_max_subset_size < 2:
            raise ValueError("sketch_max_subset_size must be at least 2")
        if self.scenario is not None and self.scenario not in SCENARIO_NAMES:
            raise ValueError(
                f"scenario must be one of {', '.join(SCENARIO_NAMES)} (or None)"
            )
        if self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"executor must be one of {', '.join(EXECUTOR_NAMES)}"
            )
        if self.workers < 0:
            raise ValueError("workers must be non-negative (0 = auto)")
        if self.service_queue_limit < 1:
            raise ValueError("service_queue_limit must be at least 1")

    def resolved_workers(self) -> int:
        """Worker-process count of the process executor (resolves 0 = auto)."""
        if self.workers > 0:
            return self.workers
        return max(1, min(MAX_AUTO_WORKERS, os.cpu_count() or 1))

    def resolved_tracker_spill_threshold(self) -> int:
        """The tracker store's spill threshold (``None`` = inherit the
        Calculators' ``spill_threshold``)."""
        if self.tracker_spill_threshold is not None:
            return self.tracker_spill_threshold
        return self.spill_threshold

    def with_overrides(self, **overrides: Any) -> "SystemConfig":
        """A copy of the config with the given fields replaced."""
        return replace(self, **overrides)

    @classmethod
    def paper_defaults(cls, algorithm: str = "DS", **overrides: Any) -> "SystemConfig":
        """The default configuration of Section 8.2 (P=10, k=10, thr=0.5)."""
        config = cls(
            algorithm=algorithm,
            k=PAPER_DEFAULTS["k"],
            n_partitioners=PAPER_DEFAULTS["n_partitioners"],
            repartition_threshold=PAPER_DEFAULTS["repartition_threshold"],
            single_addition_threshold=PAPER_DEFAULTS["single_addition_threshold"],
            quality_check_interval=PAPER_DEFAULTS["quality_check_interval"],
            report_interval_seconds=PAPER_DEFAULTS["report_interval_seconds"],
        )
        return config.with_overrides(**overrides) if overrides else config

    @classmethod
    def scaled_down(
        cls,
        algorithm: str = "DS",
        scale: float = 0.02,
        **overrides: Any,
    ) -> "SystemConfig":
        """A laptop-scale configuration preserving the paper's ratios.

        ``scale`` shrinks the window size, bootstrap budget and quality-check
        interval together, so repartition cadence relative to the stream
        length stays comparable to the full-scale setup.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        window_documents = max(200, int(390_000 * scale))  # 5 min at 1300 tps
        config = cls(
            algorithm=algorithm,
            window_mode="count",
            window_size=window_documents,
            bootstrap_documents=max(100, int(window_documents * 0.4)),
            quality_check_interval=max(50, int(1000 * scale * 10)),
        )
        return config.with_overrides(**overrides) if overrides else config

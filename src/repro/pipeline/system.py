"""The end-to-end tag-correlation system: topology assembly and run reports.

:class:`TagCorrelationSystem` wires the Figure-2 topology on top of the
stream-processing substrate, runs it over a stream of documents and collects
every metric of the paper's evaluation into a :class:`RunReport`:

* Communication — average notifications per routed tagset (Section 8.2.1),
* Processing load — per-Calculator notification counts, their Gini
  coefficient and the maximum share (Section 8.2.2),
* Jaccard accuracy — coverage and mean error against the centralised exact
  baseline for tagsets seen more than ``sn`` times (Section 8.2.3),
* Repartitions — count and trigger breakdown (Section 8.2.4),
* Quality over time — snapshots of communication and load between
  repartitions (Section 8.2.5),
* Batching — physical notification messages and the amortization factor of
  the batched Disseminator→Calculator engine,
* Sketch accuracy — MinHash/Count-Min parameters and tracked-key counts
  when the approximate tracking mode (``calculator="sketch"``) is active,
* Execution engine — which executor ran the topology (``executor_mode``)
  and how many worker processes the Calculator layer was sharded over
  (``executor_workers``); logical metrics are executor-independent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.documents import Document
from ..core.jaccard import DEFAULT_SUBSET_CACHE_SIZE
from ..core.metrics import (
    JaccardErrorReport,
    gini_coefficient,
    jaccard_error,
    max_load_share,
)
from ..operators import (
    BaseCalculatorBolt,
    CalculatorBolt,
    CentralizedCalculatorBolt,
    DisseminatorBolt,
    DocumentSpout,
    MergerBolt,
    MigrationRecord,
    ParserBolt,
    PartitionInstall,
    PartitionerBolt,
    QualitySnapshot,
    RepartitionEvent,
    ServiceSpout,
    SketchCalculatorBolt,
    TrackerBolt,
)
from ..operators import streams
from ..partitioning import make_partitioner
from ..store import StoreConfig
from ..streamsim import (
    AsyncServiceExecutor,
    Cluster,
    Executor,
    ShardedProcessExecutor,
    TopologyBuilder,
    make_executor,
)
from ..streamsim.gcpolicy import gc_policy
from .config import SystemConfig


@dataclass(frozen=True)
class ExactCalculatorFactory:
    """Picklable factory for exact-mode Calculators.

    The process executor pickles the remote layer's factories into its
    workers, so the Calculator factory cannot be a closure; a frozen
    dataclass carrying the constructor arguments is importable and
    picklable from any process.
    """

    report_interval: float = 300.0
    max_tags_per_document: int = 12
    subset_cache_size: int = DEFAULT_SUBSET_CACHE_SIZE
    counter_store: str = "dict"
    spill_dir: str | None = None
    spill_threshold: int | None = None
    report_chunk_size: int = 0

    def __call__(self) -> CalculatorBolt:
        return CalculatorBolt(
            report_interval=self.report_interval,
            max_tags_per_document=self.max_tags_per_document,
            subset_cache_size=self.subset_cache_size,
            counter_store=self.counter_store,
            spill_dir=self.spill_dir,
            spill_threshold=self.spill_threshold,
            report_chunk_size=self.report_chunk_size,
        )


@dataclass(frozen=True)
class SketchCalculatorFactory:
    """Picklable factory for sketch-mode Calculators (see above)."""

    report_interval: float = 300.0
    max_tags_per_document: int = 12
    num_perm: int = 512
    seed: int = 1
    countmin_epsilon: float = 0.002
    countmin_delta: float = 0.01
    max_subset_size: int = 4
    report_chunk_size: int = 0

    def __call__(self) -> SketchCalculatorBolt:
        return SketchCalculatorBolt(
            report_interval=self.report_interval,
            max_tags_per_document=self.max_tags_per_document,
            num_perm=self.num_perm,
            seed=self.seed,
            countmin_epsilon=self.countmin_epsilon,
            countmin_delta=self.countmin_delta,
            max_subset_size=self.max_subset_size,
            report_chunk_size=self.report_chunk_size,
        )


@dataclass(slots=True)
class RunReport:
    """All evaluation metrics of one run of the system."""

    algorithm: str
    config: SystemConfig
    documents_processed: int
    tagged_documents: int

    communication_avg: float
    calculator_loads: list[int]
    load_gini: float
    load_max_share: float

    n_repartitions: int
    repartition_reasons: dict[str, int]
    single_addition_requests: int
    single_additions_applied: int

    coefficients_reported: int
    duplicate_reports: int
    jaccard: JaccardErrorReport | None
    history: list[QualitySnapshot] = field(default_factory=list)
    repartition_events: list[RepartitionEvent] = field(default_factory=list)
    #: Every partition map installed over the run (epoch, seed values and
    #: whether a coordinated state migration preceded the install).
    partition_installs: list[PartitionInstall] = field(default_factory=list)
    #: Coordinated state-migration handoffs (committed and aborted), with
    #: per-handoff migrated-triple counts and wall-clock stall.
    migrations: list[MigrationRecord] = field(default_factory=list)
    #: Aggregate migration accounting (None when no handoff ran):
    #: ``handoffs``, ``aborted``, ``migrated_triples``, ``stall_seconds``.
    migration_stats: dict[str, float] | None = None
    #: Error descriptions of aborted migrations (old map stayed in force).
    migration_failures: list[str] = field(default_factory=list)

    #: Which workload scenario produced the consumed document stream
    #: (``SystemConfig.scenario`` provenance; None when unknown).
    workload_scenario: str | None = None
    #: Which Calculator implementation ran: "exact" or "sketch".
    calculator_mode: str = "exact"
    #: Physical batched notification tuples shipped Disseminator→Calculators.
    notification_messages: int = 0
    #: Logical notifications per physical message (≥ 1; the batching win).
    batch_amortization: float = 1.0
    #: Sketch-mode accuracy/size figures (None in exact mode): MinHash width,
    #: the per-estimate standard error bound and the tracked-key count.
    sketch_stats: dict[str, float] | None = None
    #: Which execution engine ran the topology: "inline" or "process".
    executor_mode: str = "inline"
    #: Worker processes the Calculator layer was sharded over (1 in
    #: inline mode).
    executor_workers: int = 1
    #: Aggregate hit/miss/eviction accounting of the exact Calculators'
    #: subset-tuple LRU caches (None in sketch mode).
    subset_cache_stats: dict[str, int] | None = None
    #: Which backing table the exact Calculators counted into: "dict"
    #: (all-RAM, the default) or "spill" (out-of-core run files — see
    #: docs/ARCHITECTURE.md "Counter store").  Logical metrics are
    #: store-independent.
    counter_store: str = "dict"
    #: Aggregate spill-store accounting across exact Calculators (None
    #: under the dict store): spilled entries/runs/bytes, window reads
    #: (count, wall-clock, largest window table — a max, the rest are
    #: sums) and block-cache hits/misses/evictions.
    #: Wall-clock content — like ``timings``, informational only and
    #: excluded from the logical-equivalence contract.
    store_stats: dict[str, float] | None = None
    #: Which backing table the Tracker deduplicated into: "dict" (all-RAM,
    #: the default) or "spill" (out-of-core run files with the max-support
    #: rule as merge combiner).  Logical metrics are store-independent.
    tracker_store: str = "dict"
    #: The tracker spill store's accounting (None under the dict store):
    #: spilled entries/runs/bytes, compactions, membership probes (keys
    #: resolved against runs at batch start) and block-cache counters.
    #: Wall-clock content — informational only, excluded from the
    #: logical-equivalence contract.
    tracker_store_stats: dict[str, float] | None = None
    #: In-stream report-round attribution, aggregated over Calculators:
    #: ``rounds`` executed, their total wall-clock ``report_seconds`` and
    #: the ``dirty_types`` (type lattices) they folded.  Wall-clock
    #: content, so — like ``timings`` — informational only and excluded
    #: from the logical-equivalence contract (None without Calculators).
    report_round_stats: dict[str, float] | None = None
    #: Cyclic-GC passes per generation (young, middle, full) while
    #: the run held the scoped GC policy — stream and reporting phases, in
    #: the driver and in the process executor's workers.  Depends on the
    #: interpreter's allocation pattern, so — like ``timings`` —
    #: informational only and excluded from the logical-equivalence contract.
    gc_passes: list[int] = field(default_factory=lambda: [0, 0, 0])
    #: Wall-clock phase breakdown of this run (seconds): "build" (topology
    #: assembly), "stream" (cluster execution) and "reporting" (final drain
    #: + metric collection); "gc" is the part of stream + reporting this
    #: process spent paused in the cyclic GC and "gc_workers" the same
    #: summed over the process executor's workers (parallel to the driver,
    #: so not a share of its wall-clock), "workers_busy" the seconds those
    #: workers spent handling requests (summed likewise) and "remote_tail"
    #: the part of "stream" between the last spout call and the end of the
    #: workers' finalisation (both 0.0 without workers).  Informational
    #: only — excluded from the logical-equivalence contract, unlike every
    #: field above.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def jaccard_coverage(self) -> float:
        """Fraction of qualifying tagsets that received some coefficient."""
        return self.jaccard.coverage if self.jaccard is not None else 1.0

    @property
    def jaccard_mean_error(self) -> float:
        return self.jaccard.mean_absolute_error if self.jaccard is not None else 0.0

    def summary(self) -> dict[str, float]:
        """Compact numeric summary used by benchmarks and examples."""
        return {
            "communication": self.communication_avg,
            "load_gini": self.load_gini,
            "load_max_share": self.load_max_share,
            "repartitions": float(self.n_repartitions),
            "jaccard_error": self.jaccard_mean_error,
            "jaccard_coverage": self.jaccard_coverage,
            "single_additions": float(self.single_additions_applied),
            "notification_messages": float(self.notification_messages),
            "batch_amortization": self.batch_amortization,
        }


class TagCorrelationSystem:
    """Builds and runs the distributed tag-correlation topology."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self.config.validate()
        self._cluster: Cluster | None = None

    # ------------------------------------------------------------------ #
    # Topology assembly
    # ------------------------------------------------------------------ #
    def build_cluster(self, documents: Iterable[Document] = ()) -> Cluster:
        """Assemble the Figure-2 topology over the given document stream.

        In service mode (``executor="service"``) the spout pulls from the
        executor's ingest queue instead of ``documents`` — pass documents
        via ``AsyncServiceExecutor.submit`` (or just call :meth:`run`,
        which submits and drains for you).
        """
        config = self.config
        executor = self._build_executor()
        builder = TopologyBuilder()

        # Declare the slot layout of every Figure-2 stream up front: the
        # interned schemas are the wire format (positional emission, slot
        # tuples) and let the builder validate fields groupings against the
        # declared fields.
        for schema in (
            streams.TWEETS,
            streams.TAGSETS,
            streams.PARTIAL_PARTITIONS,
            streams.PARTITIONS,
            streams.SINGLE_ADDITIONS,
            streams.MISSING_TAGSETS,
            streams.REPARTITION_REQUESTS,
            streams.NOTIFICATIONS,
            streams.COEFFICIENTS,
        ):
            builder.stream(schema)

        if isinstance(executor, AsyncServiceExecutor):
            builder.set_spout(streams.SOURCE, lambda: ServiceSpout(executor))
        else:
            builder.set_spout(streams.SOURCE, lambda: DocumentSpout(documents))

        builder.set_bolt(
            streams.PARSER,
            lambda: ParserBolt(config.max_tags_per_document),
        ).shuffle_grouping(streams.SOURCE, streams.TWEETS)

        builder.set_bolt(
            streams.PARTITIONER,
            lambda: PartitionerBolt(
                algorithm=make_partitioner(config.algorithm, **config.algorithm_options),
                k=config.k,
                window_mode=config.window_mode,
                window_size=config.window_size,
                approximate_counts=config.calculator == "sketch",
                countmin_epsilon=config.countmin_epsilon,
                countmin_delta=config.countmin_delta,
            ),
            parallelism=config.n_partitioners,
        ).fields_grouping(streams.PARSER, ["tagset"], streams.TAGSETS).all_grouping(
            streams.DISSEMINATOR, streams.REPARTITION_REQUESTS
        )

        builder.set_bolt(
            streams.MERGER,
            lambda: MergerBolt(
                algorithm=make_partitioner(config.algorithm, **config.algorithm_options),
                k=config.k,
                initial_partitions=config.initial_partitions,
            ),
            parallelism=1,
        ).shuffle_grouping(streams.PARTITIONER, streams.PARTIAL_PARTITIONS).shuffle_grouping(
            streams.DISSEMINATOR, streams.MISSING_TAGSETS
        )

        builder.set_bolt(
            streams.DISSEMINATOR,
            lambda: DisseminatorBolt(
                k=config.k,
                repartition_threshold=config.repartition_threshold,
                single_addition_threshold=config.single_addition_threshold,
                quality_check_interval=config.quality_check_interval,
                bootstrap_documents=config.bootstrap_documents,
                notification_batch_size=config.notification_batch_size,
                repartition_policy=config.repartition_policy,
                repartition_at=config.repartition_at,
                repartition_handoff=config.repartition_handoff,
                initial_partitions=config.initial_partitions,
            ),
        ).shuffle_grouping(streams.PARSER, streams.TAGSETS).all_grouping(
            streams.MERGER, streams.PARTITIONS
        ).all_grouping(streams.MERGER, streams.SINGLE_ADDITIONS)

        builder.set_bolt(
            streams.CALCULATOR,
            self._calculator_factory(),
            parallelism=config.k,
        ).direct_grouping(streams.DISSEMINATOR, streams.NOTIFICATIONS)

        # A driver-side bolt under every executor (the process executor
        # relays the Calculators' report batches to it): its table — and its
        # spill store, when enabled — never crosses a pipe.
        builder.set_bolt(
            streams.TRACKER, self._tracker, parallelism=1
        ).shuffle_grouping(streams.CALCULATOR, streams.COEFFICIENTS)

        if config.include_centralized_baseline:
            builder.set_bolt(
                streams.CENTRALIZED,
                lambda: CentralizedCalculatorBolt(
                    min_occurrences=config.single_addition_threshold
                ),
                parallelism=1,
            ).shuffle_grouping(streams.PARSER, streams.TAGSETS)

        return Cluster(
            builder.build(),
            executor=executor,
            link_batch_size=config.link_batch_size,
        )

    def _calculator_factory(self):
        """Factory for the configured Calculator mode (exact or sketch).

        Returns a picklable factory object (not a closure): the process
        executor ships it into worker processes.
        """
        config = self.config
        if config.calculator == "sketch":
            return SketchCalculatorFactory(
                report_interval=config.report_interval_seconds,
                max_tags_per_document=config.max_tags_per_document,
                num_perm=config.minhash_permutations,
                seed=config.minhash_seed,
                countmin_epsilon=config.countmin_epsilon,
                countmin_delta=config.countmin_delta,
                max_subset_size=config.sketch_max_subset_size,
            )
        return ExactCalculatorFactory(
            report_interval=config.report_interval_seconds,
            max_tags_per_document=config.max_tags_per_document,
            subset_cache_size=config.subset_cache_size,
            counter_store=config.counter_store,
            spill_dir=config.spill_dir,
            spill_threshold=config.spill_threshold,
            report_chunk_size=config.report_chunk_size,
        )

    def _tracker(self) -> TrackerBolt:
        config = self.config
        if config.tracker_store == "dict":
            return TrackerBolt()
        return TrackerBolt(
            tracker_store=config.tracker_store,
            store_config=StoreConfig().replacing(
                spill_dir=config.spill_dir,
                spill_threshold=config.resolved_tracker_spill_threshold(),
            ),
        )

    def _build_executor(self) -> Executor:
        """The execution engine selected by ``SystemConfig.executor``.

        In process mode the Calculators are sharded across workers; every
        upstream operator and the Tracker — the terminal consumer their
        report batches are relayed to — stay in the driver.
        """
        return make_executor(
            self.config.executor,
            workers=self.config.resolved_workers(),
            remote_components=(streams.CALCULATOR,),
            queue_limit=self.config.service_queue_limit,
            drain_chunk_size=self.config.report_chunk_size,
        )

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(self, documents: Sequence[Document] | Iterable[Document]) -> RunReport:
        """Run the topology over the documents and gather the run report.

        ``RunReport.timings`` records the wall-clock phase breakdown
        (build / stream / reporting) consumed by the throughput harness.
        """
        t0 = time.perf_counter()
        cluster = self.build_cluster(documents)
        t1 = time.perf_counter()
        executor = cluster.executor
        if isinstance(executor, AsyncServiceExecutor):
            # Served-batch compatibility: queue the whole stream as one
            # batch and drain immediately, so a plain run() under
            # executor="service" is the single-writer loop over the same
            # document sequence a batch run would consume.
            executor.submit(documents)
            executor.request_drain()
        cluster.run()
        t2 = time.perf_counter()
        self._cluster = cluster
        report = self._collect_report(cluster)
        t3 = time.perf_counter()
        report.timings.update({
            "build": t1 - t0,
            "stream": t2 - t1,
            "reporting": t3 - t2,
            # Wall-clock the stream phase spent inside coordinated state
            # handoffs (quiesce → migrate → install); 0.0 without any.
            # A subset of "stream", reported separately so the perf
            # harness can attribute it.
            "migration_stall": cluster.migration_stall_seconds,
        })
        return report

    @property
    def cluster(self) -> Cluster | None:
        """The last executed cluster (for inspection in tests and examples)."""
        return self._cluster

    def collect_report(self, cluster: Cluster) -> RunReport:
        """Collect the :class:`RunReport` of an externally driven cluster.

        The service daemon's path: it builds the cluster itself, drives it
        on a writer thread and — once the drain has finished — collects the
        final report here, exactly as :meth:`run` would have.  The cluster
        must be fully drained (``cluster.run()`` returned) before calling.
        """
        self._cluster = cluster
        return self._collect_report(cluster)

    # ------------------------------------------------------------------ #
    # Metric collection
    # ------------------------------------------------------------------ #
    def _collect_report(self, cluster: Cluster) -> RunReport:
        # The end-of-stream drain, its Tracker ingest and the baseline's
        # ground truth allocate as much as the stream did: same GC policy.
        with gc_policy(cluster.gc_tally):
            report = self._gather_report(cluster)
        # Read once the scope has closed, so the reporting phase's own
        # passes are in the figures.
        report.gc_passes = [
            driver + workers
            for driver, workers in zip(
                cluster.gc_tally.passes, cluster.worker_gc_tally.passes
            )
        ]
        report.timings["gc"] = cluster.gc_tally.pause_seconds
        report.timings["gc_workers"] = cluster.worker_gc_tally.pause_seconds
        report.timings["workers_busy"] = cluster.executor.workers_busy_seconds
        report.timings["remote_tail"] = cluster.executor.remote_tail_seconds
        return report

    def _gather_report(self, cluster: Cluster) -> RunReport:
        config = self.config
        parsers = [
            bolt for bolt in cluster.instances_of(streams.PARSER)
            if isinstance(bolt, ParserBolt)
        ]
        disseminators = [
            bolt
            for bolt in cluster.instances_of(streams.DISSEMINATOR)
            if isinstance(bolt, DisseminatorBolt)
        ]
        calculators = [
            bolt
            for bolt in cluster.instances_of(streams.CALCULATOR)
            if isinstance(bolt, BaseCalculatorBolt)
        ]
        trackers = [
            bolt for bolt in cluster.instances_of(streams.TRACKER)
            if isinstance(bolt, TrackerBolt)
        ]
        mergers = [
            bolt for bolt in cluster.instances_of(streams.MERGER)
            if isinstance(bolt, MergerBolt)
        ]
        tracker = trackers[0]

        # Final flush: counters still held by Calculators are reported to
        # the Tracker directly (the simulated clock stops with the stream).
        # With the process executor the drain already ran inside the worker
        # shards — the shipped result lists are replayed here in driver task
        # order, which is exactly the inline drain order.  Tracked-key
        # counts must be sampled before a drain resets them; worker-drained
        # runs shipped the pre-drain sample alongside the results.
        predrained = cluster.executor.drained_results()
        sketch_tracked_total = 0
        for bolt in calculators:
            if not isinstance(bolt, SketchCalculatorBolt):
                continue
            drained = predrained.get(bolt.task_id)
            if drained is not None and drained[1] is not None:
                sketch_tracked_total += drained[1]
            else:
                sketch_tracked_total += bolt.estimator.tracked_tagsets
        for calculator in calculators:
            drained = predrained.get(calculator.task_id)
            tracker.ingest(
                drained[0] if drained is not None
                else calculator.drain_payload()
            )

        notifications = 0
        routed = 0
        unrouted = 0
        notification_messages = 0
        loads = [0] * config.k
        repartition_events: list[RepartitionEvent] = []
        history: list[QualitySnapshot] = []
        partition_installs: list[PartitionInstall] = []
        migrations: list[MigrationRecord] = []
        single_addition_requests = 0
        for disseminator in disseminators:
            metrics = disseminator.metrics
            notifications += metrics.communication.notifications
            routed += metrics.communication.routed_tagsets
            unrouted += metrics.unrouted_tagsets
            notification_messages += metrics.notification_messages
            for index, load in enumerate(metrics.load.loads(config.k)):
                loads[index] += load
            repartition_events.extend(metrics.repartitions)
            history.extend(metrics.history)
            partition_installs.extend(metrics.installs)
            migrations.extend(metrics.migrations)
            single_addition_requests += metrics.single_addition_requests
        repartition_events.sort(key=lambda event: event.documents_processed)
        history.sort(key=lambda snapshot: snapshot.documents_processed)
        partition_installs.sort(key=lambda install: install.documents_processed)
        migrations.sort(key=lambda record: record.documents_processed)

        migration_stats: dict[str, float] | None = None
        if migrations:
            migration_stats = {
                "handoffs": float(len(migrations)),
                "aborted": float(sum(1 for m in migrations if m.aborted)),
                "migrated_triples": float(
                    sum(m.migrated_triples for m in migrations)
                ),
                "stall_seconds": sum(m.stall_seconds for m in migrations),
            }

        communication_avg = notifications / routed if routed else 0.0
        reasons: dict[str, int] = {}
        for event in repartition_events:
            reasons[event.reason] = reasons.get(event.reason, 0) + 1

        jaccard_report = self._jaccard_report(cluster, tracker)

        batch_amortization = (
            notifications / notification_messages if notification_messages else 1.0
        )
        sketch_stats: dict[str, float] | None = None
        sketch_calculators = [
            bolt for bolt in calculators if isinstance(bolt, SketchCalculatorBolt)
        ]
        if config.calculator == "sketch" and sketch_calculators:
            sketch_stats = {
                "minhash_permutations": float(config.minhash_permutations),
                "estimate_stddev_bound": sketch_calculators[0].estimator.error_bound,
                "countmin_epsilon": config.countmin_epsilon,
                "tracked_tagsets": float(sketch_tracked_total),
            }

        subset_cache_stats: dict[str, int] | None = None
        exact_calculators = [
            bolt for bolt in calculators if isinstance(bolt, CalculatorBolt)
        ]
        if exact_calculators:
            subset_cache_stats = {"hits": 0, "misses": 0, "evictions": 0}
            for bolt in exact_calculators:
                stats = bolt.calculator.cache_stats
                for key in subset_cache_stats:
                    subset_cache_stats[key] += stats[key]

        store_stats: dict[str, float] | None = None
        if config.counter_store == "spill" and exact_calculators:
            store_stats = {}
            for bolt in exact_calculators:
                per_bolt = bolt.calculator.store_stats
                if per_bolt is None:
                    continue
                for key, value in per_bolt.items():
                    previous = store_stats.get(key, 0)
                    store_stats[key] = (
                        max(previous, value) if key.endswith("_max")
                        else previous + value
                    )

        tracker_store_stats: dict[str, float] | None = None
        if config.tracker_store == "spill":
            tracker_store_stats = tracker.store_stats()

        report_round_stats: dict[str, float] | None = None
        if calculators:
            report_round_stats = {
                "rounds": float(sum(b.report_rounds for b in calculators)),
                "report_seconds": sum(b.report_seconds for b in calculators),
                "dirty_types": float(sum(
                    b.types_folded for b in exact_calculators
                )),
            }

        return RunReport(
            algorithm=config.algorithm,
            config=config,
            documents_processed=sum(
                spout.emitted for spout in cluster.instances_of(streams.SOURCE)  # type: ignore[attr-defined]
            ),
            tagged_documents=sum(parser.parsed for parser in parsers),
            communication_avg=communication_avg,
            calculator_loads=loads,
            load_gini=gini_coefficient(loads),
            load_max_share=max_load_share(loads),
            n_repartitions=len(repartition_events),
            repartition_reasons=reasons,
            single_addition_requests=single_addition_requests,
            single_additions_applied=sum(m.single_additions for m in mergers),
            coefficients_reported=len(tracker),
            duplicate_reports=tracker.duplicate_reports,
            jaccard=jaccard_report,
            history=history,
            repartition_events=repartition_events,
            partition_installs=partition_installs,
            migrations=migrations,
            migration_stats=migration_stats,
            migration_failures=list(cluster.migration_failures),
            workload_scenario=config.scenario,
            calculator_mode=config.calculator,
            notification_messages=notification_messages,
            batch_amortization=batch_amortization,
            sketch_stats=sketch_stats,
            executor_mode=config.executor,
            executor_workers=(
                cluster.executor.effective_workers
                if isinstance(cluster.executor, ShardedProcessExecutor)
                else 1
            ),
            subset_cache_stats=subset_cache_stats,
            counter_store=config.counter_store,
            store_stats=store_stats,
            tracker_store=config.tracker_store,
            tracker_store_stats=tracker_store_stats,
            report_round_stats=report_round_stats,
        )

    def _jaccard_report(
        self, cluster: Cluster, tracker: TrackerBolt
    ) -> JaccardErrorReport | None:
        if not self.config.include_centralized_baseline:
            return None
        baselines = [
            bolt
            for bolt in cluster.instances_of(streams.CENTRALIZED)
            if isinstance(bolt, CentralizedCalculatorBolt)
        ]
        if not baselines:
            return None
        ground_truth = baselines[0].ground_truth()
        # The lazy view probes the Tracker's dedup table in place — no dict
        # copy of tens of thousands of coefficients per error report.
        return jaccard_error(tracker.coefficient_view(), ground_truth)


def run_system(
    documents: Sequence[Document] | Iterable[Document],
    config: SystemConfig | None = None,
) -> RunReport:
    """One-shot helper: build, run and report."""
    return TagCorrelationSystem(config).run(documents)

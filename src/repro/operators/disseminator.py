"""The Disseminator bolt: routes tagsets to Calculators and monitors quality.

The Disseminator keeps the inverted index from tags to Calculators built
from the partitions it receives from the Merger (Section 3.3).  For every
parsed tagset it notifies each Calculator that owns at least one of the
tags, sending it exactly the subset of tags it owns (Section 6.2).

It is also the control centre of the dynamics of Section 7, with the
decision logic factored into :class:`~repro.operators.controller.\
RepartitionController`:

* tagsets not covered by any Calculator are counted; after ``sn``
  occurrences the Merger is asked to perform a *Single Addition*;
* rolling statistics over every ``z`` routed tagsets estimate the current
  average communication ``avgCom'`` and maximum load ``maxLoad'``; the
  configured policy (``threshold``, ``fixed`` or ``never``)
  decides when to request a repartition from the Partitioners;
* all routing decisions are also accumulated into experiment-level metrics
  (total communication, per-Calculator loads, repartition log, quality time
  series) that the pipeline reads after the run.

Live repartitioning
-------------------
With ``repartition_handoff="none"`` (the historical behaviour) a new
assignment from the Merger is installed immediately: routing switches but
the Calculators keep whatever counts they accumulated under the old map.
With ``repartition_handoff="migrate"`` the Disseminator instead *stages*
the assignment and asks the cluster for a coordinated handoff at the next
quiescent point: pending notification micro-batches are flushed under the
old map, every Calculator's counted state is drained (two-phase: a
side-effect-free *prepare* computing the payload, then a *commit* shipping
it to the Tracker and resetting the counters), and only then is the staged
assignment installed and the stream resumed — no notification is lost or
duplicated, and a failed prepare aborts the whole handoff with the old map
intact.  The handoff needs the Calculators in the driver process, so it
runs under the inline and service executors only.
:meth:`DisseminatorBolt.commit_staged` / :meth:`abort_staged` are the
cluster coordinator's callbacks; each outcome is recorded as a
:class:`MigrationRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.metrics import CommunicationTracker, LoadTracker, gini_coefficient
from ..core.partition import PartitionAssignment, PartitionSeed
from ..streamsim.components import Bolt
from ..streamsim.tuples import TupleMessage
from .controller import (
    REASON_BOTH,
    REASON_COMMUNICATION,
    REASON_LOAD,
    RepartitionController,
)
from .streams import (
    CALCULATOR,
    MISSING_TAGSETS,
    NOTIFICATIONS,
    PARTITIONS,
    REPARTITION_REQUESTS,
    SINGLE_ADDITIONS,
    TAGSETS,
)

__all__ = [
    "DisseminatorBolt",
    "DisseminatorMetrics",
    "MigrationRecord",
    "PartitionInstall",
    "QualitySnapshot",
    "RepartitionEvent",
    "StagedRepartition",
    "REASON_BOOTSTRAP",
    "REASON_BOTH",
    "REASON_COMMUNICATION",
    "REASON_FORCED",
    "REASON_LOAD",
]

#: Reasons a repartition can be triggered for (Figure 6's breakdown).  The
#: quality-driven reasons live in :mod:`.controller`; these two are the
#: Disseminator's own (the initial map, and the ``fixed`` policy's
#: scheduled swaps).
REASON_BOOTSTRAP = "bootstrap"
REASON_FORCED = "forced"

#: Routed tagsets per notification micro-batch.  Purely physical: the
#: logical notification count (communication, Section 8) and every Calculator
#: load are the same at any batch size; ``RunReport.batch_amortization``
#: reports the resulting notifications-per-message ratio.
NOTIFICATION_BATCH_SIZE = 64


@dataclass(slots=True)
class QualitySnapshot:
    """One point of the partition-quality time series (Figures 8 and 9)."""

    documents_processed: int
    timestamp: float
    avg_communication: float
    calculator_loads: tuple[int, ...]
    repartition_reason: str | None = None

    @property
    def load_gini(self) -> float:
        return gini_coefficient(self.calculator_loads)


@dataclass(slots=True)
class RepartitionEvent:
    """A repartition request issued by the Disseminator."""

    documents_processed: int
    timestamp: float
    reason: str


@dataclass(slots=True)
class PartitionInstall:
    """A completed assignment install (bootstrap, swap or seeded start).

    Records everything needed to resume a run from this point: the
    installed map with its loads and the reference quality adopted by the
    controller.  :meth:`seed` turns the record into the
    :class:`~repro.core.partition.PartitionSeed` a fresh run passes as
    ``SystemConfig.initial_partitions`` — the splice-equivalence suites
    rely on the round trip being lossless.
    """

    epoch: int
    documents_processed: int
    timestamp: float
    tag_sets: tuple[frozenset[str], ...]
    loads: tuple[int, ...]
    avg_com: float
    max_load: float
    via_migration: bool = False

    def seed(self) -> PartitionSeed:
        return PartitionSeed(
            tag_sets=self.tag_sets,
            loads=self.loads,
            avg_com=self.avg_com,
            max_load=self.max_load,
        )


@dataclass(slots=True)
class MigrationRecord:
    """Outcome of one coordinated state handoff (committed or aborted)."""

    epoch: int
    documents_processed: int
    timestamp: float
    migrated_triples: int
    stall_seconds: float
    aborted: bool = False
    error: str | None = None


@dataclass(slots=True)
class StagedRepartition:
    """An assignment parked between Merger delivery and handoff commit."""

    epoch: int
    tag_sets: tuple[frozenset[str], ...]
    loads: tuple[int, ...]
    avg_com: float | None
    max_load: float | None
    timestamp: float


@dataclass(slots=True)
class DisseminatorMetrics:
    """Experiment-level counters exposed to the pipeline after a run.

    ``communication`` counts *logical* notifications (one per routed tagset
    per Calculator, the paper's Section 8.2.1 metric) and is independent of
    the physical batching; ``notification_messages`` counts the batched
    tuples actually shipped to Calculators, so their ratio is the batching
    amortization factor.
    """

    communication: CommunicationTracker = field(default_factory=CommunicationTracker)
    load: LoadTracker = field(default_factory=LoadTracker)
    unrouted_tagsets: int = 0
    notified_tagsets: int = 0
    notification_messages: int = 0
    repartitions: list[RepartitionEvent] = field(default_factory=list)
    history: list[QualitySnapshot] = field(default_factory=list)
    single_addition_requests: int = 0
    installs: list[PartitionInstall] = field(default_factory=list)
    migrations: list[MigrationRecord] = field(default_factory=list)


class DisseminatorBolt(Bolt):
    """Routes tagsets, requests single additions and repartitions."""

    def __init__(
        self,
        k: int,
        repartition_threshold: float = 0.5,
        single_addition_threshold: int = 3,
        quality_check_interval: int = 1000,
        bootstrap_documents: int = 1000,
        repartition_policy: str = "threshold",
        repartition_at: tuple[int, ...] = (),
        repartition_handoff: str = "none",
        initial_partitions: PartitionSeed | None = None,
    ) -> None:
        super().__init__()
        if repartition_handoff not in ("none", "migrate"):
            raise ValueError(
                "repartition_handoff must be 'none' or 'migrate', "
                f"got {repartition_handoff!r}"
            )
        self.k = k
        self.controller = RepartitionController(
            k=k,
            policy=repartition_policy,
            threshold=repartition_threshold,
            single_addition_threshold=single_addition_threshold,
            quality_check_interval=quality_check_interval,
            forced_points=tuple(repartition_at),
        )
        self.bootstrap_documents = bootstrap_documents
        self.repartition_handoff = repartition_handoff
        self.metrics = DisseminatorMetrics()

        # Pending notification batches, one list of routed tagsets per
        # Calculator task.  Flushed every :data:`NOTIFICATION_BATCH_SIZE`
        # routed tagsets, on every simulated-clock tick (bounded staleness)
        # and at end of stream.
        self._pending: dict[int, list[frozenset[str]]] = {}
        self._pending_tagsets = 0
        self._pending_timestamp = 0.0

        self._assignment: PartitionAssignment | None = None
        self._calculator_tasks: list[int] = []
        self._documents_seen = 0
        self._epoch = 0
        self._installed_epoch = -1
        self._awaiting_partitions = False
        self._staged: StagedRepartition | None = None
        if initial_partitions is not None:
            self._seed_initial(initial_partitions)

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def on_prepare(self) -> None:
        assert self.context is not None
        try:
            self._calculator_tasks = self.context.task_ids(CALCULATOR)
        except KeyError:
            self._calculator_tasks = []

    @property
    def assignment(self) -> PartitionAssignment | None:
        """The currently installed partition assignment (None before bootstrap)."""
        return self._assignment

    @property
    def staged_handoff(self) -> StagedRepartition | None:
        """The assignment awaiting a coordinated handoff, if any."""
        return self._staged

    def _seed_initial(self, seed: PartitionSeed) -> None:
        """Start under a known assignment instead of bootstrapping one.

        Installs the seed as epoch 0 before any document arrives, adopting
        its recorded quality as the controller reference — exactly what a
        completed handoff at document 0 would have produced.  Bootstrap
        never fires (an assignment is present from the first tagset).
        """
        self._assignment = seed.build_assignment()
        self._installed_epoch = 0
        self.controller.set_reference(seed.avg_com, seed.max_load)
        self._record_install(epoch=0, timestamp=0.0, via_migration=False)
        self._record_snapshot(0.0, reason=None)

    # ------------------------------------------------------------------ #
    # Tuple handling
    # ------------------------------------------------------------------ #
    def execute(self, message: TupleMessage) -> None:
        schema = message.schema
        if schema is TAGSETS:
            self._handle_tagset(message)
        elif schema is PARTITIONS:
            self._install_partitions(message)
        elif schema is SINGLE_ADDITIONS:
            self._apply_single_addition(message)

    def execute_batch(self, messages) -> None:
        """Parser→Disseminator link batches are almost always tagsets."""
        handle = self._handle_tagset
        for message in messages:
            if message.schema is TAGSETS:
                handle(message)
            else:
                self.execute(message)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _handle_tagset(self, message: TupleMessage) -> None:
        self._documents_seen += 1
        # TAGSETS slot layout: (doc_id, timestamp, tagset).
        _doc_id, timestamp, tagset = message.values
        if timestamp is None:
            timestamp = 0.0

        if self._assignment is None:
            self.metrics.unrouted_tagsets += 1
            self._maybe_bootstrap(timestamp)
            self._maybe_forced_swap(timestamp)
            return

        routes, covered = self._assignment.route_and_covered(tagset)
        if not covered:
            self._register_missing(tagset, timestamp)
        if not routes:
            self.metrics.unrouted_tagsets += 1
            self.metrics.communication.record(0)
            self._maybe_forced_swap(timestamp)
            return

        for partition_index, tags in routes.items():
            task_id = self._task_for_partition(partition_index)
            if task_id is None:
                continue
            self._pending.setdefault(task_id, []).append(tags)
        self._pending_tagsets += 1
        self._pending_timestamp = timestamp
        if self._pending_tagsets >= NOTIFICATION_BATCH_SIZE:
            self._flush_notifications()
        n_notifications = len(routes)
        self.metrics.notified_tagsets += 1
        self.metrics.communication.record(n_notifications)
        for partition_index in routes:
            self.metrics.load.record(partition_index)
        self.controller.record_route(n_notifications, routes)
        self._maybe_check_quality(timestamp)
        self._maybe_forced_swap(timestamp)

    def _flush_notifications(self) -> None:
        """Ship one batched notification tuple per Calculator with pending work."""
        if not self._pending:
            self._pending_tagsets = 0
            return
        timestamp = self._pending_timestamp
        for task_id, entries in self._pending.items():
            if entries:
                self.emit_direct(task_id, NOTIFICATIONS, entries, timestamp)
                self.metrics.notification_messages += 1
        self._pending = {}
        self._pending_tagsets = 0

    def tick(self, simulation_time: float) -> None:
        # Time-based flush bounds notification staleness to one tick even
        # when the stream is slower than the micro-batch size.
        self._flush_notifications()

    def flush(self) -> None:
        """End-of-stream hook: deliver the final partial micro-batch."""
        self._flush_notifications()

    def _task_for_partition(self, partition_index: int) -> int | None:
        if not self._calculator_tasks:
            return None
        if partition_index >= len(self._calculator_tasks):
            # More partitions than Calculators should not happen; route
            # modulo so the document is not lost, which mirrors Storm's
            # behaviour of hashing onto the available tasks.
            partition_index %= len(self._calculator_tasks)
        return self._calculator_tasks[partition_index]

    # ------------------------------------------------------------------ #
    # Partitions and single additions
    # ------------------------------------------------------------------ #
    def _install_partitions(self, message: TupleMessage) -> None:
        # PARTITIONS slot layout:
        # (epoch, tag_sets, loads, avg_com, max_load, timestamp).
        epoch, tag_sets, loads, avg_com, max_load, timestamp = message.values
        epoch = 0 if epoch is None else epoch
        if epoch <= self._installed_epoch:
            return
        if self._staged is not None and epoch <= self._staged.epoch:
            return
        if loads is None:
            loads = [0] * len(tag_sets)
        if self.repartition_handoff == "migrate" and self._assignment is not None:
            # Stage the assignment and hand control to the cluster: the
            # actual install happens in commit_staged() once every
            # Calculator's state has been drained.  Our own contribution to
            # the quiesce goes first — pending notification micro-batches
            # belong to the old map and must reach their Calculators before
            # any state moves.
            self._staged = StagedRepartition(
                epoch=epoch,
                tag_sets=tuple(frozenset(tags) for tags in tag_sets),
                loads=tuple(int(load) for load in loads),
                avg_com=avg_com,
                max_load=max_load,
                timestamp=0.0 if timestamp is None else timestamp,
            )
            self._flush_notifications()
            assert self.context is not None
            self.context.request_handoff(self.task_id, (CALCULATOR,))
            return
        self._apply_install(
            epoch, tag_sets, loads, avg_com, max_load,
            0.0 if timestamp is None else timestamp, via_migration=False,
        )

    def _apply_install(
        self,
        epoch: int,
        tag_sets,
        loads,
        avg_com: float | None,
        max_load: float | None,
        timestamp: float,
        via_migration: bool,
    ) -> None:
        partitions = PartitionAssignment.from_tag_sets(tag_sets)
        for partition, load in zip(partitions, loads):
            partition.load = int(load)
        self._assignment = partitions
        self._installed_epoch = epoch
        self._awaiting_partitions = False
        self.controller.set_reference(avg_com, max_load)
        self._record_install(epoch, timestamp, via_migration)
        self._record_snapshot(timestamp, reason=None)

    def _record_install(
        self, epoch: int, timestamp: float, via_migration: bool
    ) -> None:
        assert self._assignment is not None
        self.metrics.installs.append(
            PartitionInstall(
                epoch=epoch,
                documents_processed=self._documents_seen,
                timestamp=timestamp,
                tag_sets=tuple(
                    frozenset(tags) for tags in self._assignment.as_tag_sets()
                ),
                loads=tuple(self._assignment.loads()),
                avg_com=self.controller.reference_avg_com,
                max_load=self.controller.reference_max_load,
                via_migration=via_migration,
            )
        )

    # ------------------------------------------------------------------ #
    # Handoff callbacks (cluster coordinator)
    # ------------------------------------------------------------------ #
    def commit_staged(self, migrated_triples: int, stall_seconds: float) -> None:
        """Install the staged assignment after a successful state handoff."""
        staged = self._staged
        assert staged is not None, "commit_staged without a staged assignment"
        self._staged = None
        self._apply_install(
            staged.epoch, staged.tag_sets, staged.loads,
            staged.avg_com, staged.max_load, staged.timestamp,
            via_migration=True,
        )
        self.metrics.migrations.append(
            MigrationRecord(
                epoch=staged.epoch,
                documents_processed=self._documents_seen,
                timestamp=staged.timestamp,
                migrated_triples=migrated_triples,
                stall_seconds=stall_seconds,
            )
        )

    def abort_staged(self, error: str, stall_seconds: float = 0.0) -> None:
        """Drop the staged assignment after a failed handoff.

        The old assignment stays installed and routing continues as if the
        repartition had never been requested; the failure is recorded for
        ``RunReport.migration_failures``.  The request flag is cleared so
        the controller may ask again on a later window.
        """
        staged = self._staged
        assert staged is not None, "abort_staged without a staged assignment"
        self._staged = None
        self._awaiting_partitions = False
        self.metrics.migrations.append(
            MigrationRecord(
                epoch=staged.epoch,
                documents_processed=self._documents_seen,
                timestamp=staged.timestamp,
                migrated_triples=0,
                stall_seconds=stall_seconds,
                aborted=True,
                error=error,
            )
        )

    def _apply_single_addition(self, message: TupleMessage) -> None:
        if self._assignment is None:
            return
        # SINGLE_ADDITIONS slot layout: (tagset, partition_index, timestamp).
        raw_tagset, partition_index, _ = message.values
        tagset = frozenset(raw_tagset)
        index = int(partition_index)
        if index < self._assignment.k:
            self._assignment.add_tagset(index, tagset)
        self.controller.addition_applied(tagset)

    def _register_missing(self, tagset: frozenset[str], timestamp: float) -> None:
        count = self.controller.record_missing(tagset)
        if count is not None:
            self.metrics.single_addition_requests += 1
            self.emit(MISSING_TAGSETS, tagset, count, timestamp)

    # ------------------------------------------------------------------ #
    # Quality monitoring (Section 7.2)
    # ------------------------------------------------------------------ #
    def _maybe_bootstrap(self, timestamp: float) -> None:
        if self._awaiting_partitions:
            return
        if self._documents_seen >= self.bootstrap_documents:
            self._request_repartition(REASON_BOOTSTRAP, timestamp)

    def _maybe_check_quality(self, timestamp: float) -> None:
        if self._awaiting_partitions:
            return
        controller = self.controller
        if not controller.window_ready():
            return
        reason = controller.evaluate_window()
        self._record_snapshot(timestamp, reason=reason)
        if reason is not None:
            self._request_repartition(reason, timestamp)
        controller.reset_window()

    def _maybe_forced_swap(self, timestamp: float) -> None:
        """Fire a scheduled swap of the ``fixed`` policy when one is due.

        Called once per tagset on every path, so schedule points are
        consumed at the document that crosses them regardless of routing
        outcome — a point crossed before bootstrap (or while a request is
        in flight) is dropped, never deferred.
        """
        if self.controller.forced_swap_due(
            self._documents_seen,
            self._assignment is not None,
            self._awaiting_partitions,
        ):
            self._request_repartition(REASON_FORCED, timestamp)

    def _request_repartition(self, reason: str, timestamp: float) -> None:
        self._epoch += 1
        self._awaiting_partitions = True
        if reason != REASON_BOOTSTRAP:
            self.metrics.repartitions.append(
                RepartitionEvent(
                    documents_processed=self._documents_seen,
                    timestamp=timestamp,
                    reason=reason,
                )
            )
        self.emit(REPARTITION_REQUESTS, self._epoch, reason, timestamp)

    def _record_snapshot(self, timestamp: float, reason: str | None) -> None:
        controller = self.controller
        self.metrics.history.append(
            QualitySnapshot(
                documents_processed=self._documents_seen,
                timestamp=timestamp,
                avg_communication=controller.rolling_com.average,
                calculator_loads=tuple(controller.rolling_load.loads(self.k)),
                repartition_reason=reason,
            )
        )

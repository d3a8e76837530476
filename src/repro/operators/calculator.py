"""The Calculator bolt: counts tagset notifications and reports coefficients.

Calculators are oblivious to the tags they own (Section 6.2): whatever
subsets the Disseminator sends them, they count.  Every received
notification ``{t_1, ..., t_n}`` increments the counters of *all* subsets of
the notification; every ``report_interval`` simulated seconds the maximum
possible number of Jaccard coefficients is computed from the counters, the
results are emitted to the Tracker and the counters are deleted.

Notifications arrive as ``NOTIFICATIONS`` slot tuples — ``(batch,
timestamp)`` where ``batch`` is the list of routed tagsets of one
Disseminator micro-batch.  :class:`CalculatorBolt` unpacks the batches
(overriding :meth:`~repro.streamsim.components.Bolt.execute_batch` to
amortise per-message dispatch over whole link batches) into the paper's
exact subset counters (:class:`~repro.core.jaccard.JaccardCalculator`) and
drives the periodic reporting.
"""

from __future__ import annotations

import time

from ..core.jaccard import (
    DEFAULT_SUBSET_CACHE_SIZE,
    JaccardCalculator,
    JaccardResult,
)
from ..store import StoreConfig
from ..streamsim.components import Bolt
from ..streamsim.tuples import TupleMessage
from .streams import COEFFICIENTS, NOTIFICATIONS


class CalculatorBolt(Bolt):
    """Subset counters and inclusion–exclusion (Equation 2).

    Report rounds recover union sizes with one subset-lattice fold per
    distinct observed tagset type; ``subset_cache_size`` bounds the LRU
    cache of subset enumerations shared by the observe and report paths
    (see :mod:`repro.core.jaccard`).  Report triples carry the sorted tag
    tuple in their tagset slot.  ``store`` is the counter table's spill
    configuration (``None``: the in-RAM table).
    """

    def __init__(
        self,
        report_interval: float = 300.0,
        max_tags_per_document: int = 12,
        subset_cache_size: int = DEFAULT_SUBSET_CACHE_SIZE,
        store: StoreConfig | None = None,
    ) -> None:
        super().__init__()
        if report_interval <= 0:
            raise ValueError("report_interval must be positive")
        self.report_interval = report_interval
        self.notifications_received = 0
        self.batches_received = 0
        self.reports_emitted = 0
        self._last_report = 0.0
        #: In-stream report rounds executed and their total wall-clock —
        #: the per-round attribution the perf harness consumes (rounds
        #: with nothing observed are skipped and not counted).
        self.report_rounds = 0
        self.report_seconds = 0.0
        #: Type lattices folded by in-stream report rounds (the final drain
        #: and migration payloads fold too, but are not rounds).
        self.types_folded = 0
        #: State-handoff accounting (live repartitioning): completed
        #: migrations and total triples shipped out of this bolt by them.
        self.migrations_completed = 0
        self.migrated_triples = 0
        self.calculator = JaccardCalculator(
            max_tags_per_document, subset_cache_size, store
        )

    @property
    def observations(self) -> int:
        """Notifications recorded since the last resetting report."""
        return self.calculator.observations

    # ------------------------------------------------------------------ #
    # Tuple handling
    # ------------------------------------------------------------------ #
    def execute(self, message: TupleMessage) -> None:
        self.execute_batch((message,))

    def execute_batch(self, messages) -> None:
        """Unpack a whole delivered link batch of notification tuples.

        The single entry point for notification handling (``execute``
        delegates here), so the unpack and accounting logic exists once.
        """
        observe = self.calculator.observe
        received = 0
        for message in messages:
            if message.schema is not NOTIFICATIONS:
                continue
            # NOTIFICATIONS slot layout: (batch, timestamp).
            batch = message.values[0]
            self.batches_received += 1
            received += len(batch)
            for tags in batch:
                observe(tags)
        self.notifications_received += received

    def tick(self, simulation_time: float) -> None:
        elapsed = simulation_time - self._last_report
        if elapsed < self.report_interval:
            return
        # Grid-aligned rounds: advance the report clock to the last grid
        # point at or before *now* instead of re-anchoring it at the tick
        # timestamp.  Ticks fire at document-timestamp granularity, so
        # ``= simulation_time`` absorbed the overshoot into the next round
        # and boundaries drifted forward ~0.1 s per round (see ROADMAP
        # item 4); on the fixed grid every round is exactly
        # ``report_interval`` long, which is what keeps continuously
        # *served* rounds (service mode) from drifting against wall-clock
        # schedules.
        self._last_report += self.report_interval * int(elapsed / self.report_interval)
        self._emit_report(simulation_time)

    def _emit_report(self, timestamp: float) -> None:
        if self.observations == 0:
            return
        start = time.perf_counter()
        calculator = self.calculator
        before = calculator.types_folded
        results = calculator.report_triples(min_size=2, reset=True)
        if results:
            # One batched tuple per report round: shipping hundreds of
            # thousands of individual coefficient tuples through the
            # substrate would dominate the runtime without changing any of
            # the paper's metrics.
            self.emit(COEFFICIENTS, results, timestamp)
            self.reports_emitted += len(results)
        self.report_rounds += 1
        self.report_seconds += time.perf_counter() - start
        self.types_folded += calculator.types_folded - before

    def drain_payload(self) -> list[tuple[tuple[str, ...], float, int]]:
        """Final flush: the triples of a last, resetting report.

        The pipeline (or, under the process executor, the worker shard)
        calls this once at the end of a run, because the simulated clock
        stops advancing when the stream ends and a final tick would
        otherwise never fire.  The run is over, so a spilling counter store
        gives up its directory.
        """
        triples = self.calculator.report_triples(min_size=2, reset=True)
        self.calculator.close()
        return triples

    def drain_results(self) -> list[JaccardResult]:
        """:meth:`drain_payload`, wrapped as :class:`JaccardResult` objects."""
        return [
            JaccardResult(frozenset(tagset), jaccard, support)
            for tagset, jaccard, support in self.drain_payload()
        ]

    # ------------------------------------------------------------------ #
    # State migration (live repartitioning handoff)
    # ------------------------------------------------------------------ #
    def prepare_migration(self) -> list[tuple[tuple[str, ...], float, int]]:
        """Phase one of the two-phase handoff: compute the migration payload
        without mutating any state.

        The payload is exactly what a drain would ship for the counted
        window.  Nothing is reset here — if any participant of the handoff
        fails to prepare, the coordinator aborts and this bolt continues
        under the old assignment as if nothing happened.
        """
        return self.calculator.report_triples(min_size=2, reset=False)

    def commit_migration(
        self, payload: list[tuple[tuple[str, ...], float, int]], timestamp: float
    ) -> int:
        """Phase two: ship the prepared payload and reset the counted window.

        Emits the payload as one batched ``COEFFICIENTS`` tuple (the same
        shape as a report round), resets the counters the way a resetting
        report would, and rewinds the report clock to the fresh-bolt origin
        so the post-handoff cadence matches a run started under the new
        assignment.  Returns the number of migrated triples.
        """
        if payload:
            self.emit(COEFFICIENTS, payload, timestamp)
        self.calculator.reset_counts()
        self._last_report = 0.0
        self.migrations_completed += 1
        self.migrated_triples += len(payload)
        return len(payload)

    def abort_migration(self) -> None:
        """Phase-one failure: nothing was mutated, so nothing to undo."""

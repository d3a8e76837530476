"""The Calculator bolt: counts tagset notifications and reports coefficients.

Calculators are oblivious to the tags they own (Section 6.2): whatever
subsets the Disseminator sends them, they count.  Every received
notification ``{t_1, ..., t_n}`` increments the counters of *all* subsets of
the notification; every ``report_interval`` simulated seconds the maximum
possible number of Jaccard coefficients is computed from the counters, the
results are emitted to the Tracker and the counters are deleted.

Notifications arrive as ``NOTIFICATIONS`` slot tuples — ``(batch,
timestamp)`` where ``batch`` is the list of ``(tags, doc_id)`` entries of
one Disseminator micro-batch (a single entry per message when
``notification_batch_size == 1``).  :class:`BaseCalculatorBolt` unpacks the
batches (overriding :meth:`~repro.streamsim.components.Bolt.execute_batch`
to amortise per-message dispatch over whole link batches) and drives the
periodic reporting; the two concrete modes only differ in the estimator
behind :meth:`_observe`:

* :class:`CalculatorBolt` — the paper's exact subset counters
  (:class:`~repro.core.jaccard.JaccardCalculator`),
* :class:`~repro.operators.sketch_calculator.SketchCalculatorBolt` — the
  MinHash/Count-Min approximate mode
  (:class:`~repro.sketches.SketchJaccardEstimator`).
"""

from __future__ import annotations

import abc
import time

from ..core.jaccard import (
    DEFAULT_SUBSET_CACHE_SIZE,
    JaccardCalculator,
    JaccardResult,
)
from ..streamsim.components import Bolt
from ..streamsim.tuples import TupleMessage
from .streams import COEFFICIENTS, NOTIFICATIONS


class BaseCalculatorBolt(Bolt):
    """Shared notification handling and periodic reporting of both modes."""

    #: Name of the mode as it appears in ``SystemConfig.calculator``.
    mode = "base"

    def __init__(
        self, report_interval: float = 300.0, report_chunk_size: int = 0
    ) -> None:
        super().__init__()
        if report_interval <= 0:
            raise ValueError("report_interval must be positive")
        if report_chunk_size < 0:
            raise ValueError(
                "report_chunk_size must be non-negative (0 = unchunked)"
            )
        self.report_interval = report_interval
        #: Triples per COEFFICIENTS emission: 0 ships each round as one
        #: batched tuple (the default); a positive value slices rounds
        #: into bounded chunks, capping the largest list in flight.  The
        #: Tracker receives the same triples in the same order either way.
        self.report_chunk_size = report_chunk_size
        self.notifications_received = 0
        self.batches_received = 0
        self.reports_emitted = 0
        self._last_report = 0.0
        #: In-stream report rounds executed and their total wall-clock —
        #: the per-round attribution the perf harness consumes (rounds
        #: with nothing observed are skipped and not counted).
        self.report_rounds = 0
        self.report_seconds = 0.0
        #: State-handoff accounting (live repartitioning): completed
        #: migrations and total triples shipped out of this bolt by them.
        self.migrations_completed = 0
        self.migrated_triples = 0

    # ------------------------------------------------------------------ #
    # Mode-specific estimator interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _observe(self, tags, doc_id) -> None:
        """Record one tagset notification (``doc_id`` may be ``None``)."""

    @abc.abstractmethod
    def _report(self, reset: bool) -> list[JaccardResult]:
        """Coefficients of every tracked tagset of at least two tags."""

    def _report_triples(
        self, reset: bool
    ) -> list[tuple[frozenset[str], float, int]]:
        """:meth:`_report` as raw ``(tagset, jaccard, support)`` wire triples.

        The hot reporting path — periodic emits, the end-of-run drain and
        the Tracker all consume triples.  Modes whose estimator produces
        triples natively (the exact mode) override this to skip the
        :class:`JaccardResult` round-trip.
        """
        return [(r.tagset, r.jaccard, r.support) for r in self._report(reset=reset)]

    @property
    @abc.abstractmethod
    def observations(self) -> int:
        """Notifications recorded since the last resetting report."""

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
        observe = self._observe
        received = 0
        for message in messages:
            if message.schema is not NOTIFICATIONS:
                continue
            # NOTIFICATIONS slot layout: (batch, timestamp).
            batch = message.values[0]
            self.batches_received += 1
            received += len(batch)
            for tags, doc_id in batch:
                observe(tags, doc_id)
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
        results = self._report_triples(reset=True)
        if results:
            # One batched tuple per report round (or per bounded chunk):
            # shipping hundreds of thousands of individual coefficient
            # tuples through the substrate would dominate the runtime
            # without changing any of the paper's metrics.
            self._emit_coefficients(results, timestamp)
            self.reports_emitted += len(results)
        self.report_rounds += 1
        self.report_seconds += time.perf_counter() - start

    def _emit_coefficients(
        self,
        results: list[tuple[frozenset[str], float, int]],
        timestamp: float,
    ) -> None:
        """Ship one round's triples, whole or in ``report_chunk_size`` slices.

        Chunking is purely physical: the Tracker ingests chunk after chunk
        in round order, which its dedup rule cannot distinguish from one
        monolithic ingest.
        """
        chunk = self.report_chunk_size
        if chunk <= 0 or len(results) <= chunk:
            self.emit(COEFFICIENTS, results, timestamp)
            return
        for start in range(0, len(results), chunk):
            self.emit(COEFFICIENTS, results[start:start + chunk], timestamp)

    def drain_payload(self) -> list[tuple[frozenset[str], float, int]]:
        """Final flush: the triples of a last, resetting report.

        The pipeline (or, under the process executor, the worker shard)
        calls this once at the end of a run, because the simulated clock
        stops advancing when the stream ends and a final tick would
        otherwise never fire.
        """
        return self._report_triples(reset=True)

    def drain_results(self) -> list[JaccardResult]:
        """:meth:`drain_payload`, wrapped as :class:`JaccardResult` objects."""
        return [JaccardResult(*triple) for triple in self.drain_payload()]

    # ------------------------------------------------------------------ #
    # State migration (live repartitioning handoff)
    # ------------------------------------------------------------------ #
    def prepare_migration(self) -> list[tuple[frozenset[str], float, int]]:
        """Phase one of the two-phase handoff: compute the migration payload
        without mutating any state.

        The payload is exactly what a drain would ship for the counted
        window.  Nothing is reset here — if any participant of the handoff
        fails to prepare, the coordinator aborts and this bolt continues
        under the old assignment as if nothing happened.
        """
        return self._report_triples(reset=False)

    def commit_migration(
        self, payload: list[tuple[frozenset[str], float, int]], timestamp: float
    ) -> int:
        """Phase two: ship the prepared payload and reset the counted window.

        Emits the payload as one batched ``COEFFICIENTS`` tuple (the same
        shape as a report round), resets the mode's estimator the way a
        resetting report would, and rewinds the report clock to the
        fresh-bolt origin so the post-handoff cadence matches a run started
        under the new assignment.  Returns the number of migrated triples.
        """
        if payload:
            self._emit_coefficients(payload, timestamp)
        self._migration_reset()
        self._last_report = 0.0
        self.migrations_completed += 1
        self.migrated_triples += len(payload)
        return len(payload)

    def abort_migration(self) -> None:
        """Phase-one failure: nothing was mutated, so nothing to undo."""

    def _migration_reset(self) -> None:
        """Drop the counted window after its payload shipped (mode hook)."""
        raise NotImplementedError(
            f"calculator mode {self.mode!r} does not support state migration"
        )


class CalculatorBolt(BaseCalculatorBolt):
    """Exact mode: subset counters and inclusion–exclusion (Equation 2).

    Report rounds recover union sizes with one subset-lattice fold per
    distinct observed tagset type; ``subset_cache_size`` bounds the LRU
    cache of subset enumerations shared by the observe and report paths
    (see :mod:`repro.core.jaccard`).
    """

    mode = "exact"

    def __init__(
        self,
        report_interval: float = 300.0,
        max_tags_per_document: int = 12,
        subset_cache_size: int = DEFAULT_SUBSET_CACHE_SIZE,
        counter_store: str = "dict",
        spill_dir: str | None = None,
        spill_threshold: int | None = None,
        report_chunk_size: int = 0,
    ) -> None:
        super().__init__(
            report_interval=report_interval,
            report_chunk_size=report_chunk_size,
        )
        spill_options = {}
        if spill_threshold is not None:
            spill_options["spill_threshold"] = spill_threshold
        self.calculator = JaccardCalculator(
            max_tags_per_document,
            subset_cache_size=subset_cache_size,
            counter_store=counter_store,
            spill_dir=spill_dir,
            **spill_options,
        )
        #: Type lattices folded by in-stream report rounds (the final drain
        #: and migration payloads fold too, but are not rounds).
        self.types_folded = 0

    def _observe(self, tags, doc_id) -> None:
        self.calculator.observe(tags)

    def _report(self, reset: bool) -> list[JaccardResult]:
        return self.calculator.report(min_size=2, reset=reset)

    def _report_triples(
        self, reset: bool
    ) -> list[tuple[frozenset[str], float, int]]:
        return self.calculator.report_triples(min_size=2, reset=reset)

    def _emit_report(self, timestamp: float) -> None:
        counter = self.calculator.counter
        before = counter.types_folded
        super()._emit_report(timestamp)
        self.types_folded += counter.types_folded - before

    def drain_payload(self) -> list[tuple[frozenset[str], float, int]]:
        triples = super().drain_payload()
        # The run is over: a spilling counter store gives up its directory.
        self.calculator.counter.close()
        return triples

    def _migration_reset(self) -> None:
        self.calculator.reset_counts()

    @property
    def observations(self) -> int:
        return self.calculator.observations

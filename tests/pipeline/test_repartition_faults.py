"""Fault injection into the migration handoff.

A coordinated handoff must be atomic: if any Calculator's prepare phase
fails, the whole migration aborts with the old partition map still
installed and no Calculator state touched — the run continues and ends
with exactly the results of a run that never attempted the swap.  The
suite injects a raised exception into one Calculator task's prepare
phase; the coordinator's try/except aborts the handoff.

The handoff runs on driver-side Calculators only: ``SystemConfig``
refuses ``repartition_handoff="migrate"`` with ``executor="process"``
(``tests/pipeline/test_config.py``), and the coordinator refuses a layer
the executor's workers own (``tests/streamsim/test_executors.py``).
"""

from dataclasses import dataclass

import pytest

from repro.operators import CalculatorBolt
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.pipeline.system import CalculatorFactory
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

SWAP_POINT = 800

#: The Calculator task whose prepare fails.  Index 2 (not 0) makes the
#: abort path non-trivial: earlier tasks have already prepared when the
#: failure hits, so their staged payloads must be dropped.
FAILING_TASK_INDEX = 2


class FailingPrepareCalculatorBolt(CalculatorBolt):
    def prepare_migration(self):
        if self.task_index == FAILING_TASK_INDEX:
            raise RuntimeError("injected prepare failure")
        return super().prepare_migration()


@dataclass(frozen=True)
class FailingPrepareFactory(CalculatorFactory):
    def __call__(self) -> CalculatorBolt:
        return FailingPrepareCalculatorBolt(
            report_interval=self.report_interval,
            max_tags_per_document=self.max_tags_per_document,
            subset_cache_size=self.subset_cache_size,
        )


@pytest.fixture(scope="module")
def documents():
    config = WorkloadConfig(
        seed=31,
        tweets_per_second=50.0,
        n_topics=100,
        tags_per_topic=14,
        new_topic_rate=5.0,
        intra_topic_probability=0.9,
    )
    return TwitterLikeGenerator(config).generate(1500)


def _config(**overrides):
    base = dict(
        algorithm="DS",
        k=4,
        n_partitioners=3,
        window_mode="count",
        window_size=500,
        bootstrap_documents=200,
        quality_check_interval=120,
        repartition_threshold=0.5,
        report_interval_seconds=30.0,
        repartition_policy="fixed",
        repartition_at=(SWAP_POINT,),
        repartition_handoff="migrate",
        include_centralized_baseline=False,
        # Single Additions route through the Merger, whose advisory
        # assignment diverges after an aborted handoff; disabling them
        # makes the aborted run byte-comparable to the never-swapped
        # reference.
        single_addition_threshold=10**9,
    )
    base.update(overrides)
    return SystemConfig(**base)


def _run(documents, factory=None, **overrides):
    system = TagCorrelationSystem(_config(**overrides))
    if factory is not None:
        system._calculator_factory = lambda: factory
    report = system.run(documents)
    return report


class TestPrepareFailureAbortsCleanly:
    @pytest.fixture(scope="class")
    def runs(self, documents):
        factory = FailingPrepareFactory(
            report_interval=30.0, max_tags_per_document=12
        )
        faulted = _run(documents, factory=factory)
        reference = _run(
            documents,
            repartition_policy="never",
            repartition_at=(),
            repartition_handoff="none",
        )
        return faulted, reference

    def test_run_completes_and_records_the_abort(self, runs):
        faulted, _ = runs
        assert faulted.migration_stats is not None
        assert faulted.migration_stats["handoffs"] == 1.0
        assert faulted.migration_stats["aborted"] == 1.0
        assert faulted.migration_stats["migrated_triples"] == 0.0
        assert len(faulted.migrations) == 1
        record = faulted.migrations[0]
        assert record.aborted
        assert record.migrated_triples == 0
        assert record.error is not None
        assert "injected prepare failure" in record.error
        assert len(faulted.migration_failures) == 1
        assert "injected prepare failure" in faulted.migration_failures[0]
        # The swap was requested (and counted) before the handoff failed.
        assert faulted.n_repartitions == 1
        assert faulted.repartition_reasons == {"forced": 1}

    def test_results_match_a_run_that_never_swapped(self, runs):
        faulted, reference = runs
        assert reference.migration_stats is None
        assert reference.n_repartitions == 0
        # Old map intact, no partial state: every logical result of the
        # aborted run equals the never-swapped reference.  Physical message
        # counts (notification_messages) are excluded: staging a map
        # flushes the pending notification micro-batch early, which splits
        # batches without changing what is in them.
        for field in (
            "documents_processed",
            "tagged_documents",
            "communication_avg",
            "calculator_loads",
            "load_gini",
            "load_max_share",
            "coefficients_reported",
            "duplicate_reports",
        ):
            assert getattr(faulted, field) == getattr(reference, field), field

"""Executor equivalence: inline and process runs report identical metrics.

The sharded process executor changes *where* the Calculator layer
runs, never *what* it computes: routing decisions, clock advancement,
communication and load counters all happen driver-side before a tuple
crosses the process boundary, and each remote bolt sees exactly the inline
message/tick interleaving.  These tests pin that contract on the quickstart
workload for both Calculator modes.
"""

import pytest

from repro.operators import BaseCalculatorBolt, TrackerBolt, streams
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.workloads import TwitterLikeGenerator, WorkloadConfig


def _workload(n_documents=2500, seed=7):
    config = WorkloadConfig(
        seed=seed,
        tweets_per_second=50.0,
        n_topics=120,
        tags_per_topic=15,
        new_topic_rate=5.0,
        intra_topic_probability=0.92,
    )
    return TwitterLikeGenerator(config).generate(n_documents)


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
    )
    base.update(overrides)
    return SystemConfig(**base)


@pytest.fixture(scope="module")
def documents():
    return _workload()


@pytest.fixture(scope="module")
def exact_reports(documents):
    inline = TagCorrelationSystem(_config()).run(documents)
    process_system = TagCorrelationSystem(
        _config(executor="process", workers=2)
    )
    process = process_system.run(documents)
    return inline, process, process_system


#: RunReport fields that must be bit-identical across executors (the paper's
#: logical metrics plus the physical batching counters).
IDENTICAL_FIELDS = (
    "documents_processed",
    "tagged_documents",
    "communication_avg",
    "calculator_loads",
    "load_gini",
    "load_max_share",
    "n_repartitions",
    "repartition_reasons",
    "single_addition_requests",
    "single_additions_applied",
    "coefficients_reported",
    "duplicate_reports",
    "notification_messages",
    "batch_amortization",
)


class TestExactModeEquivalence:
    @pytest.mark.parametrize("field", IDENTICAL_FIELDS)
    def test_metric_identical(self, exact_reports, field):
        inline, process, _ = exact_reports
        assert getattr(process, field) == getattr(inline, field)

    def test_jaccard_coverage_identical(self, exact_reports):
        inline, process, _ = exact_reports
        assert process.jaccard_coverage == inline.jaccard_coverage

    def test_jaccard_error_matches(self, exact_reports):
        inline, process, _ = exact_reports
        # Only Tracker tie-breaking (equal-support duplicates arriving in a
        # different order) could perturb this, hence approx rather than ==.
        assert process.jaccard_mean_error == pytest.approx(
            inline.jaccard_mean_error, abs=1e-9
        )

    def test_executor_fields(self, exact_reports):
        inline, process, _ = exact_reports
        assert inline.executor_mode == "inline"
        assert inline.executor_workers == 1
        assert process.executor_mode == "process"
        assert process.executor_workers == 2

    def test_summary_identical(self, exact_reports):
        inline, process, _ = exact_reports
        assert process.summary() == inline.summary()

    def test_remote_state_reinstalled_for_inspection(self, exact_reports):
        """After a process run the cluster holds the workers' bolt objects."""
        _, process, system = exact_reports
        calculators = [
            bolt
            for bolt in system.cluster.instances_of(streams.CALCULATOR)
            if isinstance(bolt, BaseCalculatorBolt)
        ]
        assert calculators
        assert sum(c.notifications_received for c in calculators) > 0
        tracker = next(
            bolt
            for bolt in system.cluster.instances_of(streams.TRACKER)
            if isinstance(bolt, TrackerBolt)
        )
        assert len(tracker) == process.coefficients_reported


class TestSketchModeEquivalence:
    def test_sketch_metrics_identical(self, documents):
        inline = TagCorrelationSystem(_config(calculator="sketch")).run(documents)
        process = TagCorrelationSystem(
            _config(calculator="sketch", executor="process", workers=2)
        ).run(documents)
        for field in IDENTICAL_FIELDS:
            assert getattr(process, field) == getattr(inline, field)
        assert process.jaccard_coverage == inline.jaccard_coverage
        assert process.sketch_stats == inline.sketch_stats


class TestWorkerResolution:
    def test_workers_clamped_to_k(self, documents):
        report = TagCorrelationSystem(
            _config(k=2, executor="process", workers=6)
        ).run(documents[:600])
        assert report.executor_workers == 2

    def test_auto_workers_resolved(self):
        config = _config(executor="process", workers=0)
        assert 1 <= config.resolved_workers() <= 4

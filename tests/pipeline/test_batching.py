"""Pipeline tests for the batched notification engine and the sketch mode."""

import pytest

from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.workloads import TwitterLikeGenerator, WorkloadConfig


@pytest.fixture(scope="module")
def documents():
    return TwitterLikeGenerator(
        WorkloadConfig(
            seed=19,
            n_topics=60,
            tags_per_topic=12,
            tweets_per_second=50.0,
            new_topic_rate=4.0,
            intra_topic_probability=0.9,
        )
    ).generate(3000)


def config(**overrides):
    base = dict(
        algorithm="DS",
        k=4,
        n_partitioners=3,
        window_mode="count",
        window_size=400,
        bootstrap_documents=150,
        quality_check_interval=100,
        report_interval_seconds=30.0,
    )
    base.update(overrides)
    return SystemConfig(**base)


class TestBatchingEquivalence:
    """Batching is a wire-format optimisation: logical metrics must not move.

    The micro-batch is the constant ``NOTIFICATION_BATCH_SIZE``; that the
    batched wire reproduces the logical metrics bit for bit is pinned by
    ``test_wire_equivalence.py``'s fixture.  What remains here is the win.
    """

    @pytest.fixture(scope="class")
    def report(self, documents):
        return TagCorrelationSystem(config()).run(documents)

    def test_batching_reduces_messages_at_least_5x(self, report):
        assert report.batch_amortization >= 5.0
        assert report.notification_messages > 0


class TestSketchMode:
    @pytest.fixture(scope="class")
    def sketch_report(self, documents):
        return TagCorrelationSystem(config(calculator="sketch")).run(documents)

    def test_runs_end_to_end(self, sketch_report):
        assert sketch_report.calculator_mode == "sketch"
        assert sketch_report.coefficients_reported > 0
        assert sketch_report.sketch_stats is not None
        assert sketch_report.sketch_stats["minhash_permutations"] == 512.0

    def test_accuracy_close_to_exact_mode(self, documents, sketch_report):
        exact_report = TagCorrelationSystem(config(calculator="exact")).run(documents)
        # The sketch mode adds at most the MinHash estimation noise on top
        # of the exact mode's windowing error.
        assert sketch_report.jaccard_mean_error <= exact_report.jaccard_mean_error + 0.05
        assert sketch_report.jaccard_coverage >= exact_report.jaccard_coverage - 0.05

    def test_batching_also_amortizes_in_sketch_mode(self, sketch_report):
        assert sketch_report.batch_amortization >= 5.0

    def test_rejects_unknown_calculator(self):
        with pytest.raises(ValueError):
            TagCorrelationSystem(config(calculator="magic"))

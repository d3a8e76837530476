"""Pipeline tests for the batched notification engine."""

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

"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.cooccurrence import CooccurrenceStatistics


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running soak/stress tests; the CI tier-1 step "
        'deselects them with -m "not slow", the hash-salt step runs them',
    )
from repro.core.documents import documents_from_tagsets
from repro.workloads import TwitterLikeGenerator, WorkloadConfig


@pytest.fixture
def figure1_documents():
    """The running example of Figure 1 in the paper.

    Tagset weights (number of documents annotated with each tagset):

    * {munich, beer, soccer} x 10
    * {beer, pizza} x 4
    * {munich, oktoberfest} x 3
    * {bavaria, soccer} x 1
    * {beach, sunny} x 2
    * {friday, sunny} x 1
    """
    tagsets = (
        [["munich", "beer", "soccer"]] * 10
        + [["beer", "pizza"]] * 4
        + [["munich", "oktoberfest"]] * 3
        + [["bavaria", "soccer"]] * 1
        + [["beach", "sunny"]] * 2
        + [["friday", "sunny"]] * 1
    )
    return documents_from_tagsets(tagsets)


@pytest.fixture
def figure1_statistics(figure1_documents):
    return CooccurrenceStatistics.from_documents(figure1_documents)


@pytest.fixture
def small_stream():
    """A small deterministic synthetic stream used by integration tests."""
    config = WorkloadConfig(
        seed=11,
        n_topics=60,
        tags_per_topic=12,
        tweets_per_second=50.0,
        new_topic_rate=4.0,
        intra_topic_probability=0.9,
    )
    return TwitterLikeGenerator(config).generate(3000)

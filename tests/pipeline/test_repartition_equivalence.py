"""Equivalence contracts of live mid-stream repartitioning.

Two contracts pin the coordinated handoff (quiesce → migrate → install):

* **Matrix consistency** — a run that swaps its partition map mid-stream
  (``fixed`` policy, ``migrate`` handoff) reports bit-identical logical
  metrics and Tracker contents on both executors, in both Calculator
  modes.  The migration protocol is thus executor-agnostic, exactly like
  normal execution.

* **Splice equivalence** — a run with a migrating swap at document *r*
  equals the concatenation of two independent runs: a *prefix* run over
  the documents through *r* (ending in the same forced swap), and a
  *suffix* run over the remaining documents started from the installed
  map via ``SystemConfig.initial_partitions`` (the
  ``PartitionInstall.seed()`` round trip).  Tracker states merge through
  ``export_triples()`` — the max-support dedup is associative over
  concatenated report streams — and the logical routing metrics are
  additive.  This is the strongest statement that a migration loses and
  duplicates nothing: the run really is two clean runs glued at the
  handoff point.

The splice suites run in the drain-only regime (one report at end of
stream): the prefix and suffix runs cannot reproduce the full run's
absolute tick schedule, so in-stream report cadence is covered by the
matrix-consistency half instead.
"""

import pytest

from repro.core.documents import make_tagset
from repro.operators import DisseminatorBolt, TrackerBolt, streams
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

SWAP_POINTS = (700, 1400)
SPLICE_POINT = 900


def _workload(n_documents=2000, seed=23):
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
        repartition_policy="fixed",
        repartition_at=SWAP_POINTS,
        repartition_handoff="migrate",
        include_centralized_baseline=False,
    )
    base.update(overrides)
    return SystemConfig(**base)


def _run(documents, **overrides):
    system = TagCorrelationSystem(_config(**overrides))
    report = system.run(documents)
    tracker = next(
        bolt
        for bolt in system.cluster.instances_of(streams.TRACKER)
        if isinstance(bolt, TrackerBolt)
    )
    disseminator = next(
        bolt
        for bolt in system.cluster.instances_of(streams.DISSEMINATOR)
        if isinstance(bolt, DisseminatorBolt)
    )
    return report, tracker, disseminator


#: Logical RunReport fields pinned identical across the whole matrix.
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


@pytest.fixture(scope="module")
def documents():
    return _workload()


@pytest.fixture(scope="module")
def splice_documents():
    """The shared stream split at the r-th *tagged* document.

    The forced-swap schedule counts the documents the Disseminator sees
    (the Parser drops untagged ones), so the raw stream is sliced at the
    document whose tagset is the ``SPLICE_POINT``-th non-empty one.
    """
    docs = _workload()
    tagged = 0
    for index, document in enumerate(docs):
        if make_tagset(document.tags):
            tagged += 1
            if tagged == SPLICE_POINT:
                return docs[: index + 1], docs[index + 1:]
    raise AssertionError("workload has fewer tagged documents than SPLICE_POINT")


# --------------------------------------------------------------------- #
# Matrix consistency
# --------------------------------------------------------------------- #
class TestMigrationMatrixConsistency:
    @pytest.fixture(scope="class")
    def exact_matrix(self, documents):
        return {
            "inline": _run(documents),
            "process": _run(documents, executor="process", workers=2),
        }

    def test_migrations_actually_ran(self, exact_matrix):
        for executor, (report, _, _) in exact_matrix.items():
            stats = report.migration_stats
            assert stats is not None, executor
            assert stats["handoffs"] == float(len(SWAP_POINTS))
            assert stats["aborted"] == 0.0
            assert stats["migrated_triples"] > 0
            assert report.migration_failures == []
            assert report.repartition_reasons == {"forced": len(SWAP_POINTS)}
            assert report.timings["migration_stall"] > 0.0

    def test_logical_metrics_identical_across_matrix(self, exact_matrix):
        reference_key = "inline"
        reference = exact_matrix[reference_key][0]
        for key, (report, _, _) in exact_matrix.items():
            for field in IDENTICAL_FIELDS:
                assert getattr(report, field) == getattr(reference, field), (
                    f"{field} differs between {reference_key} and {key}"
                )

    def test_tracker_contents_identical_across_matrix(self, exact_matrix):
        reference = exact_matrix["inline"][1]
        for key, (_, tracker, _) in exact_matrix.items():
            assert tracker.coefficients() == reference.coefficients(), key
            assert tracker.supports() == reference.supports(), key

    def test_migration_records_identical_across_matrix(self, exact_matrix):
        reference = exact_matrix["inline"][0]
        expected = [
            (m.epoch, m.documents_processed, m.migrated_triples, m.aborted)
            for m in reference.migrations
        ]
        for key, (report, _, _) in exact_matrix.items():
            observed = [
                (m.epoch, m.documents_processed, m.migrated_triples, m.aborted)
                for m in report.migrations
            ]
            assert observed == expected, key

    def test_sketch_mode_matrix(self, documents):
        inline = _run(documents, calculator="sketch")
        process = _run(documents, calculator="sketch", executor="process", workers=2)
        for field in IDENTICAL_FIELDS:
            assert getattr(inline[0], field) == getattr(process[0], field), field
        assert inline[1].coefficients() == process[1].coefficients()
        assert inline[1].supports() == process[1].supports()
        assert inline[0].migration_stats is not None
        assert inline[0].migration_stats["handoffs"] == float(len(SWAP_POINTS))
        assert inline[0].migration_stats["aborted"] == 0.0


# --------------------------------------------------------------------- #
# Splice equivalence
# --------------------------------------------------------------------- #
def _splice_overrides(**extra):
    """Drain-only regime: one report at end of stream, swap at the splice."""
    overrides = dict(
        report_interval_seconds=1e9,
        repartition_at=(SPLICE_POINT,),
    )
    overrides.update(extra)
    return overrides


SPLICE_CELLS = [
    pytest.param({}, id="exact-inline"),
    pytest.param(dict(executor="process", workers=2), id="exact-process"),
    pytest.param(dict(calculator="sketch"), id="sketch-inline"),
]


class TestSpliceEquivalence:
    @pytest.mark.parametrize("cell", SPLICE_CELLS)
    def test_migrated_run_equals_prefix_plus_seeded_suffix(
        self, splice_documents, cell
    ):
        prefix, suffix = splice_documents

        full_report, full_tracker, full_disseminator = _run(
            prefix + suffix, **_splice_overrides(**cell)
        )
        migrated_installs = [
            install
            for install in full_report.partition_installs
            if install.via_migration
        ]
        assert len(migrated_installs) == 1
        assert migrated_installs[0].documents_processed == SPLICE_POINT

        # Prefix run: identical processing through the splice document,
        # ending in the same forced swap + migration.
        prefix_report, prefix_tracker, prefix_disseminator = _run(
            prefix, **_splice_overrides(**cell)
        )
        prefix_migrated = [
            install
            for install in prefix_report.partition_installs
            if install.via_migration
        ]
        assert len(prefix_migrated) == 1
        seed = prefix_migrated[0].seed()
        assert seed == migrated_installs[0].seed(), (
            "prefix run installed a different map than the full run"
        )

        # Suffix run: a fresh system resumed from the installed map.
        suffix_report, suffix_tracker, suffix_disseminator = _run(
            suffix,
            **_splice_overrides(
                repartition_policy="never",
                repartition_at=(),
                initial_partitions=seed,
                **cell,
            ),
        )

        # Tracker splice: merging the two runs' dedup tables reproduces
        # the full run's coefficients and supports exactly.
        merged = TrackerBolt()
        merged.ingest(prefix_tracker.export_triples())
        merged.ingest(suffix_tracker.export_triples())
        assert merged.coefficients() == full_tracker.coefficients()
        assert merged.supports() == full_tracker.supports()

        # Logical routing metrics are additive at the splice.
        assert (
            full_report.tagged_documents
            == prefix_report.tagged_documents + suffix_report.tagged_documents
        )
        assert full_report.calculator_loads == [
            a + b
            for a, b in zip(
                prefix_report.calculator_loads, suffix_report.calculator_loads
            )
        ]
        full_comm = full_disseminator.metrics.communication
        prefix_comm = prefix_disseminator.metrics.communication
        suffix_comm = suffix_disseminator.metrics.communication
        assert full_comm.notifications == (
            prefix_comm.notifications + suffix_comm.notifications
        )
        assert full_comm.routed_tagsets == (
            prefix_comm.routed_tagsets + suffix_comm.routed_tagsets
        )

    def test_seeded_suffix_requires_matching_k(self, splice_documents):
        _, suffix = splice_documents
        prefix_report, _, _ = _run(
            splice_documents[0], **_splice_overrides()
        )
        seed = next(
            install
            for install in prefix_report.partition_installs
            if install.via_migration
        ).seed()
        del suffix
        with pytest.raises(ValueError, match="initial_partitions"):
            _config(k=seed.k + 1, initial_partitions=seed).validate()

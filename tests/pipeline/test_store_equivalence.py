"""Spill ≡ dict: the out-of-core stores are invisible in everything the system says.

``SystemConfig(counter_store="spill")`` moves the Calculators' window
counters out of core — hot segments freeze into sorted run files, report
folds read them back once into a per-fold window table — but counts are
additive, so spill timing and run count must both be unobservable: every logical
``RunReport`` metric, every final coefficient and every support must be
**bit-identical** to the default in-RAM ``dict`` store.  These tests pin
that across the grid of executors × calculator modes, plus the forced
mid-stream repartition handoff (the migration payload streams from merged
runs) and a served (service-mode) run — while asserting the spill machinery
actually engaged (runs written, windows read) and cleaned up after itself (no
spill directories survive a drain).

``SystemConfig(tracker_store="spill")`` does the same to the Tracker's
dedup coefficient table — the max-support dedup rule becomes the run-merge
combiner — and ``report_chunk_size`` bounds the reporting path's emission
and drain batches; both are pinned bit-identical to the defaults by the
``TestTrackerSpill`` / ``TestServiceModeWithTrackerSpill`` grids below.
"""

import os

import pytest

from repro.operators import TrackerBolt, streams
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.service import ServiceClient, ServiceDaemon
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

#: RunReport fields that must be bit-identical across counter stores
#: (mirrors the executor equivalence contract).
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

#: Small enough that a 2000-document run spills dozens of runs per round,
#: crossing every interesting boundary (hot tail + many runs at fold time).
SPILL_THRESHOLD = 400

STORES = ("dict", "spill")


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


def _config(spill_root, **overrides):
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
    if base.get("counter_store") == "spill":
        base.setdefault("spill_dir", spill_root)
        base.setdefault("spill_threshold", SPILL_THRESHOLD)
    return SystemConfig(**base)


def _run(documents, spill_root, **overrides):
    system = TagCorrelationSystem(_config(spill_root, **overrides))
    report = system.run(documents)
    tracker = next(
        bolt
        for bolt in system.cluster.instances_of(streams.TRACKER)
        if isinstance(bolt, TrackerBolt)
    )
    return system, report, tracker


@pytest.fixture(scope="module")
def documents():
    return _workload()


@pytest.fixture(scope="module")
def spill_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("spill-equivalence"))


@pytest.fixture(scope="module")
def grid_runs(documents, spill_root):
    """One run per (store, executor) cell."""
    runs = {}
    for store in STORES:
        for executor in ("inline", "process"):
            overrides = {"counter_store": store, "executor": executor}
            if executor == "process":
                overrides["workers"] = 2
            runs[(store, executor)] = _run(documents, spill_root, **overrides)
    return runs


class TestSpillEqualsDict:
    @pytest.mark.parametrize("executor", ["inline", "process"])
    @pytest.mark.parametrize("field", IDENTICAL_FIELDS)
    def test_metrics_identical(self, grid_runs, executor, field):
        _, spill, _ = grid_runs[("spill", executor)]
        _, plain, _ = grid_runs[("dict", executor)]
        assert getattr(spill, field) == getattr(plain, field)

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_coefficients_and_supports_identical(self, grid_runs, executor):
        """Bit-identical, not approximately equal: the spill store merges
        the very same integer counts the dict would have held."""
        _, _, spill_tracker = grid_runs[("spill", executor)]
        _, _, plain_tracker = grid_runs[("dict", executor)]
        assert spill_tracker.coefficients() == plain_tracker.coefficients()
        assert spill_tracker.supports() == plain_tracker.supports()

    def test_error_metrics_identical(self, grid_runs):
        _, spill, _ = grid_runs[("spill", "inline")]
        _, plain, _ = grid_runs[("dict", "inline")]
        assert spill.jaccard_coverage == plain.jaccard_coverage
        assert spill.jaccard_mean_error == plain.jaccard_mean_error

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_spilling_actually_happened(self, grid_runs, executor):
        """The equivalence is vacuous unless runs hit the disk: every spill
        cell must have written runs and read them back into its report
        folds' window tables on the way to its (identical) answers."""
        _, report, _ = grid_runs[("spill", executor)]
        assert report.counter_store == "spill"
        stats = report.store_stats
        assert stats is not None
        assert stats["runs_written"] > 0
        assert stats["spilled_entries"] > 0
        assert stats["window_reads"] > 0
        assert stats["window_entries_max"] > SPILL_THRESHOLD

    def test_dict_cells_report_no_store_stats(self, grid_runs):
        _, report, _ = grid_runs[("dict", "inline")]
        assert report.counter_store == "dict"
        assert report.store_stats is None

    def test_no_spill_directories_survive_the_drain(self, grid_runs, spill_root):
        """Every store closed on drain: the shared spill root is empty."""
        assert os.listdir(spill_root) == []


class TestRepartitionWithSpill:
    """Forced mid-stream repartitions: migration payloads stream out of the
    spill store's merged runs and the handoff stays bit-identical."""

    @pytest.fixture(scope="class")
    def repartition_runs(self, documents, spill_root):
        runs = {}
        for store in STORES:
            runs[store] = _run(
                documents,
                spill_root,
                counter_store=store,
                repartition_policy="fixed",
                repartition_at=(700, 1400),
                repartition_handoff="migrate",
            )
        return runs

    def test_migrations_ran(self, repartition_runs):
        _, report, _ = repartition_runs["spill"]
        assert report.n_repartitions == 2
        assert report.migration_stats["handoffs"] > 0
        assert report.migration_stats["migrated_triples"] > 0

    @pytest.mark.parametrize("field", IDENTICAL_FIELDS)
    def test_metrics_identical(self, repartition_runs, field):
        _, spill, _ = repartition_runs["spill"]
        _, plain, _ = repartition_runs["dict"]
        assert getattr(spill, field) == getattr(plain, field)

    def test_migration_epochs_identical(self, repartition_runs):
        _, spill, _ = repartition_runs["spill"]
        _, plain, _ = repartition_runs["dict"]
        assert [
            (m.epoch, m.documents_processed, m.migrated_triples, m.aborted)
            for m in spill.migrations
        ] == [
            (m.epoch, m.documents_processed, m.migrated_triples, m.aborted)
            for m in plain.migrations
        ]

    def test_coefficients_identical(self, repartition_runs):
        _, _, spill_tracker = repartition_runs["spill"]
        _, _, plain_tracker = repartition_runs["dict"]
        assert spill_tracker.coefficients() == plain_tracker.coefficients()
        assert spill_tracker.supports() == plain_tracker.supports()


class TestSketchModeUnaffected:
    """The sketch calculator never touches subset counters; a spill config
    must pass through as a harmless no-op (same estimates, no store
    stats)."""

    @pytest.fixture(scope="class")
    def sketch_runs(self, documents, spill_root):
        return {
            store: _run(
                documents, spill_root, counter_store=store, calculator="sketch"
            )
            for store in STORES
        }

    def test_estimates_identical(self, sketch_runs):
        _, _, spill_tracker = sketch_runs["spill"]
        _, _, plain_tracker = sketch_runs["dict"]
        assert spill_tracker.coefficients() == plain_tracker.coefficients()

    @pytest.mark.parametrize("field", IDENTICAL_FIELDS)
    def test_metrics_identical(self, sketch_runs, field):
        _, spill, _ = sketch_runs["spill"]
        _, plain, _ = sketch_runs["dict"]
        assert getattr(spill, field) == getattr(plain, field)

    def test_no_store_stats_in_sketch_mode(self, sketch_runs):
        _, report, _ = sketch_runs["spill"]
        assert report.store_stats is None


class TestTrackerSpill:
    """``tracker_store="spill"`` ≡ dict: the Tracker's dedup table moves
    into sorted runs (the max-support rule becomes the merge combiner) and
    nothing observable changes — every pinned metric, every coefficient,
    every support.  The grid re-crosses executors against the dict-store
    baselines, plus the paths with their own
    machinery: chunked report emissions/drains, both stores spilling at
    once, and the forced mid-stream migration handoff."""

    TRACKER_THRESHOLD = 300

    @pytest.fixture(scope="class")
    def tracker_runs(self, documents, spill_root):
        runs = {}
        for executor in ("inline", "process"):
            overrides = {
                "tracker_store": "spill",
                "tracker_spill_threshold": self.TRACKER_THRESHOLD,
                "spill_dir": spill_root,
                "executor": executor,
            }
            if executor == "process":
                overrides["workers"] = 2
            runs[executor] = _run(documents, spill_root, **overrides)
        return runs

    @pytest.mark.parametrize("executor", ["inline", "process"])
    @pytest.mark.parametrize("field", IDENTICAL_FIELDS)
    def test_metrics_identical(
        self, tracker_runs, grid_runs, executor, field
    ):
        _, spill, _ = tracker_runs[executor]
        _, plain, _ = grid_runs[("dict", executor)]
        assert getattr(spill, field) == getattr(plain, field)

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_coefficients_and_supports_identical(
        self, tracker_runs, grid_runs, executor
    ):
        _, _, spill_tracker = tracker_runs[executor]
        _, _, plain_tracker = grid_runs[("dict", executor)]
        assert spill_tracker.coefficients() == plain_tracker.coefficients()
        assert spill_tracker.supports() == plain_tracker.supports()

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_spilling_actually_happened(self, tracker_runs, executor):
        _, report, _ = tracker_runs[executor]
        assert report.tracker_store == "spill"
        stats = report.tracker_store_stats
        assert stats is not None
        assert stats["runs_written"] > 0
        assert stats["spilled_entries"] > 0
        assert stats["hot_entries"] < self.TRACKER_THRESHOLD

    def test_dict_cells_report_no_tracker_stats(self, grid_runs):
        _, report, _ = grid_runs[("dict", "inline")]
        assert report.tracker_store == "dict"
        assert report.tracker_store_stats is None

    def test_snapshot_digest_matches_the_dict_tracker(
        self, tracker_runs, grid_runs
    ):
        """A run-backed snapshot over the final table hashes line-identical
        to the dict tracker's layered snapshot."""
        _, _, spill_tracker = tracker_runs["inline"]
        _, _, plain_tracker = grid_runs[("dict", "inline")]
        spill_snapshot = spill_tracker.snapshot(round_index=7)
        try:
            assert spill_snapshot.digest() == plain_tracker.snapshot(7).digest()
            assert spill_snapshot.top_k(k=20) == plain_tracker.snapshot(7).top_k(k=20)
        finally:
            spill_snapshot.close()

    def test_chunked_reporting_path_identical(self, documents, spill_root, grid_runs):
        """Bounded report emissions + chunked end-of-run drains: physical
        only, every logical answer unchanged."""
        _, report, tracker = _run(
            documents,
            spill_root,
            tracker_store="spill",
            tracker_spill_threshold=self.TRACKER_THRESHOLD,
            spill_dir=spill_root,
            report_chunk_size=64,
            executor="process",
            workers=2,
        )
        _, plain, plain_tracker = grid_runs[("dict", "process")]
        for field in IDENTICAL_FIELDS:
            assert getattr(report, field) == getattr(plain, field), field
        assert tracker.coefficients() == plain_tracker.coefficients()
        tracker.close()

    def test_both_stores_spill_together(self, documents, spill_root, grid_runs):
        """Counter store and tracker store both out of core at once."""
        _, report, tracker = _run(
            documents,
            spill_root,
            counter_store="spill",
            tracker_store="spill",
            tracker_spill_threshold=self.TRACKER_THRESHOLD,
        )
        _, plain, plain_tracker = grid_runs[("dict", "inline")]
        for field in IDENTICAL_FIELDS:
            assert getattr(report, field) == getattr(plain, field), field
        assert tracker.coefficients() == plain_tracker.coefficients()
        assert report.store_stats["runs_written"] > 0
        assert report.tracker_store_stats["runs_written"] > 0
        tracker.close()

    def test_migration_handoff_identical(self, documents, spill_root):
        """Forced mid-stream swaps with state migration: the migrated
        triples re-ingest through the spill store bit-identically."""
        results = {}
        for store in STORES:
            results[store] = _run(
                documents,
                spill_root,
                tracker_store=store,
                tracker_spill_threshold=self.TRACKER_THRESHOLD,
                spill_dir=spill_root,
                repartition_policy="fixed",
                repartition_at=(700, 1400),
                repartition_handoff="migrate",
            )
        _, spill, spill_tracker = results["spill"]
        _, plain, plain_tracker = results["dict"]
        assert spill.n_repartitions == 2
        assert spill.migration_stats["migrated_triples"] > 0
        for field in IDENTICAL_FIELDS:
            assert getattr(spill, field) == getattr(plain, field), field
        assert spill_tracker.coefficients() == plain_tracker.coefficients()
        assert spill_tracker.supports() == plain_tracker.supports()
        spill_tracker.close()

    def test_closing_the_trackers_empties_the_spill_root(
        self, tracker_runs, spill_root
    ):
        """The tracker store keeps its runs readable after the drain (the
        table *is* the run set); an explicit close releases everything.
        Must run after every other test of this class — closed trackers
        answer queries with empty tables."""
        for _, _, tracker in tracker_runs.values():
            tracker.close()
        leftovers = [
            name for name in os.listdir(spill_root)
            if name.startswith("repro-tracker-")
        ]
        assert leftovers == []


class TestServiceModeWithSpill:
    """A served spill run — socket ingest, quiescent snapshot boundaries
    between batches — equals the inline dict run document for document."""

    INGEST_BATCH = 250

    @pytest.fixture(scope="class")
    def served_spill(self, documents, spill_root):
        config = _config(spill_root, counter_store="spill")
        with ServiceDaemon(config) as daemon:
            host, port = daemon.address
            with ServiceClient(host=host, port=port) as client:
                for start in range(0, len(documents), self.INGEST_BATCH):
                    batch = documents[start:start + self.INGEST_BATCH]
                    response = client.ingest(batch, block=True, timeout=60.0)
                    assert response["accepted"] == len(batch)
                client.shutdown()
        report = daemon.final_report
        assert report is not None
        tracker = next(
            bolt
            for bolt in daemon.system.cluster.instances_of(streams.TRACKER)
            if isinstance(bolt, TrackerBolt)
        )
        return report, tracker

    def test_served_spill_equals_batch_dict(self, served_spill, grid_runs):
        served_report, served_tracker = served_spill
        _, batch_report, batch_tracker = grid_runs[
            ("dict", "inline")
        ]
        for field in IDENTICAL_FIELDS:
            assert getattr(served_report, field) == getattr(
                batch_report, field
            ), field
        assert served_tracker.coefficients() == batch_tracker.coefficients()
        assert served_tracker.supports() == batch_tracker.supports()

    def test_served_run_spilled(self, served_spill, spill_root):
        report, _ = served_spill
        assert report.counter_store == "spill"
        assert report.store_stats["runs_written"] > 0
        assert os.listdir(spill_root) == []


class TestServiceModeWithTrackerSpill:
    """The daemon's quiescent snapshots come from the run-backed view —
    no full-table copy per round — and the served run still equals the
    inline dict batch run exactly."""

    INGEST_BATCH = 250

    def _serve(self, documents, spill_root, **overrides):
        config = _config(spill_root, **overrides)
        with ServiceDaemon(config) as daemon:
            host, port = daemon.address
            with ServiceClient(host=host, port=port) as client:
                for start in range(0, len(documents), self.INGEST_BATCH):
                    batch = documents[start:start + self.INGEST_BATCH]
                    response = client.ingest(batch, block=True, timeout=60.0)
                    assert response["accepted"] == len(batch)
                top = client.top_k(k=5)
                assert top["ok"]
                client.shutdown()
        report = daemon.final_report
        assert report is not None
        tracker = next(
            bolt
            for bolt in daemon.system.cluster.instances_of(streams.TRACKER)
            if isinstance(bolt, TrackerBolt)
        )
        return daemon, report, tracker

    @pytest.fixture(scope="class")
    def served_tracker_spill(self, documents, spill_root):
        return self._serve(
            documents,
            spill_root,
            tracker_store="spill",
            tracker_spill_threshold=TestTrackerSpill.TRACKER_THRESHOLD,
            spill_dir=spill_root,
        )

    @pytest.fixture(scope="class")
    def served_dict(self, documents, spill_root):
        return self._serve(documents, spill_root)

    def test_served_equals_batch_dict(self, served_tracker_spill, grid_runs):
        _, served_report, served_tracker = served_tracker_spill
        _, batch_report, batch_tracker = grid_runs[
            ("dict", "inline")
        ]
        for field in IDENTICAL_FIELDS:
            assert getattr(served_report, field) == getattr(
                batch_report, field
            ), field
        assert served_tracker.coefficients() == batch_tracker.coefficients()
        assert served_tracker.supports() == batch_tracker.supports()

    def test_snapshots_are_run_backed_and_digest_identical(
        self, served_tracker_spill, served_dict
    ):
        """Every quiescent snapshot the spill daemon published answers from
        the run-backed view and hashes line-identical, round for round, to
        the dict daemon's layered snapshot of the same round."""
        from repro.store import RunBackedTrackerSnapshot

        spill_daemon, _, _ = served_tracker_spill
        dict_daemon, _, _ = served_dict
        spill_snapshots = spill_daemon.retained_snapshots()
        dict_snapshots = dict_daemon.retained_snapshots()
        assert [s.round_index for s in spill_snapshots] == [
            s.round_index for s in dict_snapshots
        ]
        assert any(
            isinstance(s, RunBackedTrackerSnapshot) for s in spill_snapshots
        )
        for spill_snapshot, dict_snapshot in zip(
            spill_snapshots, dict_snapshots
        ):
            assert spill_snapshot.digest() == dict_snapshot.digest()
            assert spill_snapshot.top_k(k=20) == dict_snapshot.top_k(k=20)
            assert len(spill_snapshot) == len(dict_snapshot)

    def test_served_tracker_spilled_and_closes_clean(
        self, served_tracker_spill, spill_root
    ):
        _, report, tracker = served_tracker_spill
        assert report.tracker_store == "spill"
        assert report.tracker_store_stats["runs_written"] > 0
        tracker.close()
        assert [
            name for name in os.listdir(spill_root)
            if name.startswith("repro-tracker-")
        ] == []

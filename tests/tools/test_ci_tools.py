"""Unit tests for the CI gate scripts under tools/."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[2] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_links = _load("check_links")
check_perf = _load("check_perf_regression")


class TestLinkChecker:
    def test_heading_anchors_github_slugs(self):
        anchors = check_links.heading_anchors(
            "# Reading BENCH_throughput.json\n"
            "## Choosing `workers`\n"
            "## Exact vs. sketch mode\n"
            "## Dup\n## Dup\n"
        )
        assert "reading-bench_throughputjson" in anchors
        assert "choosing-workers" in anchors
        assert "exact-vs-sketch-mode" in anchors
        assert {"dup", "dup-1"} <= anchors

    def test_fenced_code_not_a_heading(self):
        anchors = check_links.heading_anchors("```bash\n# not a heading\n```\n")
        assert anchors == set()

    def test_broken_anchor_detected(self, tmp_path):
        target = tmp_path / "target.md"
        target.write_text("# Real Section\n", encoding="utf-8")
        source = tmp_path / "source.md"
        source.write_text(
            "[ok](target.md#real-section) [bad](target.md#missing-section)\n",
            encoding="utf-8",
        )
        errors = check_links.check_file(source)
        assert len(errors) == 1
        assert "missing-section" in errors[0]

    def test_same_file_anchor(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# Alpha\n\n[up](#alpha) [down](#beta)\n", encoding="utf-8")
        errors = check_links.check_file(doc)
        assert len(errors) == 1
        assert "#beta" in errors[0]

    def test_missing_file_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("[gone](nowhere.md)\n", encoding="utf-8")
        errors = check_links.check_file(doc)
        assert len(errors) == 1


def _bench(host, cells):
    return {
        "host": host,
        "runs": [
            {
                "workload": workload,
                "executor": executor,
                "requested_workers": workers,
                "docs_per_second": dps,
            }
            for workload, executor, workers, dps in cells
        ],
    }


def _bench_with_phases(host, cells):
    """Cells as (workload, executor, workers, dps, documents, stream_seconds)."""
    return {
        "host": host,
        "runs": [
            {
                "workload": workload,
                "executor": executor,
                "requested_workers": workers,
                "docs_per_second": dps,
                "documents": documents,
                "phase_seconds": {"stream": stream, "reporting": 0.1},
            }
            for workload, executor, workers, dps, documents, stream in cells
        ],
    }


def _bench_with_report_rounds(host, cells):
    """Cells as (workload, dps, stream_seconds, report_seconds)."""
    return {
        "host": host,
        "runs": [
            {
                "workload": workload,
                "executor": "inline",
                "requested_workers": 0,
                "docs_per_second": dps,
                "documents": 3000,
                "phase_seconds": {"stream": stream, "reporting": 0.1},
                "report_rounds": {
                    "rounds": 5,
                    "report_seconds": report,
                    "dirty_types": 100,
                },
            }
            for workload, dps, stream, report in cells
        ],
    }


def _bench_with_stall(host, cells):
    """Cells as (workload, dps, stream_seconds, stall_seconds)."""
    return {
        "host": host,
        "runs": [
            {
                "workload": workload,
                "executor": "inline",
                "requested_workers": 0,
                "docs_per_second": dps,
                "documents": 3000,
                "phase_seconds": {
                    "stream": stream,
                    "migration_stall": stall,
                    "reporting": 0.1,
                },
            }
            for workload, dps, stream, stall in cells
        ],
    }


HOST = {"platform": "Linux-test", "cpu_count": 1}
OTHER_HOST = {"platform": "Linux-ci", "cpu_count": 4}


class TestPerfRegressionGate:
    def test_no_regression_passes(self, capsys):
        baseline = _bench(HOST, [("small", "inline", 0, 1000.0)])
        candidate = _bench(HOST, [("small", "inline", 0, 990.0)])
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_binding_regression_on_same_host_inline(self):
        baseline = _bench(HOST, [("small", "inline", 0, 1000.0)])
        candidate = _bench(HOST, [("small", "inline", 0, 700.0)])
        assert check_perf.compare(baseline, candidate, 0.2) == 1

    def test_process_cells_report_only(self):
        baseline = _bench(HOST, [("small", "process", 2, 1000.0)])
        candidate = _bench(HOST, [("small", "process", 2, 100.0)])
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_different_host_never_binds(self):
        baseline = _bench(HOST, [("small", "inline", 0, 1000.0)])
        candidate = _bench(OTHER_HOST, [("small", "inline", 0, 100.0)])
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_subset_of_cells_compares_cleanly(self):
        baseline = _bench(
            HOST,
            [("small", "inline", 0, 1000.0), ("large", "inline", 0, 500.0)],
        )
        candidate = _bench(HOST, [("small", "inline", 0, 1000.0)])
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_disjoint_cells_error_exits_2(self):
        baseline = _bench(HOST, [("small", "inline", 0, 1000.0)])
        candidate = _bench(HOST, [("large", "inline", 0, 1000.0)])
        with pytest.raises(SystemExit) as excinfo:
            check_perf.compare(baseline, candidate, 0.2)
        assert excinfo.value.code == 2

    def test_schema_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            check_perf._load(bad)
        assert excinfo.value.code == 2

    def test_stream_phase_regression_binds_on_inline(self):
        """Overall docs/s holds but the stream phase collapsed: fail."""
        baseline = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 2.0)]
        )
        candidate = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 4.0)]
        )
        assert check_perf.compare(baseline, candidate, 0.2) == 1

    def test_short_stream_phase_below_noise_floor_never_binds(self):
        """A sub-half-second baseline stream phase (the small workload)
        swings beyond any tolerance between a best-of-N snapshot and a
        single smoke run: reported, never failing."""
        baseline = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 0.12)]
        )
        candidate = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 0.18)]
        )
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_stream_phase_improvement_passes(self):
        baseline = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 4.0)]
        )
        candidate = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 2.0)]
        )
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_stream_phase_report_only_on_process_cells(self):
        baseline = _bench_with_phases(
            HOST, [("small", "process", 2, 1000.0, 3000, 2.0)]
        )
        candidate = _bench_with_phases(
            HOST, [("small", "process", 2, 1000.0, 3000, 8.0)]
        )
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_stream_phase_skipped_without_phase_seconds(self):
        """Schema-1 snapshots (no phase breakdown) only gate overall docs/s."""
        baseline = _bench(HOST, [("small", "inline", 0, 1000.0)])
        candidate = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 9.9)]
        )
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_overall_and_stream_regressions_both_counted(self):
        baseline = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 2.0)]
        )
        candidate = _bench_with_phases(
            HOST, [("small", "inline", 0, 500.0, 3000, 8.0)]
        )
        assert check_perf.compare(baseline, candidate, 0.2) == 2

    def test_scenario_cells_keyed_separately(self):
        """A trending cell never compares against a legacy cell: files
        whose only cells differ in scenario share nothing (a schema
        mismatch, exit 2), rather than silently diffing across shapes."""
        baseline = _bench(HOST, [("trending", "inline", 0, 1000.0)])
        for run in baseline["runs"]:
            run["scenario"] = "trending"
        candidate = _bench(HOST, [("trending", "inline", 0, 400.0)])
        with pytest.raises(SystemExit) as excinfo:
            check_perf.compare(baseline, candidate, 0.2)
        assert excinfo.value.code == 2

    def test_handoff_cells_keyed_separately(self):
        """The live-repartition cell (which pays migration stalls) is its
        own cell: a regression there binds without touching its plain
        twin, and vice versa."""
        def snapshot(plain_dps, migrate_dps):
            data = _bench(HOST, [("trending", "inline", 0, plain_dps),
                                 ("trending", "inline", 0, migrate_dps)])
            for run in data["runs"]:
                run["scenario"] = "trending"
            data["runs"][1]["repartition_handoff"] = "migrate"
            return data

        baseline = snapshot(1000.0, 800.0)
        candidate = snapshot(1000.0, 500.0)  # only the migrate cell regressed
        assert check_perf.compare(baseline, candidate, 0.2) == 1

    def test_pre_scenario_snapshot_defaults_to_legacy_key(self):
        """Snapshots recorded before the scenario matrix (no scenario or
        handoff fields) keep comparing against explicit legacy/none
        candidate cells."""
        baseline = _bench(HOST, [("small", "inline", 0, 1000.0)])
        candidate = _bench(HOST, [("small", "inline", 0, 400.0)])
        for run in candidate["runs"]:
            run["scenario"] = "legacy"
            run["repartition_handoff"] = "none"
        assert check_perf.compare(baseline, candidate, 0.2) == 1

    def test_report_share_regression_binds_on_matching_host(self):
        """Overall and stream docs/s hold, but in-stream report rounds ate
        a third of the stream phase: fail."""
        baseline = _bench_with_report_rounds(
            HOST, [("small", 1000.0, 3.0, 0.6)]  # 20% share
        )
        candidate = _bench_with_report_rounds(
            HOST, [("small", 1000.0, 3.0, 1.8)]  # 60% share
        )
        assert check_perf.compare(baseline, candidate, 0.2) == 1

    def test_report_share_within_tolerance_passes(self):
        baseline = _bench_with_report_rounds(
            HOST, [("small", 1000.0, 3.0, 0.6)]  # 20% share
        )
        candidate = _bench_with_report_rounds(
            HOST, [("small", 1000.0, 3.0, 0.72)]  # 24% share
        )
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_report_share_tolerance_is_relative_to_the_baseline(self):
        """A small baseline share must not triple just because the absolute
        growth stays under the tolerance: 10% -> 29% fails at 0.2."""
        baseline = _bench_with_report_rounds(
            HOST, [("small", 1000.0, 6.0, 0.6)]  # 10% share
        )
        candidate = _bench_with_report_rounds(
            HOST, [("small", 1000.0, 6.0, 1.74)]  # 29% share
        )
        assert check_perf.compare(baseline, candidate, 0.2) == 1

    def test_report_share_never_binds_on_other_host(self):
        baseline = _bench_with_report_rounds(
            OTHER_HOST, [("small", 1000.0, 3.0, 0.6)]
        )
        candidate = _bench_with_report_rounds(
            HOST, [("small", 1000.0, 3.0, 2.5)]
        )
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_report_share_skipped_without_attribution(self):
        """Snapshots without the report_rounds block only gate docs/s."""
        baseline = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 3.0)]
        )
        candidate = _bench_with_report_rounds(
            HOST, [("small", 1000.0, 3.0, 2.9)]
        )
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_stall_share_regression_binds_on_matching_host(self):
        """Migration stall creeping from 5% to 20% of the stream fails."""
        baseline = _bench_with_stall(HOST, [("small", 1000.0, 3.0, 0.15)])
        candidate = _bench_with_stall(HOST, [("small", 1000.0, 3.0, 0.6)])
        assert check_perf.compare(baseline, candidate, 0.2) == 1

    def test_stall_share_within_tolerance_passes(self):
        baseline = _bench_with_stall(HOST, [("small", 1000.0, 3.0, 0.3)])
        candidate = _bench_with_stall(HOST, [("small", 1000.0, 3.0, 0.32)])
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_stall_share_skipped_when_baseline_predates_the_phase(self):
        """Old snapshots lack migration_stall: stall is reported nowhere,
        and the candidate's stall still counts against stream docs/sec via
        the net-stream subtraction (here it improves the rate)."""
        baseline = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 3.0)]
        )
        candidate = _bench_with_stall(HOST, [("small", 1000.0, 3.3, 0.4)])
        assert check_perf.compare(baseline, candidate, 0.2) == 0

    def test_stall_subtracted_from_stream_phase_rate(self):
        """A run whose extra wall-clock is all handoff stall does not fail
        the stream-phase gate — but the same slowdown without the stall
        attribution does."""
        baseline = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 3.0)]
        )
        stalled = _bench_with_stall(HOST, [("small", 1000.0, 4.0, 1.0)])
        assert check_perf.compare(baseline, stalled, 0.2) == 0
        slower = _bench_with_phases(
            HOST, [("small", "inline", 0, 1000.0, 3000, 4.0)]
        )
        assert check_perf.compare(baseline, slower, 0.2) == 1

    def test_main_end_to_end(self, tmp_path):
        base_path = tmp_path / "base.json"
        cand_path = tmp_path / "cand.json"
        base_path.write_text(
            json.dumps(_bench(HOST, [("small", "inline", 0, 1000.0)]))
        )
        cand_path.write_text(
            json.dumps(_bench(HOST, [("small", "inline", 0, 500.0)]))
        )
        assert check_perf.main([str(base_path), str(cand_path)]) == 1
        assert check_perf.main(
            [str(base_path), str(cand_path), "--tolerance", "0.6"]
        ) == 0


def _service_bench(host, cells):
    """Cells as (name, dps, ingest_p95_ms, query_p95_ms)."""
    return {
        "generated_by": "benchmarks/perf/service_latency.py",
        "host": host,
        "runs": [
            {
                "cell": name,
                "ingest_batch": 250,
                "queue_limit": 8,
                "query_clients": 2,
                "docs_per_second": dps,
                "ingest_ack": {"p95_ms": ingest_p95, "samples": 10},
                "query_under_load": {"p95_ms": query_p95, "samples": 100},
            }
            for name, dps, ingest_p95, query_p95 in cells
        ],
    }


class TestServiceLatencyGate:
    """The gate's second dialect: BENCH_service_latency.json snapshots."""

    def test_no_regression_passes(self):
        baseline = _service_bench(HOST, [("served-6000docs", 2000.0, 50.0, 3.0)])
        candidate = _service_bench(HOST, [("served-6000docs", 1900.0, 52.0, 3.5)])
        assert check_perf.compare_service(baseline, candidate, 0.2) == 0

    def test_throughput_regression_binds_on_same_host(self):
        baseline = _service_bench(HOST, [("served-6000docs", 2000.0, 50.0, 3.0)])
        candidate = _service_bench(HOST, [("served-6000docs", 1000.0, 50.0, 3.0)])
        assert check_perf.compare_service(baseline, candidate, 0.2) == 1

    def test_latency_growth_binds_upward(self):
        """p95 latencies regress by *growing*; both metrics count."""
        baseline = _service_bench(HOST, [("served-6000docs", 2000.0, 50.0, 10.0)])
        candidate = _service_bench(HOST, [("served-6000docs", 2000.0, 80.0, 20.0)])
        assert check_perf.compare_service(baseline, candidate, 0.2) == 2

    def test_latency_drop_is_not_a_regression(self):
        baseline = _service_bench(HOST, [("served-6000docs", 2000.0, 50.0, 10.0)])
        candidate = _service_bench(HOST, [("served-6000docs", 2000.0, 10.0, 1.0)])
        assert check_perf.compare_service(baseline, candidate, 0.2) == 0

    def test_sub_noise_floor_latency_growth_passes(self):
        """A sub-2ms absolute p95 swing is scheduler noise, even when it is
        large relative to a tiny baseline."""
        baseline = _service_bench(HOST, [("served-6000docs", 2000.0, 50.0, 1.0)])
        candidate = _service_bench(HOST, [("served-6000docs", 2000.0, 51.0, 2.5)])
        assert check_perf.compare_service(baseline, candidate, 0.2) == 0

    def test_different_host_never_binds(self):
        baseline = _service_bench(HOST, [("served-6000docs", 2000.0, 50.0, 3.0)])
        candidate = _service_bench(
            OTHER_HOST, [("served-6000docs", 500.0, 500.0, 300.0)]
        )
        assert check_perf.compare_service(baseline, candidate, 0.2) == 0

    def test_disjoint_cells_error_exits_2(self):
        baseline = _service_bench(HOST, [("served-6000docs", 2000.0, 50.0, 3.0)])
        candidate = _service_bench(HOST, [("served-3000docs", 2000.0, 50.0, 3.0)])
        with pytest.raises(SystemExit) as excinfo:
            check_perf.compare_service(baseline, candidate, 0.2)
        assert excinfo.value.code == 2

    def test_main_dispatches_on_generated_by(self, tmp_path):
        service = tmp_path / "service.json"
        service.write_text(
            json.dumps(_service_bench(HOST, [("served-6000docs", 2000.0, 50.0, 3.0)]))
        )
        throughput = tmp_path / "throughput.json"
        throughput.write_text(
            json.dumps(_bench(HOST, [("small", "inline", 0, 1000.0)]))
        )
        # Same kind: compares (and passes against itself).
        assert check_perf.main([str(service), str(service)]) == 0
        # Mixed kinds: usage error.
        with pytest.raises(SystemExit) as excinfo:
            check_perf.main([str(service), str(throughput)])
        assert excinfo.value.code == 2


def _spill_bench(host, cells):
    """Cells as (workload, store, dps, rss_total_mb, resident_entries)."""
    return {
        "generated_by": "benchmarks/perf/spill.py",
        "host": host,
        "runs": [
            {
                "workload": workload,
                "counter_store": store,
                "docs_per_second": dps,
                "rss_total_mb": rss,
                "peak_resident_counter_entries": entries,
            }
            for workload, store, dps, rss, entries in cells
        ],
    }


class TestSpillBenchGate:
    """The gate's third dialect: BENCH_spill.json snapshots — docs/sec
    binds downward, RSS and resident entries bind *upward*."""

    def test_no_regression_passes(self):
        baseline = _spill_bench(
            HOST, [("xlarge", "spill", 1000.0, 800.0, 16000)]
        )
        candidate = _spill_bench(
            HOST, [("xlarge", "spill", 980.0, 810.0, 16300)]
        )
        assert check_perf.compare_spill(baseline, candidate, 0.2) == 0

    def test_throughput_regression_binds(self):
        baseline = _spill_bench(
            HOST, [("xlarge", "spill", 1000.0, 800.0, 16000)]
        )
        candidate = _spill_bench(
            HOST, [("xlarge", "spill", 500.0, 800.0, 16000)]
        )
        assert check_perf.compare_spill(baseline, candidate, 0.2) == 1

    def test_rss_growth_binds_upward(self):
        """The flat-RSS story is the bench's point: a fresh run whose
        total RSS grew beyond tolerance + floor fails."""
        baseline = _spill_bench(
            HOST, [("xlarge", "spill", 1000.0, 500.0, 16000)]
        )
        candidate = _spill_bench(
            HOST, [("xlarge", "spill", 1000.0, 700.0, 16000)]
        )
        assert check_perf.compare_spill(baseline, candidate, 0.2) == 1

    def test_resident_entries_growth_binds_upward(self):
        """A hot tail that stops respecting the threshold fails even while
        docs/sec and total RSS look fine."""
        baseline = _spill_bench(
            HOST, [("xlarge", "spill", 1000.0, 800.0, 16000)]
        )
        candidate = _spill_bench(
            HOST, [("xlarge", "spill", 1000.0, 800.0, 160000)]
        )
        assert check_perf.compare_spill(baseline, candidate, 0.2) == 1

    def test_rss_drop_is_not_a_regression(self):
        baseline = _spill_bench(
            HOST, [("large", "dict", 1000.0, 800.0, 300000)]
        )
        candidate = _spill_bench(
            HOST, [("large", "dict", 1000.0, 400.0, 150000)]
        )
        assert check_perf.compare_spill(baseline, candidate, 0.2) == 0

    def test_sub_floor_growth_passes(self):
        """Allocator jitter (tens of MB, a few thousand entries) never
        fails the job, even when large relative to a small baseline."""
        baseline = _spill_bench(
            HOST, [("large", "spill", 1000.0, 100.0, 1000)]
        )
        candidate = _spill_bench(
            HOST, [("large", "spill", 1000.0, 150.0, 2500)]
        )
        assert check_perf.compare_spill(baseline, candidate, 0.2) == 0

    def test_stores_keyed_separately(self):
        """A dict cell never diffs against a spill cell of the same
        workload: files sharing only cross-store cells share nothing."""
        baseline = _spill_bench(
            HOST, [("large", "dict", 1000.0, 800.0, 300000)]
        )
        candidate = _spill_bench(
            HOST, [("large", "spill", 600.0, 800.0, 16000)]
        )
        with pytest.raises(SystemExit) as excinfo:
            check_perf.compare_spill(baseline, candidate, 0.2)
        assert excinfo.value.code == 2

    def test_different_host_never_binds(self):
        baseline = _spill_bench(
            HOST, [("xlarge", "spill", 1000.0, 500.0, 16000)]
        )
        candidate = _spill_bench(
            OTHER_HOST, [("xlarge", "spill", 100.0, 5000.0, 160000)]
        )
        assert check_perf.compare_spill(baseline, candidate, 0.2) == 0

    def test_main_dispatches_and_rejects_mixed_kinds(self, tmp_path):
        spill = tmp_path / "spill.json"
        spill.write_text(json.dumps(
            _spill_bench(HOST, [("xlarge", "spill", 1000.0, 800.0, 16000)])
        ))
        throughput = tmp_path / "throughput.json"
        throughput.write_text(
            json.dumps(_bench(HOST, [("small", "inline", 0, 1000.0)]))
        )
        assert check_perf.main([str(spill), str(spill)]) == 0
        with pytest.raises(SystemExit) as excinfo:
            check_perf.main([str(spill), str(throughput)])
        assert excinfo.value.code == 2

    def test_committed_snapshot_self_diff_passes(self):
        """The committed BENCH_spill.json is valid input to its own gate."""
        committed = Path(__file__).resolve().parents[2] / "BENCH_spill.json"
        data = json.loads(committed.read_text(encoding="utf-8"))
        assert data["generated_by"] == "benchmarks/perf/spill.py"
        assert check_perf.compare_spill(data, data, 0.2) == 0


def _tracker_spill_bench(host, cells):
    """Cells as (workload, tracker_store, dps, rss, resident_coefficients).

    The tracker-contrast round's cells: counter store pinned to dict,
    ``tracker_store`` varying, with the peak resident *coefficient*
    figure the upward-binding headline.
    """
    return {
        "generated_by": "benchmarks/perf/spill.py",
        "host": host,
        "runs": [
            {
                "workload": workload,
                "counter_store": "dict",
                "tracker_store": tracker,
                "docs_per_second": dps,
                "rss_total_mb": rss,
                "peak_resident_counter_entries": 40000,
                "peak_resident_coefficient_entries": coefficients,
            }
            for workload, tracker, dps, rss, coefficients in cells
        ],
    }


class TestTrackerSpillGate:
    """The spill dialect's tracker-contrast cells: keyed by tracker store,
    with ``peak_resident_coefficient_entries`` binding upward."""

    def test_no_regression_passes(self):
        baseline = _tracker_spill_bench(
            HOST, [("xlarge-reporting", "spill", 300.0, 250.0, 15000)]
        )
        candidate = _tracker_spill_bench(
            HOST, [("xlarge-reporting", "spill", 290.0, 260.0, 15500)]
        )
        assert check_perf.compare_spill(baseline, candidate, 0.2) == 0

    def test_resident_coefficient_growth_binds_upward(self):
        """A tracker hot tail that stops respecting its threshold fails
        even while docs/sec and RSS hold."""
        baseline = _tracker_spill_bench(
            HOST, [("xlarge-reporting", "spill", 300.0, 250.0, 15000)]
        )
        candidate = _tracker_spill_bench(
            HOST, [("xlarge-reporting", "spill", 300.0, 250.0, 150000)]
        )
        assert check_perf.compare_spill(baseline, candidate, 0.2) == 1

    def test_tracker_stores_keyed_separately(self):
        """A dict-tracker cell never diffs against a spill-tracker cell of
        the same workload."""
        baseline = _tracker_spill_bench(
            HOST, [("xlarge-reporting", "dict", 1500.0, 350.0, 300000)]
        )
        candidate = _tracker_spill_bench(
            HOST, [("xlarge-reporting", "spill", 300.0, 250.0, 15000)]
        )
        with pytest.raises(SystemExit) as excinfo:
            check_perf.compare_spill(baseline, candidate, 0.2)
        assert excinfo.value.code == 2

    def test_legacy_snapshot_defaults_to_dict_tracker_key(self):
        """Snapshots recorded before the tracker-contrast round (no
        tracker_store field) compare against explicit dict-tracker cells —
        and skip the coefficient metric they never recorded."""
        baseline = _spill_bench(
            HOST, [("xlarge", "spill", 1000.0, 800.0, 16000)]
        )
        candidate = _spill_bench(
            HOST, [("xlarge", "spill", 500.0, 800.0, 16000)]
        )
        for run in candidate["runs"]:
            run["tracker_store"] = "dict"
            run["peak_resident_coefficient_entries"] = 10**9
        # One binding finding: the docs/s drop.  The absurd coefficient
        # figure is skipped because the baseline never recorded it.
        assert check_perf.compare_spill(baseline, candidate, 0.2) == 1

    def test_different_host_never_binds(self):
        baseline = _tracker_spill_bench(
            HOST, [("xlarge-reporting", "spill", 300.0, 250.0, 15000)]
        )
        candidate = _tracker_spill_bench(
            OTHER_HOST, [("xlarge-reporting", "spill", 30.0, 2500.0, 1500000)]
        )
        assert check_perf.compare_spill(baseline, candidate, 0.2) == 0

"""Stream files: golden fixtures, round trips, the reader and fidelity.

The committed fixtures under ``fixtures/`` are golden files: one small
trace per scenario, recorded with the pinned configs below.  The byte
tests pin two contracts at once — the trace serialisation (header layout,
sorted keys, record format) and the generators' determinism (same config
=> same stream) — so either regressing shows up as a fixture diff, not a
silently different benchmark workload.  ``read_trace`` / ``load_trace``
are the one reader of stream files, with or without a header.

Regenerate after an *intentional* format or generator change with::

    PYTHONPATH=src python tests/workloads/test_replay.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.documents import Document
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.workloads import (
    SCENARIO_NAMES,
    load_trace,
    make_generator,
    read_trace,
    read_trace_header,
    scenario_preset,
    write_trace,
)
from repro.workloads.generator import WorkloadConfig
from repro.workloads.replay import EXTERNAL_SCENARIO, TRACE_FORMAT, TRACE_VERSION

FIXTURE_DIR = Path(__file__).parent / "fixtures"
#: Documents per committed fixture — enough to exercise every scenario's
#: sampling paths, small enough to keep the fixtures reviewable.
FIXTURE_DOCUMENTS = 40


def fixture_config(scenario: str) -> WorkloadConfig:
    """The pinned config a committed fixture was recorded with."""
    return scenario_preset(scenario, seed=13, tweets_per_second=50.0)


def fixture_path(scenario: str) -> Path:
    return FIXTURE_DIR / f"{scenario}.trace.jsonl"


def record(config: WorkloadConfig, n_documents: int, path: Path) -> int:
    """Generate ``n_documents`` from ``config``'s scenario and write a trace."""
    return write_trace(make_generator(config).generate(n_documents), path, config)


def headerless_copy(source: Path, path: Path) -> Path:
    """``source`` without its header line (``tail -n +2``): foreign data."""
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[1:]), encoding="utf-8")
    return path


class TestGoldenFixtures:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_recording_reproduces_committed_fixture(self, scenario, tmp_path):
        """Same pinned config => byte-identical trace file."""
        fresh = tmp_path / "fresh.trace.jsonl"
        written = record(fixture_config(scenario), FIXTURE_DOCUMENTS, fresh)
        assert written == FIXTURE_DOCUMENTS
        assert fresh.read_bytes() == fixture_path(scenario).read_bytes()

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_replay_then_rerecord_is_identity(self, scenario, tmp_path):
        """record -> replay -> re-record round-trips to the same bytes."""
        header, documents = load_trace(fixture_path(scenario))
        rewritten = tmp_path / "rewritten.trace.jsonl"
        write_trace(documents, rewritten, WorkloadConfig(**header["workload"]))
        assert rewritten.read_bytes() == fixture_path(scenario).read_bytes()

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_replayed_documents_match_live_generator(self, scenario):
        live = make_generator(fixture_config(scenario)).generate(FIXTURE_DOCUMENTS)
        replayed = load_trace(fixture_path(scenario))[1]
        assert [d.doc_id for d in replayed] == [d.doc_id for d in live]
        assert [d.tags for d in replayed] == [d.tags for d in live]
        # Timestamps survive the JSON round trip exactly (repr round-trip),
        # so replayed runs bucket documents into the same report rounds.
        assert [d.timestamp for d in replayed] == [d.timestamp for d in live]

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_header_records_provenance(self, scenario):
        header = read_trace_header(fixture_path(scenario))
        assert header["format"] == TRACE_FORMAT
        assert header["version"] == TRACE_VERSION
        assert header["scenario"] == scenario
        assert header["n_documents"] == FIXTURE_DOCUMENTS
        # The full workload config round-trips through the header, so a
        # trace is self-describing: the exact generator settings can be
        # reconstructed (and validated) from the file alone.
        restored = WorkloadConfig(**header["workload"])
        restored.validate()
        assert restored == fixture_config(scenario)


class TestTraceFormat:
    def test_external_trace_has_no_workload_provenance(self, tmp_path):
        documents = make_generator(fixture_config("legacy")).generate(5)
        path = tmp_path / "external.trace.jsonl"
        write_trace(documents, path)  # no config: converted foreign data
        header, replayed = load_trace(path)
        assert header["scenario"] == EXTERNAL_SCENARIO
        assert header["workload"] is None
        assert [d.tags for d in replayed] == [d.tags for d in documents]

    def test_written_trace_always_has_a_header(self, tmp_path):
        path = tmp_path / "empty.trace.jsonl"
        assert write_trace([], path) == 0
        header, documents = load_trace(path)
        assert header["n_documents"] == 0
        assert documents == []

    def test_unknown_format_is_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        header = {"format": "other-trace", "version": TRACE_VERSION}
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown stream format 'other-trace'"):
            read_trace_header(path)
        with pytest.raises(ValueError, match="unknown stream format"):
            list(read_trace(path))

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = tmp_path / "future.trace.jsonl"
        header = {"format": TRACE_FORMAT, "version": TRACE_VERSION + 1,
                  "scenario": "legacy", "n_documents": 0, "workload": None}
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported trace version"):
            read_trace_header(path)
        with pytest.raises(ValueError, match="unsupported trace version"):
            load_trace(path)

    def test_truncated_trace_is_rejected(self, tmp_path):
        lines = fixture_path("legacy").read_text(encoding="utf-8").splitlines()
        path = tmp_path / "truncated.trace.jsonl"
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_trace(path)

    def test_appended_records_are_rejected(self, tmp_path):
        lines = fixture_path("legacy").read_text(encoding="utf-8").splitlines()
        path = tmp_path / "appended.trace.jsonl"
        path.write_text("\n".join(lines + lines[-1:]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="declares 40 documents, file holds 41"):
            load_trace(path)

    def test_corrupt_record_is_rejected_with_line_number(self, tmp_path):
        lines = fixture_path("legacy").read_text(encoding="utf-8").splitlines()
        lines[3] = "{not json"
        path = tmp_path / "corrupt.trace.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":4: invalid JSON"):
            list(read_trace(path))

    def test_read_is_lazy_iterator(self, tmp_path):
        iterator = read_trace(fixture_path("legacy"))
        assert next(iterator).doc_id == 0


#: The first lines of a burst trace recorded before the burst, diurnal and
#: adversarial generators were removed (``n_documents`` cut to 3): its
#: workload carries the eight config keys that went with them.
PRE_REMOVAL_BURST_TRACE = [
    '{"format": "repro-trace", "n_documents": 3, "scenario": "burst", '
    '"version": 1, "workload": {"adversarial_repeat_fraction": 0.12, '
    '"adversarial_repeat_window": 40, "burst_duration_seconds": 15.0, '
    '"burst_intensity": 4.0, "burst_rate_per_minute": 2.0, "burst_share": 0.7, '
    '"diurnal_amplitude": 0.6, "diurnal_period_seconds": 240.0, '
    '"intra_topic_probability": 0.95, "max_tags_per_tweet": 8, "n_topics": 80, '
    '"new_topic_rate": 0.2, "scenario": "burst", "seed": 13, "tag_skew": 1.0, '
    '"tags_per_topic": 25, "tags_per_tweet_skew": 0.25, '
    '"topic_decay_rate": 0.0005, "topic_skew": 1.0, "trend_anchor_share": 0.3, '
    '"trend_decay_seconds": 45.0, "trend_mix": 0.35, '
    '"trend_plateau_seconds": 90.0, "trend_pool": 5, "trend_rise_seconds": 30.0, '
    '"tweets_per_second": 50.0, "untagged_allowed": true}}',
    '{"id": 0, "timestamp": 0.0, "tags": ["topic0_tag0", "topic0_tag1", '
    '"topic0_tag14", "topic0_tag2", "topic0_tag3"]}',
    '{"id": 1, "timestamp": 0.02, "tags": ["topic1_tag0", "topic1_tag13", '
    '"topic1_tag2", "topic1_tag5"]}',
    '{"id": 2, "timestamp": 0.04, "tags": ["topic41_tag11"]}',
]

DELETED_WORKLOAD_KEYS = {
    "burst_rate_per_minute", "burst_duration_seconds", "burst_intensity",
    "burst_share", "diurnal_period_seconds", "diurnal_amplitude",
    "adversarial_repeat_fraction", "adversarial_repeat_window",
}


class TestOneReader:
    """``read_trace`` / ``load_trace`` read every stream file: with a
    header (validated) or without one (foreign data, header ``None``)."""

    def test_headerless_file_loads_with_no_header(self, tmp_path):
        path = headerless_copy(fixture_path("legacy"), tmp_path / "plain.jsonl")
        assert read_trace_header(path) is None
        header, documents = load_trace(path)
        assert header is None
        assert documents == load_trace(fixture_path("legacy"))[1]
        assert len(documents) == FIXTURE_DOCUMENTS

    def test_headerless_file_is_not_count_checked(self, tmp_path):
        path = headerless_copy(fixture_path("legacy"), tmp_path / "plain.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        assert len(load_trace(path)[1]) == FIXTURE_DOCUMENTS - 1

    def test_empty_file_is_an_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert read_trace_header(path) is None
        assert load_trace(path) == (None, [])

    @pytest.mark.parametrize("with_header", [True, False])
    def test_blank_lines_are_skipped(self, tmp_path, with_header):
        lines = fixture_path("legacy").read_text(encoding="utf-8").splitlines()
        if not with_header:
            lines = lines[1:]
        # Blank and whitespace-only lines before, between and after records.
        padded = ["", "   "] + [line for pair in zip(lines, [""] * len(lines))
                                 for line in pair] + ["\t"]
        path = tmp_path / "padded.jsonl"
        path.write_text("\n".join(padded) + "\n", encoding="utf-8")
        header, documents = load_trace(path)
        assert (header is not None) == with_header
        assert documents == load_trace(fixture_path("legacy"))[1]

    def test_invalid_json_is_refused_with_its_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 1, "tags": ["a"]}\n\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:3: invalid JSON"):
            load_trace(path)

    def test_invalid_json_on_the_first_line_is_refused(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "repro-trace"\n', encoding="utf-8")
        with pytest.raises(ValueError, match="bad.jsonl:1: invalid JSON"):
            read_trace_header(path)

    def test_only_the_first_record_can_be_a_header(self, tmp_path):
        lines = fixture_path("legacy").read_text(encoding="utf-8").splitlines()
        path = tmp_path / "two-headers.jsonl"
        path.write_text("\n".join(lines[1:3] + lines[:1]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed tweet record"):
            load_trace(path)

    def test_malformed_first_record_is_refused(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tags": ["a"]}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="malformed tweet record"):
            load_trace(path)

    def test_file_recorded_before_the_scenario_removal_replays(self, tmp_path):
        path = tmp_path / "burst.trace.jsonl"
        path.write_text("\n".join(PRE_REMOVAL_BURST_TRACE) + "\n", encoding="utf-8")
        header, documents = load_trace(path)
        assert header["scenario"] == "burst"
        assert DELETED_WORKLOAD_KEYS <= set(header["workload"])
        assert [d.doc_id for d in documents] == [0, 1, 2]
        assert [d.timestamp for d in documents] == [0.0, 0.02, 0.04]
        assert documents[2].tags == frozenset({"topic41_tag11"})

    def test_file_recorded_before_the_scenario_removal_runs(self, tmp_path, capsys):
        path = tmp_path / "burst.trace.jsonl"
        path.write_text("\n".join(PRE_REMOVAL_BURST_TRACE) + "\n", encoding="utf-8")
        assert main(["run", "--trace", str(path), "--k", "2",
                     "--partitioners", "2", "--window", "50",
                     "--bootstrap", "20"]) == 0
        output = capsys.readouterr().out
        assert "documents processed       : 3" in output
        # No generator of that name is left to vouch for the provenance.
        assert "workload scenario" not in output

    def test_header_without_a_version_is_refused(self, tmp_path):
        path = tmp_path / "unversioned.jsonl"
        path.write_text(json.dumps({"format": TRACE_FORMAT}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported trace version None"):
            load_trace(path)

    def test_first_line_that_is_no_object_is_a_malformed_record(self, tmp_path):
        path = tmp_path / "array.jsonl"
        path.write_text('["format", "repro-trace"]\n', encoding="utf-8")
        assert read_trace_header(path) is None
        with pytest.raises(ValueError, match="malformed tweet record"):
            load_trace(path)

    def test_crlf_line_endings_are_read(self, tmp_path):
        text = fixture_path("legacy").read_text(encoding="utf-8")
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        header, documents = load_trace(path)
        assert header == read_trace_header(fixture_path("legacy"))
        assert documents == load_trace(fixture_path("legacy"))[1]

    def test_text_and_unicode_tags_round_trip(self, tmp_path):
        documents = [
            Document(doc_id=0, tags=frozenset({"café", "東京"}), timestamp=0.5,
                     text="at the #café in #東京"),
            Document(doc_id=1, tags=frozenset(), timestamp=1.25),
        ]
        path = tmp_path / "text.trace.jsonl"
        write_trace(documents, path)
        assert load_trace(path)[1] == documents

    def test_foreign_data_converts_to_an_external_trace(self, tmp_path):
        plain = headerless_copy(fixture_path("trending"), tmp_path / "plain.jsonl")
        _, documents = load_trace(plain)
        converted = tmp_path / "converted.trace.jsonl"
        write_trace(documents, converted)
        header, replayed = load_trace(converted)
        assert header["scenario"] == EXTERNAL_SCENARIO
        assert header["n_documents"] == FIXTURE_DOCUMENTS
        assert replayed == documents
        # The records are written exactly as the fixture holds them.
        assert converted.read_text(encoding="utf-8").splitlines()[1:] == (
            plain.read_text(encoding="utf-8").splitlines())

    def test_client_ingest_reads_a_recorded_trace(self, tmp_path, capsys):
        from repro.service import ServiceDaemon

        path = tmp_path / "feed.trace.jsonl"
        assert main(["record", "--documents", "120", "--seed", "5",
                     "--output", str(path)]) == 0
        capsys.readouterr()
        with ServiceDaemon(SystemConfig(executor="service")) as daemon:
            host, port = daemon.address
            assert main(["client", "--host", host, "--port", str(port),
                         "ingest", "--trace", str(path),
                         "--ingest-batch", "50"]) == 0
            assert capsys.readouterr().out.startswith("ingested 120 documents")
            assert main(["client", "--host", host, "--port", str(port),
                         "shutdown"]) == 0
        # Every document and not the header line.
        assert daemon.final_report.documents_processed == 120


class TestReplayFidelity:
    """A replayed run is the same experiment as the live-generator run."""

    def test_replayed_run_reproduces_live_report(self, tmp_path):
        config = scenario_preset("trending", seed=13, tweets_per_second=50.0)
        live_documents = make_generator(config).generate(2000)
        path = tmp_path / "trending.trace.jsonl"
        write_trace(live_documents, path, config)

        def run(documents):
            system = TagCorrelationSystem(SystemConfig(
                algorithm="DS", k=4, n_partitioners=3,
                window_mode="count", window_size=500,
                bootstrap_documents=200, quality_check_interval=120,
                report_interval_seconds=15.0,
            ))
            return system.run(documents)

        live = run(live_documents)
        replayed = run(load_trace(path)[1])
        for field in ("documents_processed", "tagged_documents",
                      "communication_avg", "calculator_loads",
                      "n_repartitions", "coefficients_reported",
                      "duplicate_reports", "notification_messages"):
            assert getattr(replayed, field) == getattr(live, field), field


def _regenerate() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for scenario in SCENARIO_NAMES:
        written = record(
            fixture_config(scenario), FIXTURE_DOCUMENTS, fixture_path(scenario)
        )
        print(f"wrote {fixture_path(scenario)} ({written} documents)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)

"""Trace recording/replay: golden fixtures, round trips and fidelity.

The committed fixtures under ``fixtures/`` are golden files: one small
trace per scenario, recorded with the pinned configs below.  The byte
tests pin two contracts at once — the trace serialisation (header layout,
sorted keys, record format) and the generators' determinism (same config
=> same stream) — so either regressing shows up as a fixture diff, not a
silently different benchmark workload.

Regenerate after an *intentional* format or generator change with::

    PYTHONPATH=src python tests/workloads/test_replay.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.workloads import (
    SCENARIO_NAMES,
    load_trace,
    make_generator,
    read_trace,
    read_trace_header,
    record_trace,
    replay_documents,
    scenario_preset,
    write_documents,
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


class TestGoldenFixtures:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_recording_reproduces_committed_fixture(self, scenario, tmp_path):
        """Same pinned config => byte-identical trace file."""
        fresh = tmp_path / "fresh.trace.jsonl"
        written = record_trace(fixture_config(scenario), FIXTURE_DOCUMENTS, fresh)
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
        replayed = replay_documents(fixture_path(scenario))
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

    def test_plain_tweet_file_is_rejected(self, tmp_path):
        documents = make_generator(fixture_config("legacy")).generate(5)
        path = tmp_path / "plain.jsonl"
        write_documents(documents, path)
        with pytest.raises(ValueError, match="not a repro-trace"):
            read_trace_header(path)

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = tmp_path / "future.trace.jsonl"
        header = {"format": TRACE_FORMAT, "version": TRACE_VERSION + 1,
                  "scenario": "legacy", "n_documents": 0, "workload": None}
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported trace version"):
            read_trace_header(path)

    def test_truncated_trace_is_rejected(self, tmp_path):
        lines = fixture_path("legacy").read_text(encoding="utf-8").splitlines()
        path = tmp_path / "truncated.trace.jsonl"
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_trace(path)

    def test_corrupt_record_is_rejected_with_line_number(self, tmp_path):
        lines = fixture_path("legacy").read_text(encoding="utf-8").splitlines()
        lines[3] = "{not json"
        path = tmp_path / "corrupt.trace.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":4: invalid JSON"):
            list(read_trace(path))

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.trace.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="not a repro-trace"):
            read_trace_header(path)


class TestReplayFidelity:
    """A replayed run is the same experiment as the live-generator run."""

    def test_replayed_run_reproduces_live_report(self, tmp_path):
        config = scenario_preset("burst", seed=13, tweets_per_second=50.0)
        live_documents = make_generator(config).generate(2000)
        path = tmp_path / "burst.trace.jsonl"
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
        replayed = run(replay_documents(path))
        for field in ("documents_processed", "tagged_documents",
                      "communication_avg", "calculator_loads",
                      "n_repartitions", "coefficients_reported",
                      "duplicate_reports", "notification_messages"):
            assert getattr(replayed, field) == getattr(live, field), field


def _regenerate() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for scenario in SCENARIO_NAMES:
        written = record_trace(
            fixture_config(scenario), FIXTURE_DOCUMENTS, fixture_path(scenario)
        )
        print(f"wrote {fixture_path(scenario)} ({written} documents)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)

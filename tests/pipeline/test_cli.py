"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.workloads.replay import load_trace, read_trace_header


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_record_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["record"])

    def test_generate_is_gone(self):
        # `record` is the one writer of stream files.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--output", "t.jsonl"])

    @pytest.mark.parametrize("command", ["run", "compare", "connectivity"])
    def test_input_flag_is_gone(self, command):
        # --trace is the one file flag of every command that reads a stream.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--input", "t.jsonl"])
        assert build_parser().parse_args([command, "--trace", "t.jsonl"]).trace == "t.jsonl"

    @pytest.mark.parametrize("scenario", ["burst", "diurnal", "adversarial"])
    def test_removed_scenarios_are_refused(self, scenario):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["record", "--scenario", scenario,
                                       "--output", "t.jsonl"])

    def test_client_ingest_reads_trace_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "ingest", "--input", "t.jsonl"])
        args = build_parser().parse_args(["client", "ingest", "--trace", "t.jsonl"])
        assert args.trace == "t.jsonl"


class TestRecord:
    def test_writes_trace(self, tmp_path, capsys):
        output = tmp_path / "trace.jsonl"
        exit_code = main(
            ["record", "--documents", "200", "--seed", "3", "--output", str(output)]
        )
        assert exit_code == 0
        header, documents = load_trace(output)
        assert header["scenario"] == "legacy"
        assert header["workload"]["seed"] == 3
        assert len(documents) == 200
        assert "recorded 200 legacy documents" in capsys.readouterr().out

    def test_recording_is_byte_reproducible(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for output in (first, second):
            assert main(["record", "--documents", "150", "--scenario", "trending",
                         "--seed", "4", "--output", str(output)]) == 0
        assert first.read_bytes() == second.read_bytes()
        header = read_trace_header(first)
        # The trending preset's shape fields come with the recorded config.
        assert header["workload"]["new_topic_rate"] == 0.0
        assert header["workload"]["n_topics"] == 200  # --topics default


class TestRun:
    def test_run_on_generated_workload(self, capsys):
        exit_code = main(
            [
                "run",
                "--documents", "1200",
                "--topics", "40",
                "--algorithm", "DS",
                "--k", "3",
                "--partitioners", "2",
                "--window", "300",
                "--bootstrap", "150",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "average communication" in output
        assert "algorithm                 : DS" in output

    def test_run_with_process_executor(self, capsys):
        exit_code = main(
            [
                "run",
                "--documents", "800",
                "--topics", "40",
                "--k", "2",
                "--partitioners", "2",
                "--window", "250",
                "--bootstrap", "120",
                "--executor", "process",
                "--workers", "2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "execution engine          : process (2 workers)" in out
        assert "remote layer              : workers busy " in out
        assert "end-of-stream tail " in out

    @pytest.mark.parametrize(
        "flag", ["--batch-size", "--link-batch", "--report-chunk"]
    )
    def test_removed_cadence_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--documents", "100", flag, "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--calculator", "sketch"], ["--minhash-perms", "64"]]
    )
    def test_removed_sketch_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--documents", "100", *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--repartition-at", "100"], "repartition_policy='fixed'"),
            (["--k", "0"], "k must be at least 1"),
            (
                ["--executor", "process", "--workers", "2",
                 "--repartition-handoff", "migrate"],
                "driver-side layers only",
            ),
        ],
        ids=["repartition-at-without-fixed", "k-zero", "process-migrate"],
    )
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_invalid_configuration_is_one_line_not_a_traceback(
        self, command, argv, message, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--documents", "100", *argv])
        # SystemExit(str) prints its message on stderr and exits 1.
        assert isinstance(excinfo.value.code, str)
        assert excinfo.value.code.startswith("invalid configuration: ")
        assert message in excinfo.value.code
        assert "\n" not in excinfo.value.code
        assert capsys.readouterr().out == ""

    def test_serve_validates_before_binding(self):
        with pytest.raises(SystemExit, match="k must be at least 1"):
            main(["serve", "--port", "0", "--k", "0"])

    def test_run_from_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["record", "--documents", "800", "--seed", "5", "--output", str(trace)])
        capsys.readouterr()
        exit_code = main(
            [
                "run",
                "--trace", str(trace),
                "--k", "2",
                "--partitioners", "2",
                "--window", "200",
                "--bootstrap", "100",
            ]
        )
        assert exit_code == 0
        assert "documents processed       : 800" in capsys.readouterr().out


class TestScenarios:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "frobnicate"])

    def test_run_with_scenario_preset(self, capsys):
        exit_code = main(
            [
                "run",
                "--documents", "1200",
                "--scenario", "trending",
                "--k", "3",
                "--partitioners", "2",
                "--window", "300",
                "--bootstrap", "150",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "workload scenario         : trending" in output
        assert "documents processed       : 1200" in output

    def test_record_then_replay_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "trending.trace.jsonl"
        exit_code = main(
            [
                "record",
                "--documents", "900",
                "--scenario", "trending",
                "--seed", "9",
                "--output", str(trace),
            ]
        )
        assert exit_code == 0
        assert "recorded 900 trending documents" in capsys.readouterr().out
        header = read_trace_header(trace)
        assert header["scenario"] == "trending"
        assert header["n_documents"] == 900
        exit_code = main(
            [
                "run",
                "--trace", str(trace),
                "--k", "2",
                "--partitioners", "2",
                "--window", "250",
                "--bootstrap", "120",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        # Replayed runs inherit the trace's recorded scenario provenance.
        assert "workload scenario         : trending" in output
        assert "documents processed       : 900" in output

    def test_run_reads_a_headerless_stream_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["record", "--documents", "300", "--output", str(trace)])
        plain = tmp_path / "plain.jsonl"
        plain.write_text("".join(trace.read_text().splitlines(keepends=True)[1:]))
        capsys.readouterr()
        exit_code = main(
            [
                "run",
                "--trace", str(plain),
                "--k", "2",
                "--partitioners", "2",
                "--window", "100",
                "--bootstrap", "50",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "documents processed       : 300" in output
        # Foreign data has no provenance to print.
        assert "workload scenario" not in output

    def test_run_on_an_external_trace_prints_no_scenario(self, tmp_path, capsys):
        from repro.workloads import TwitterLikeGenerator, WorkloadConfig, write_trace

        trace = tmp_path / "external.trace.jsonl"
        write_trace(TwitterLikeGenerator(WorkloadConfig(seed=2)).generate(200), trace)
        exit_code = main(["run", "--trace", str(trace), "--k", "2",
                          "--partitioners", "2", "--window", "100",
                          "--bootstrap", "50"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "documents processed       : 200" in output
        assert "workload scenario" not in output

    def test_run_refuses_an_unknown_stream_format(self, tmp_path):
        other = tmp_path / "other.jsonl"
        other.write_text('{"format": "other", "version": 1}\n')
        with pytest.raises(ValueError, match="unknown stream format"):
            main(["run", "--trace", str(other), "--k", "2", "--partitioners", "2"])


class TestCompare:
    def test_compares_requested_algorithms(self, capsys):
        exit_code = main(
            [
                "compare",
                "--documents", "1000",
                "--topics", "40",
                "--algorithms", "DS,SCL",
                "--k", "3",
                "--partitioners", "2",
                "--window", "250",
                "--bootstrap", "120",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "DS" in output and "SCL" in output
        assert "comm" in output
        # The command prints the scenario it generated the stream from.
        assert "workload scenario         : legacy" in output

    def test_compare_from_trace_prints_the_recorded_scenario(self, tmp_path, capsys):
        trace = tmp_path / "trending.trace.jsonl"
        main(["record", "--documents", "600", "--scenario", "trending",
              "--output", str(trace)])
        capsys.readouterr()
        exit_code = main(
            [
                "compare",
                "--trace", str(trace),
                "--algorithms", "DS",
                "--k", "2",
                "--partitioners", "2",
                "--window", "200",
                "--bootstrap", "100",
            ]
        )
        assert exit_code == 0
        assert "workload scenario         : trending" in capsys.readouterr().out


class TestConnectivityAndTheory:
    def test_connectivity_table(self, capsys):
        exit_code = main(
            [
                "connectivity",
                "--documents", "1500",
                "--tps", "20",
                "--windows", "0.5,1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "max tags %" in output

    def test_connectivity_reads_a_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["record", "--documents", "600", "--tps", "20", "--output", str(trace)])
        capsys.readouterr()
        generated = main(["connectivity", "--documents", "600", "--tps", "20",
                          "--windows", "0.5"])
        from_trace = capsys.readouterr().out
        assert generated == 0
        assert main(["connectivity", "--trace", str(trace),
                     "--windows", "0.5"]) == 0
        assert capsys.readouterr().out == from_trace

    def test_theory_tables(self, capsys):
        exit_code = main(["theory"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Section 5.1" in output
        assert "E[communication]" in output


class TestClientIngest:
    def test_empty_input_file_ingests_nothing(self, tmp_path, capsys):
        from repro.pipeline import SystemConfig
        from repro.service import ServiceDaemon

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with ServiceDaemon(SystemConfig(executor="service")) as daemon:
            host, port = daemon.address
            exit_code = main(
                ["client", "--host", host, "--port", str(port),
                 "ingest", "--trace", str(empty)]
            )
            assert exit_code == 0
            assert capsys.readouterr().out.strip() == "ingested 0 documents"
            assert main(
                ["client", "--host", host, "--port", str(port), "shutdown"]
            ) == 0
        assert daemon.final_report.documents_processed == 0

    def test_ingest_without_a_trace_is_refused_before_connecting(self):
        with pytest.raises(SystemExit, match="ingest requires --trace"):
            main(["client", "--port", "1", "ingest"])

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_batch_size_below_one_refused_before_connecting(
        self, tmp_path, size
    ):
        feed = tmp_path / "feed.jsonl"
        main(["record", "--documents", "5", "--output", str(feed)])
        # Port 1 has no daemon: reaching the connection would fail with a
        # different message.
        with pytest.raises(SystemExit, match="--ingest-batch must be at least 1"):
            main(["client", "--port", "1", "ingest", "--trace", str(feed),
                  "--ingest-batch", size])

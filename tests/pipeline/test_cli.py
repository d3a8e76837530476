"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.workloads.io import load_documents
from repro.workloads.replay import read_trace_header


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])


class TestGenerate:
    def test_writes_trace(self, tmp_path, capsys):
        output = tmp_path / "trace.jsonl"
        exit_code = main(
            ["generate", "--documents", "200", "--seed", "3", "--output", str(output)]
        )
        assert exit_code == 0
        documents = load_documents(output)
        assert len(documents) == 200
        assert "wrote 200 documents" in capsys.readouterr().out


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
        main(["generate", "--documents", "800", "--seed", "5", "--output", str(trace)])
        capsys.readouterr()
        exit_code = main(
            [
                "run",
                "--input", str(trace),
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
        trace = tmp_path / "burst.trace.jsonl"
        exit_code = main(
            [
                "record",
                "--documents", "900",
                "--scenario", "burst",
                "--seed", "9",
                "--output", str(trace),
            ]
        )
        assert exit_code == 0
        assert "recorded 900 burst documents" in capsys.readouterr().out
        header = read_trace_header(trace)
        assert header["scenario"] == "burst"
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
        assert "workload scenario         : burst" in output
        assert "documents processed       : 900" in output

    def test_run_rejects_plain_tweet_file_as_trace(self, tmp_path, capsys):
        plain = tmp_path / "plain.jsonl"
        main(["generate", "--documents", "50", "--output", str(plain)])
        capsys.readouterr()
        with pytest.raises(ValueError, match="not a repro-trace"):
            main(
                [
                    "run",
                    "--trace", str(plain),
                    "--k", "2",
                    "--partitioners", "2",
                ]
            )


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
                 "ingest", "--input", str(empty)]
            )
            assert exit_code == 0
            assert capsys.readouterr().out.strip() == "ingested 0 documents"
            assert main(
                ["client", "--host", host, "--port", str(port), "shutdown"]
            ) == 0
        assert daemon.final_report.documents_processed == 0

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_batch_size_below_one_refused_before_connecting(
        self, tmp_path, size
    ):
        feed = tmp_path / "feed.jsonl"
        main(["generate", "--documents", "5", "--output", str(feed)])
        # Port 1 has no daemon: reaching the connection would fail with a
        # different message.
        with pytest.raises(SystemExit, match="--ingest-batch must be at least 1"):
            main(["client", "--port", "1", "ingest", "--input", str(feed),
                  "--ingest-batch", size])

"""Unit tests for tools/bench_gate.py, on synthetic ``run.py`` output and a
throwaway git repository."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("bench_gate", ROOT / "tools" / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
DOCS = {"name": "docs_per_s", "unit": "docs/s", "better": "higher", "bound": 0.25}
CPU = {"name": "cpu_ms_per_doc", "unit": "ms", "better": "lower", "bound": 0.25}


def _output(metrics_by_workload, correct=True, failed=0, attempted=100):
    """The last stdout line of ``run.py --trace 0``, after a progress line."""
    result = {
        "correct": correct,
        "host": {"nproc": 2},
        "seconds": 12.0,
        "results": {
            workload: {
                "end_to_end": {
                    "correct": correct,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {name: {"value": value, "unit": "x"}
                                for name, value in metrics.items()},
                },
                "per_layer": None,
            }
            for workload, metrics in metrics_by_workload.items()
        },
    }
    return "[bench] churn_inline seed=7 ...\n" + json.dumps(result) + "\n"


def _judge(base, change, end_to_end=(DOCS, CPU)):
    return bench_gate.judge(base, change, list(end_to_end))


class TestBounds:
    @pytest.mark.parametrize("change, code", [
        (81.0, 0),   # 100 / 81 - 1 = 0.235
        (79.0, 1),   # 100 / 79 - 1 = 0.266
        (80.0, 0),   # exactly at the bound
        (500.0, 0),
    ])
    def test_higher_is_better(self, change, code):
        base = _output({"w": {"docs_per_s": 100.0}})
        assert _judge(base, _output({"w": {"docs_per_s": change}}), [DOCS]) == code

    @pytest.mark.parametrize("change, code", [
        (1.24, 0),
        (1.26, 1),
        (1.25, 0),   # exactly at the bound
        (0.5, 0),
    ])
    def test_lower_is_better(self, change, code):
        base = _output({"w": {"cpu_ms_per_doc": 1.0}})
        assert _judge(base, _output({"w": {"cpu_ms_per_doc": change}}), [CPU]) == code

    def test_one_failing_pair_fails_the_gate(self, capsys):
        base = _output({"a": {"docs_per_s": 100.0}, "b": {"docs_per_s": 100.0}})
        change = _output({"a": {"docs_per_s": 100.0}, "b": {"docs_per_s": 50.0}})
        assert _judge(base, change) == 1
        rows = capsys.readouterr().out.splitlines()
        assert any(row.split()[:2] == ["docs_per_s", "a"] and row.endswith("ok")
                   for row in rows)
        assert any(row.split()[:2] == ["docs_per_s", "b"] and row.endswith("FAIL")
                   for row in rows)

    def test_every_declared_metric_is_compared(self, capsys):
        metrics = {spec["name"]: 1.0 for spec in END_TO_END}
        workloads = {name: metrics for name in ("churn_inline", "fanout_spill")}
        assert _judge(_output(workloads), _output(workloads), END_TO_END) == 0
        rows = [row for row in capsys.readouterr().out.splitlines() if row.endswith(" ok")]
        assert len(rows) == len(END_TO_END) * len(workloads)


class TestCorrectnessAndFailures:
    def test_change_side_incorrect_fails(self, capsys):
        base = _output({"w": {"docs_per_s": 100.0}})
        change = _output({"w": {"docs_per_s": 100.0}}, correct=False)
        assert _judge(base, change) == 1
        assert "correct: false" in capsys.readouterr().out

    def test_failed_share_rise_fails(self):
        base = _output({"w": {"docs_per_s": 100.0}}, failed=1)
        change = _output({"w": {"docs_per_s": 100.0}}, failed=2)
        assert _judge(base, change) == 1

    def test_equal_failed_share_passes(self):
        base = _output({"w": {"docs_per_s": 100.0}}, failed=1)
        assert _judge(base, base) == 0


class TestCoverage:
    def test_workload_on_one_side_is_not_compared(self, capsys):
        base = _output({"old": {"docs_per_s": 100.0}, "both": {"docs_per_s": 100.0}})
        change = _output({"both": {"docs_per_s": 100.0}, "new": {"docs_per_s": 1.0}})
        assert _judge(base, change) == 0
        out = capsys.readouterr().out
        for workload in ("old", "new"):
            assert any(workload in row and row.endswith("not compared")
                       for row in out.splitlines())


class TestMalformed:
    @pytest.mark.parametrize("stdout", [
        "",
        "[bench] crashed\n",
        "{not json\n",
        json.dumps({"correct": True}) + "\n",
        json.dumps({"correct": True, "results": {"w": {"end_to_end": {
            "attempted": 1, "failed": 0, "metrics": {"docs_per_s": {"value": "fast"}},
        }}}}) + "\n",
        json.dumps([1, 2]) + "\n",
    ])
    def test_malformed_output_exits_2(self, stdout):
        good = _output({"w": {"docs_per_s": 100.0}})
        assert _judge(good, stdout) == 2
        assert _judge(stdout, good) == 2


class TestWorsening:
    @pytest.mark.parametrize("base, change, better, expected", [
        (0.0, 0.0, "lower", 0.0),
        (0.0, 1.0, "lower", float("inf")),
        (1.0, 0.0, "higher", float("inf")),
        (0.0, 5.0, "higher", -1.0),
        (2.0, 1.0, "lower", -0.5),
    ])
    def test_zero_and_improving_values(self, base, change, better, expected):
        assert bench_gate.worsening(base, change, better) == expected


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


class TestMain:
    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        repo = tmp_path / "repo"
        repo.mkdir()
        (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [DOCS]}))
        (repo / "marker.txt").write_text("base\n")
        _git(repo, "init", "-q")
        _git(repo, "add", ".")
        _git(repo, "commit", "-q", "-m", "base")
        (repo / "marker.txt").write_text("change\n")
        monkeypatch.setattr(bench_gate, "ROOT", repo)
        return repo

    def test_unknown_base_ref_exits_2(self, repo, capsys):
        assert bench_gate.main(["no-such-ref"]) == 2
        assert "cannot export" in capsys.readouterr().out

    @pytest.mark.parametrize("change_docs, code", [(100.0, 0), (10.0, 1)])
    def test_runs_base_tree_first_then_checkout(self, repo, monkeypatch, change_docs, code):
        runs = []

        def fake_run_bench(tree):
            runs.append((tree, (tree / "marker.txt").read_text()))
            docs = 100.0 if tree != repo else change_docs
            return _output({"w": {"docs_per_s": docs}})

        monkeypatch.setattr(bench_gate, "run_bench", fake_run_bench)
        assert bench_gate.main(["HEAD"]) == code
        (base_tree, base_marker), (change_tree, change_marker) = runs
        assert (base_marker, change_marker) == ("base\n", "change\n")
        assert change_tree == repo
        assert not base_tree.exists()

    def test_base_tree_removed_when_the_run_raises(self, repo, monkeypatch):
        trees = []

        def crashing_run_bench(tree):
            trees.append(tree)
            raise RuntimeError("benchmark crashed")

        monkeypatch.setattr(bench_gate, "run_bench", crashing_run_bench)
        with pytest.raises(RuntimeError):
            bench_gate.main(["HEAD"])
        assert len(trees) == 1 and not trees[0].exists()

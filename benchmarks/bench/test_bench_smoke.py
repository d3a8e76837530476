"""Tier-1 smoke test of the benchmark harness (under 30 s).

Runs every workload at smoke size, untraced and traced, through the same
command the driver uses, and checks the contract between ``run.py`` and
``BENCHMARK.json``.  Nothing here depends on the number of cores.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", *args],
        stdout=subprocess.PIPE, text=True, timeout=120, check=False,
    )


def check_result(result: dict) -> dict:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result["metrics"]


def driver_result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout
    return check_result(json.loads(done.stdout.splitlines()[-1]))


def check_metrics(metrics: dict, section: str) -> None:
    """Every declared metric exactly once, declared unit, finite value."""
    declared = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    assert sorted(metrics) == sorted(declared)
    for name, entry in metrics.items():
        assert entry["unit"] == declared[name], name
        assert math.isfinite(entry["value"]), name


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    assert any(
        entry["name"] == "setup_s" and entry["unit"] == "s"
        and entry["better"] == "lower"
        for entry in SPEC["end_to_end"]
    )
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}


def test_every_workload_emits_every_declared_metric():
    done = run_bench()  # all workloads, untraced and traced
    assert done.returncode == 0, done.stdout
    results = json.loads(done.stdout.splitlines()[-1])["results"]
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    for sections in results.values():
        check_metrics(check_result(sections["end_to_end"]), "end_to_end")
        per_layer = check_result(sections["per_layer"])
        check_metrics(per_layer, "per_layer")
        # Operator, executor and service self times plus the substrate's
        # account for the whole stream phase.
        share = per_layer["trace.stream_accounted_share"]["value"]
        assert share == pytest.approx(1.0, abs=0.02)


def test_driver_form_prints_the_per_layer_result_last():
    done = run_bench("--workload", "trending_inline", "--trace", "1")
    check_metrics(driver_result(done), "per_layer")


def test_corrupted_expected_digest_fails_the_command(tmp_path):
    pins = tmp_path / "expected.json"
    done = run_bench(
        "--workload", "churn_inline", "--trace", "0",
        "--record-expected", str(pins),
    )
    check_metrics(driver_result(done), "end_to_end")
    recorded = json.loads(pins.read_text(encoding="utf-8"))
    assert recorded
    assert run_bench(
        "--workload", "churn_inline", "--trace", "0", "--expected", str(pins)
    ).returncode == 0
    for pin in recorded.values():
        pin["digest"] = "0" * 64
    pins.write_text(json.dumps(recorded), encoding="utf-8")
    done = run_bench(
        "--workload", "churn_inline", "--trace", "0", "--expected", str(pins)
    )
    assert done.returncode != 0
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False

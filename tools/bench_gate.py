#!/usr/bin/env python3
"""Benchmark gate: hold this checkout to BENCHMARK.json's bounds against a
base commit.

Usage::

    python tools/bench_gate.py BASE_REF

Exports the committed tree of ``BASE_REF`` into a temporary directory
(``git archive``), runs that tree's ``benchmarks/bench/run.py --trace 0``,
then this checkout's, and compares the result objects on the last line of
their output.  A metric's worsening is ``change / base - 1`` when lower is
better and ``base / change - 1`` when higher is better; a pair fails when
it exceeds the metric's ``bound`` in this checkout's ``BENCHMARK.json``.
Workloads or metrics only one side reports are listed as not compared.

Exit code 0 when every pair is within its bound; 1 when one is not, the
change side reports ``correct: false`` or a workload's failed-operation
share rose; 2 when a side's output is malformed.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_result(stdout: str) -> dict:
    """The result object on the last line of ``run.py``'s output;
    ``ValueError`` when it is missing or not of the documented shape."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    try:
        sides = [entry["end_to_end"] for entry in result["results"].values()]
        well_formed = isinstance(result["correct"], bool) and all(
            isinstance(side["attempted"], int) and isinstance(side["failed"], int)
            and all(isinstance(metric["value"], (int, float))
                    for metric in side["metrics"].values())
            for side in sides
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"unexpected result object: {exc!r}") from exc
    if not well_formed:
        raise ValueError("unexpected result object: wrong value types")
    return result


def worsening(base: float, change: float, better: str) -> float:
    worse, reference = (base, change) if better == "higher" else (change, base)
    if reference == 0:
        return 0.0 if worse == 0 else float("inf")
    return worse / reference - 1.0


def failed_share(side: dict) -> float:
    return side["failed"] / side["attempted"] if side["attempted"] else 0.0


def judge(base_stdout: str, change_stdout: str, end_to_end: list[dict]) -> int:
    """Print one row per metric × workload; return the exit code."""
    try:
        base, change = parse_result(base_stdout), parse_result(change_stdout)
    except ValueError as exc:
        print(f"[gate] malformed benchmark output: {exc}")
        return 2
    failed = not change["correct"]
    if failed:
        print("[gate] FAIL: the change side reports correct: false")
    print(f"  {'metric':<20}{'workload':<17}{'parent':>12}{'change':>12}"
          f"{'worse':>9}{'bound':>7}  verdict")
    for workload in sorted(base["results"].keys() | change["results"].keys()):
        if workload not in base["results"] or workload not in change["results"]:
            print(f"  {'*':<20}{workload:<17}{'':>40}  not compared")
            continue
        old = base["results"][workload]["end_to_end"]
        new = change["results"][workload]["end_to_end"]
        for spec in end_to_end:
            name = spec["name"]
            if name not in old["metrics"] or name not in new["metrics"]:
                print(f"  {name:<20}{workload:<17}{'':>40}  not compared")
                continue
            before, after = old["metrics"][name]["value"], new["metrics"][name]["value"]
            worse = worsening(before, after, spec["better"])
            failed = failed or worse > spec["bound"]
            print(f"  {name:<20}{workload:<17}{before:>12.5g}{after:>12.5g}{worse:>+9.3f}"
                  f"{spec['bound']:>7.2f}  {'ok' if worse <= spec['bound'] else 'FAIL'}")
        if failed_share(new) > failed_share(old):
            failed = True
            print(f"  {'failed share':<20}{workload:<17}{failed_share(old):>12.5g}"
                  f"{failed_share(new):>12.5g}{'':>16}  FAIL")
    return 1 if failed else 0


def run_bench(tree: Path) -> str:
    print(f"[gate] {tree}: benchmarks/bench/run.py --trace 0", flush=True)
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "bench" / "run.py"), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    print(done.stdout, end="", flush=True)
    return done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref", help="commit to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", args.base_ref],
        stdout=subprocess.PIPE,
    )
    if archive.returncode != 0:
        print(f"[gate] cannot export {args.base_ref!r}")
        return 2
    base_tree = Path(tempfile.mkdtemp(prefix="bench-gate-"))
    try:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(base_tree, filter="data")
        base_stdout = run_bench(base_tree)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    change_stdout = run_bench(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return judge(base_stdout, change_stdout, spec["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())

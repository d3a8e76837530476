#!/usr/bin/env python3
"""The repository's benchmark: five workloads, end-to-end metrics and an
outside-in per-layer ledger.  See README.md in this directory.

Driver form (one result object as the last line of standard output)::

    python3 benchmarks/bench/run.py --workload churn_inline --seed 7 \
        --seconds 12 --trace 0

Without ``--workload`` every workload runs, untraced and traced, and every
metric is printed by name with its unit; ``--sets 2 --seeds 10`` repeats
that and prints the run-to-run spread of every end-to-end metric next to
its bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
WORK_DIR = BENCH_DIR / ".work"

import bench_stats as stats  # noqa: E402 (sibling module, stdlib only)

#: Repetitions per invocation; every end-to-end metric is their median.
REPS = 3
#: A repetition that has not ended after this many seconds is killed.
REP_TIMEOUT_SECONDS = 150.0
#: Workload size of ``--smoke`` runs (the tier-1 test).
SMOKE_SECONDS = 1.0
DEFAULT_SEED = 7

END_TO_END_UNITS = {
    "docs_per_s": "docs/s",
    "cpu_ms_per_doc": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "communication_avg": "ratio",
}

Metrics = dict[str, dict[str, Any]]


def _metric(value: float, unit: str, samples: int | None = None) -> dict[str, Any]:
    entry: dict[str, Any] = {"value": value, "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


# --------------------------------------------------------------------- #
# Repetition subprocesses
# --------------------------------------------------------------------- #
def run_rep_subprocess(spec: dict[str, Any]) -> dict[str, Any]:
    """One repetition in a fresh interpreter; raises if it fails.

    This process never imports the program: it stays small, and everything
    measured lives and dies with a repetition's interpreter.
    """
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--rep", json.dumps(spec)]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, timeout=REP_TIMEOUT_SECONDS,
            check=False,
        )  # on timeout subprocess.run kills the child and waits for it
    except subprocess.TimeoutExpired:
        raise RuntimeError(
            f"repetition {spec} did not end within {REP_TIMEOUT_SECONDS:.0f} s"
        ) from None
    if done.returncode != 0:
        raise RuntimeError(f"repetition {spec} exited with {done.returncode}")
    return json.loads(done.stdout.decode("utf-8").splitlines()[-1])


def rep_main(spec_json: str) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_json)
    if spec.get("leaves"):
        from bench_leaf import ROUNDS, run_leaves

        rounds = 1 if spec["smoke"] else ROUNDS
        print(json.dumps(run_leaves(spec["work_dir"], rounds)))
    else:
        from bench_rep import run_rep

        print(json.dumps(run_rep(spec)))
    return 0


# --------------------------------------------------------------------- #
# Output verification
# --------------------------------------------------------------------- #
def pin_key(workload: str, rep: dict[str, Any]) -> str:
    """``workload:base documents:sample seed``."""
    return f"{workload}:{rep['stream']}"


def pin_of(served: bool, rep: dict[str, Any]) -> dict[str, Any]:
    """What is pinned per stream.  A served repetition ingests as many
    documents as fit in its time box, so only its input can be pinned."""
    pin = {"input_sha256": rep["input_sha256"]}
    if not served:
        pin.update(
            coefficients_reported=rep["report"]["coefficients_reported"],
            communication_avg=rep["report"]["communication_avg"],
            digest=rep["digest"],
        )
    return pin


def verify(
    served: bool, rep: dict[str, Any], pin: dict[str, Any] | None,
    same_stream_digest: str | None = None,
) -> list[str]:
    """Every output check one repetition does not pass.  Failed operations
    (documents not processed, requests refused or timed out) are counted,
    not listed: they are the repetition's ``failed``."""
    problems = list(rep["leaks"])
    report = rep["report"]
    if pin is not None:
        actual = pin_of(served, rep)
        for name, expected in pin.items():
            if actual[name] != expected:
                problems.append(
                    f"pinned {name}: expected {expected}, got {actual[name]}"
                )
    reference = rep.get("reference")
    if reference is not None:
        # A workload whose reference may break support ties differently
        # ships a digest over supports; the others compare the whole table.
        table = "support_digest" if "support_digest" in reference else "digest"
        for name in (table, "coefficients_reported", "communication_avg",
                     "duplicate_reports"):
            actual = rep[name] if name == table else report[name]
            if actual != reference[name]:
                problems.append(
                    f"{name} differs from the reference run: "
                    f"{actual} != {reference[name]}"
                )
    if same_stream_digest is not None and rep["digest"] != same_stream_digest:
        problems.append("traced run's Tracker table differs from the untraced run's")
    return problems


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def _wall_s(run: dict[str, Any]) -> float:
    """Wall-clock of a timed region in reference-host seconds: what it
    would have taken had the host run at the reference speed (``host_speed``
    is the calibration loop's rate around the region, reference = 1)."""
    return run["wall_s"] * run["host_speed"]


def _cpu_s(run: dict[str, Any]) -> float:
    """CPU time of a timed region, in reference-host seconds."""
    return (run["cpu_self_s"] + run["cpu_children_s"]) * run["host_speed"]


def end_to_end_metrics(reps: list[dict[str, Any]]) -> Metrics:
    per_rep = {
        "docs_per_s": [r["documents"] / _wall_s(r) for r in reps],
        "cpu_ms_per_doc": [_cpu_s(r) * 1000.0 / r["documents"] for r in reps],
        "peak_rss_mb": [r["rss_self_mb"] + r["rss_children_mb"] for r in reps],
        "setup_s": [r["setup_s"] * r["host_speed"] for r in reps],
        "communication_avg": [r["report"]["communication_avg"] for r in reps],
    }
    # A peak is a maximum: the highest of the repetitions, not their median
    # (the served workload's resident set settles at one of two levels).
    return {
        name: {
            **_metric(
                max(values) if name == "peak_rss_mb" else stats.median(values),
                END_TO_END_UNITS[name], len(values),
            ),
            "runs": values,
        }
        for name, values in per_rep.items()
    }


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer_metrics(
    reps: list[dict[str, Any]], traced: dict[str, Any],
    leaves: dict[str, float], min_beyond: int, failed_ops_share: float,
) -> Metrics:
    """The ledger: counters of the first repetition (they repeat exactly for
    a seed) and its ratios to the reference run, latencies pooled over the
    untraced repetitions, busy times of the traced run."""
    first = reps[0]
    report = first["report"]
    # The reference configuration ran over the first repetition's documents.
    reference = first.get("reference")
    spans = traced["trace"]
    out: Metrics = {}

    def put(name: str, value: float, unit: str, samples: int | None = None) -> None:
        out[name] = _metric(float(value), unit, samples)

    def span(key: str, field: str = "total_s") -> float:
        return spans.get(key, {}).get(field, 0)

    def over(layer: str, names: tuple[str, ...], field: str) -> float:
        return sum(span(f"{layer}.{name}", field) for name in names)

    bolt_calls = ("execute_batch", "tick", "flush")
    # The daemon's final report carries no phase timings: its stream phase
    # is the writer thread's ``cluster.run`` span, the rest is service.drain_s.
    timings = traced["report"]["timings"]
    put("pipeline.build_s", timings.get("build", 0.0), "s")
    put("pipeline.stream_s", timings.get("stream", span("cluster.run")), "s")
    put("pipeline.reporting_s", timings.get("reporting", 0.0), "s")
    for layer in ("parser", "partitioner", "merger", "disseminator"):
        put(f"{layer}.busy_s", over(layer, bolt_calls, "stream_self_s"), "s")
        put(f"{layer}.msgs_in", span(f"{layer}.execute_batch", "size"), "count")
    put("disseminator.notifications_out", sum(report["calculator_loads"]), "count")
    put("disseminator.batch_amortization", report["batch_amortization"], "ratio")
    put("disseminator.repartitions", report["n_repartitions"], "count")
    put("disseminator.single_additions", report["single_additions_applied"], "count")

    rounds = report["report_round_stats"] or {}
    cache = report["subset_cache_stats"] or {}
    put("calculator.observe_s", span("calculator.execute_batch"), "s")
    put("calculator.report_s", span("calculator.tick"), "s")
    put("calculator.drain_s", span("calculator.drain_payload"), "s")
    put("calculator.msgs_in",
        span("calculator.execute_batch", "size")
        + span("executors.deliver_remote", "size"), "count")
    put("calculator.report_rounds", rounds.get("rounds", 0), "count")
    put("calculator.dirty_types", rounds.get("dirty_types", 0), "count")
    put("calculator.clean_types", rounds.get("clean_types", 0), "count")
    put("calculator.carry_clean_rate",
        _rate(rounds.get("clean_types", 0), rounds.get("dirty_types", 0)), "ratio")
    put("calculator.subset_cache_hit_rate",
        _rate(cache.get("hits", 0), cache.get("misses", 0)), "ratio")
    put("calculator.load_gini", report["load_gini"], "ratio")
    put("calculator.load_max_share", report["load_max_share"], "ratio")

    triples = report["coefficients_reported"] + report["duplicate_reports"]
    put("tracker.ingest_s",
        over("tracker", bolt_calls + ("ingest", "ingest_repeated"), "self_s"), "s")
    put("tracker.triples_in", triples, "count")
    put("tracker.duplicate_share",
        report["duplicate_reports"] / triples if triples else 0.0, "ratio")
    put("tracker.coefficients", report["coefficients_reported"], "count")
    put("tracker.snapshot_s", span("tracker.snapshot"), "s")
    put("tracker.snapshots", span("tracker.snapshot", "count"), "count")
    put("centralized.stream_s", over("centralized", bolt_calls, "stream_self_s"), "s")
    put("centralized.ground_truth_s", span("centralized.ground_truth"), "s")

    delivered = [
        key for key in spans
        if key.endswith(".execute_batch") or key == "executors.deliver_remote"
    ]
    deliveries = sum(spans[key]["count"] for key in delivered)
    put("cluster.substrate_s", span("cluster.run", "self_s"), "s")
    put("cluster.deliveries", deliveries, "count")
    put("cluster.msgs_per_delivery",
        sum(spans[key]["size"] for key in delivered) / deliveries
        if deliveries else 0.0, "ratio")

    remote = first["remote"]
    for name in ("deliver_remote", "tick_remote", "flush_remote", "drained_results"):
        put(f"executors.{name}_s", span(f"executors.{name}"), "s")
    put("executors.driver_cpu_s", first["cpu_self_s"] if remote else 0.0, "s")
    put("executors.worker_cpu_s", first["cpu_children_s"] if remote else 0.0, "s")
    put("executors.cpu_vs_inline",
        _cpu_s(first) / _cpu_s(reference) if remote else 0.0, "ratio")

    spilled = first["spilled"]
    counter = report["store_stats"] or {}
    tracker = report["tracker_store_stats"] or {}
    for prefix, block in (("counter", counter), ("tracker", tracker)):
        put(f"store.{prefix}_merge_s", block.get("merge_seconds", 0.0), "s")
        put(f"store.{prefix}_runs_written", block.get("runs_written", 0), "count")
        put(f"store.{prefix}_spilled_entries", block.get("spilled_entries", 0), "count")
        put(f"store.{prefix}_cache_hit_rate",
            _rate(block.get("block_cache_hits", 0),
                  block.get("block_cache_misses", 0)), "ratio")
    put("store.counter_parallel_merges", counter.get("parallel_merges", 0), "count")
    put("store.tracker_probes", tracker.get("membership_probes", 0), "count")
    put("store.run_bytes_written",
        counter.get("run_bytes_written", 0) + tracker.get("run_bytes_written", 0),
        "bytes")
    put("store.dict_twin_docs_per_s",
        first["documents"] / _wall_s(reference) if spilled else 0.0, "docs/s")
    put("store.spill_slowdown",
        _wall_s(reference) / _wall_s(first) if spilled else 0.0, "ratio")

    served = [r["service"] for r in reps if "service" in r]
    ingest_ms = [s * 1000.0 for run in served for s in run["ingest_s"]]
    ingest_failed = sum(run["ingest_failed"] for run in served)
    query_failed = sum(run["query_failed"] for run in served)

    def query_ms(*kinds: str) -> list[float]:
        return [s * 1000.0 for run in served for k in kinds for s in run["query_s"][k]]

    def latency(name: str, samples: list[float], q: float, failed: int) -> None:
        value = stats.percentile(samples, q, failed, min_beyond) if served else 0.0
        put(name, value, "ms", len(samples) + failed)

    point_ms = query_ms("coefficient", "stats")
    latency("ingest_ack_p50_ms", ingest_ms, 50, ingest_failed)
    latency("ingest_ack_p95_ms", ingest_ms, 95, ingest_failed)
    latency("top_k_p50_ms", query_ms("top_k"), 50, query_failed)
    latency("point_query_p50_ms", point_ms, 50, query_failed)
    latency("service.coefficient_p50_ms", query_ms("coefficient"), 50, query_failed)
    latency("service.stats_p50_ms", query_ms("stats"), 50, query_failed)
    latency("service.point_query_p90_ms", point_ms, 90, query_failed)
    put("service.ingest_requests", len(ingest_ms) + ingest_failed, "count")
    put("service.ingest_ack_max_ms", max(ingest_ms, default=0.0), "ms", len(ingest_ms))
    put("service.pending_batches_max",
        max((run["pending_batches_max"] for run in served), default=0), "count")
    put("service.top_k_samples", len(query_ms("top_k")), "count")
    put("service.query_samples", len(point_ms) + len(query_ms("top_k")), "count")
    put("service.request_bytes", span("service.decode_request", "size"), "bytes")
    put("service.response_bytes", span("service.decode_response", "size"), "bytes")
    put("service.protocol_s",
        over("service", ("encode", "decode_request", "decode_response"), "total_s"),
        "s")
    put("service.writer_wait_s", span("service.next_document", "self_s"), "s")
    put("service.drain_s",
        stats.median([run["drain_s"] for run in served]) if served else 0.0, "s")
    put("service.vs_inline_docs_ratio",
        _wall_s(reference) / _wall_s(first) if served else 0.0, "ratio")

    put("jaccard_coverage", report["jaccard_coverage"], "ratio")
    put("jaccard_mean_abs_error", report["jaccard_mean_error"], "abs")
    put("failed_ops_share", failed_ops_share, "ratio")
    for name, value in leaves.items():
        unit = "1/s" if name.endswith("_per_s") else "us"
        put(name, value, unit)
    # Against the untraced repetition over the same sample, and per document:
    # served runs are time-boxed, so the two differ slightly in length.
    untraced = _wall_s(first) / first["documents"]
    put("trace.overhead_pct",
        (_wall_s(traced) / traced["documents"] / untraced - 1.0) * 100.0, "%")
    put("host.speed", stats.median([r["host_speed"] for r in reps]), "ratio")
    put("trace.spans", traced["trace_spans"], "count")
    put("trace.stream_accounted_share",
        sum(entry["stream_self_s"] for entry in spans.values())
        / out["pipeline.stream_s"]["value"], "ratio")
    return out


# --------------------------------------------------------------------- #
# One invocation: REPS untraced repetitions (+ one traced)
# --------------------------------------------------------------------- #
def measure(
    name: str, seed: int, seconds: float, traced: bool,
    expected: dict[str, Any], leaves: dict[str, float], smoke: bool = False,
) -> dict[str, Any]:
    """Run one workload; returns metrics, verdict and the pins it produced."""
    base = {"workload": name, "seed": seed, "seconds": seconds,
            "work_dir": str(WORK_DIR)}
    # Outputs are deterministic for an input, so the reference configuration
    # runs once per invocation, after the first repetition.
    reps = [
        run_rep_subprocess(
            {**base, "rep": index, "traced": False, "reference": index == 0}
        )
        for index in range(1 if smoke else REPS)
    ]
    runs = list(reps)  # + the traced one
    served = reps[0]["served"]
    problems: list[str] = []
    pins: dict[str, Any] = {}
    for rep in reps:
        key = pin_key(name, rep)
        pins[key] = pin_of(served, rep)
        found = verify(served, rep, expected.get(key))
        problems += [f"{key}: {problem}" for problem in found]
    result: dict[str, Any] = {
        "workload": name, "seed": seed,
        "host_speed": [rep["host_speed"] for rep in reps],
        "end_to_end": end_to_end_metrics(reps), "per_layer": None,
    }
    if traced:
        trace_path = WORK_DIR / f"trace-{name}-{seed}.jsonl"
        traced_rep = run_rep_subprocess(
            {**base, "rep": 0, "traced": True, "reference": False,
             "trace_path": str(trace_path)}
        )
        runs.append(traced_rep)
        found = verify(
            served, traced_rep, None, None if served else reps[0]["digest"]
        )
        problems += [f"traced {name}: {problem}" for problem in found]
    attempted = sum(run["attempted"] for run in runs)
    # An output that fails a check fails every operation that produced it.
    failed = attempted if problems else sum(run["failed"] for run in runs)
    if traced:
        result["per_layer"] = per_layer_metrics(
            reps, traced_rep, leaves,
            0 if smoke else stats.MIN_SAMPLES_BEYOND, failed / attempted,
        )
        result["trace_path"] = str(trace_path)
    result.update(
        correct=failed == 0, problems=problems,
        attempted=attempted, failed=failed, pins=pins,
    )
    return result


# --------------------------------------------------------------------- #
# Printing
# --------------------------------------------------------------------- #
def print_metrics(title: str, metrics: Metrics) -> None:
    print(f"  {title}")
    for name, entry in metrics.items():
        extra = ""
        if "runs" in entry:
            extra = "  runs: " + " ".join(f"{v:.6g}" for v in entry["runs"])
        elif "samples" in entry:
            extra = f"  n={entry['samples']}"
        print(f"    {name:<36} {entry['value']:>14.6g} {entry['unit']:<7}{extra}")


def print_result(result: dict[str, Any]) -> None:
    print(f"[bench] {result['workload']} seed={result['seed']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']} elapsed={result['elapsed_s']:.1f}s")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print("  host speed around each repetition (reference host = 1): "
          + " ".join(f"{speed:.3f}" for speed in result["host_speed"]))
    print_metrics("end to end (median of the repetitions; peak: their maximum; "
                  "times in reference-host seconds)", result["end_to_end"])
    if result["per_layer"] is not None:
        print_metrics("per layer", result["per_layer"])
        print(f"  spans written to {result['trace_path']}")


def result_object(result: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The contract's result object: exactly four keys."""
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }


def host() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def spread_report(
    sets: list[dict[tuple[str, str], list[float]]], end_to_end: list[dict[str, Any]]
) -> None:
    """Per (metric, workload): each set's median and quartile spread, the
    relative difference of the medians and the bound; ``unresolved`` where
    the spread or the difference is wider than the bound."""
    declared = {entry["name"]: entry for entry in end_to_end}
    print(f"[bench] spread over {len(sets)} sets; host {host()}")
    print(f"  {'metric':<20}{'workload':<17}{'medians':<28}{'spread':<17}"
          f"{'diff':>8}{'bound':>7}  verdict")
    for key in sets[0]:
        metric, workload = key
        bound = declared[metric]["bound"]
        medians = [stats.median(values[key]) for values in sets]
        spreads = [stats.quartile_spread(values[key]) for values in sets]
        first, last = medians[0], medians[-1]
        if declared[metric]["better"] == "higher":
            first, last = last, first
        worse = last / first - 1.0 if first else 0.0  # 0: nothing ran (--smoke)
        # The benchmark contract's acceptance check holds the spread of
        # every metric but setup_s to its bound (set-up is a fraction of a
        # second, so its spread is this host's timer noise); setup_s is
        # held to the difference of the medians only.
        ok = worse <= bound and (metric == "setup_s" or max(spreads) <= bound)
        print(f"  {metric:<20}{workload:<17}"
              f"{' '.join(f'{m:.5g}' for m in medians):<28}"
              f"{' '.join(f'{s:.3f}' for s in spreads):<17}"
              f"{worse:>+8.3f}{bound:>7.2f}  {'ok' if ok else 'unresolved'}")


# --------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="which sample of the workload's base stream")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of measured work per invocation "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: both, printed as a table)")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the whole suite and report the spread")
    parser.add_argument("--seeds", type=int, default=1,
                        help="seeds per set: --seed, --seed+1, ...")
    parser.add_argument("--smoke", action="store_true",
                        help="one small repetition, no sample-count "
                             "discipline: checks the harness, measures nothing")
    parser.add_argument("--expected", default=str(BENCH_DIR / "expected.json"),
                        help="pinned fingerprints to verify against")
    parser.add_argument("--record-expected", metavar="PATH",
                        help="write the fingerprints of this run to PATH")
    parser.add_argument("--rep", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"[bench] no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.rep is not None:
        return rep_main(args.rep)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"available: {', '.join(workloads)}")
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    expected = json.loads(Path(args.expected).read_text(encoding="utf-8"))
    names = [args.workload] if args.workload else workloads
    WORK_DIR.mkdir(exist_ok=True)
    # The leaves use fixed inputs: once per invocation serves every workload.
    leaves = (
        run_rep_subprocess(
            {"leaves": True, "smoke": args.smoke, "work_dir": str(WORK_DIR)}
        )
        if args.trace != 0 else {}
    )

    correct = True
    pins: dict[str, Any] = {}
    sets: list[dict[tuple[str, str], list[float]]] = []
    summary: dict[str, dict[str, Any]] = {}  # per workload: --seed, last set
    for _ in range(args.sets):
        values: dict[tuple[str, str], list[float]] = {}
        for seed in range(args.seed, args.seed + args.seeds):
            for name in names:
                # Trace once per set: the ledger needs no repetition.
                traced = args.trace != 0 and seed == args.seed
                started = time.perf_counter()
                measured = measure(name, seed, seconds, traced,
                                   expected, leaves, args.smoke)
                measured["elapsed_s"] = time.perf_counter() - started
                print_result(measured)
                if seed == args.seed:
                    summary[name] = measured
                correct = correct and measured["correct"]
                pins.update(measured["pins"])
                for metric, entry in measured["end_to_end"].items():
                    values.setdefault((metric, name), []).append(entry["value"])
        sets.append(values)
    leftovers = [p.name for p in WORK_DIR.iterdir() if p.name.startswith("rep-")]
    if leftovers:
        print(f"  PROBLEM temporary directories survive in {WORK_DIR}: {leftovers}")
        correct = False
    if args.record_expected:
        Path(args.record_expected).write_text(
            json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    if args.sets > 1 or args.seeds > 1:
        spread_report(sets, spec["end_to_end"])
    if args.workload is not None and args.trace is not None:
        # The result of --seed: only that run is traced.
        print(json.dumps(result_object(summary[args.workload], bool(args.trace))))
    else:
        print(json.dumps({
            "correct": correct, "host": host(), "seconds": seconds,
            "results": {
                name: {
                    "end_to_end": result_object(result, False),
                    "per_layer": result["per_layer"] and result_object(result, True),
                }
                for name, result in summary.items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

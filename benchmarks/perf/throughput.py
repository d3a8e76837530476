#!/usr/bin/env python3
"""Seeded end-to-end throughput harness: docs/sec per execution engine.

Measures the sustained document rate of the full Figure-2 topology under the
``inline`` executor and the ``process`` executor at one or more worker
counts, on deterministic (seeded) synthetic workloads, and writes the
results to ``BENCH_throughput.json`` at the repository root — the repo's
recorded performance trajectory (see docs/PERFORMANCE.md).

Each measurement runs in a fresh forked subprocess so that peak-RSS figures
(``getrusage`` high-water marks) and allocator state do not bleed between
runs; workload generation happens inside the subprocess but outside the
timed region.

Per-cell ``report_rounds`` attributes the in-stream report cost (rounds,
wall-clock, type lattices folded).

Besides the legacy ``small``/``large`` workloads, the matrix covers the
scenario presets of ``workloads.scenarios`` (``trending``, ``burst``,
``diurnal``, ``adversarial``): those cells run inline-only plus one
live-repartition cell (``repartition_handoff="migrate"`` under the
threshold policy), keyed by the ``scenario``/``repartition_handoff`` fields
so ``tools/check_perf_regression.py`` compares like against like.

Usage::

    PYTHONPATH=src python benchmarks/perf/throughput.py                  # full matrix
    PYTHONPATH=src python benchmarks/perf/throughput.py --workloads small \
        --workers 2 --repeat 1 --output BENCH_throughput.json            # CI smoke

The committed ``BENCH_throughput.json`` was produced by the full matrix on
the machine described in its ``host`` block; regenerate it on comparable
hardware before comparing numbers across PRs.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[2]
if not any(Path(p).resolve() == _REPO_ROOT / "src" for p in sys.path if p):
    sys.path.insert(0, str(_REPO_ROOT / "src"))
_PERF_DIR = Path(__file__).resolve().parent
if str(_PERF_DIR) not in sys.path:
    sys.path.insert(0, str(_PERF_DIR))

from rss import ChildRssSampler  # noqa: E402 (needs the path shim above)

#: Seeded legacy workload definitions: name -> (documents, generator seed).
#: ``small`` is the CI smoke size; ``large`` is the acceptance workload for
#: executor comparisons (big enough that per-run noise is a few percent).
WORKLOADS = {
    "small": (3000, 7),
    "large": (20000, 7),
}

#: Scenario workloads (``workloads.scenarios`` presets): name -> documents.
#: Scenario cells run inline-only (the workload-shape story, not the
#: executor story) plus one live-repartition cell per scenario, so the
#: policy decision table in docs/ARCHITECTURE.md is backed by numbers per
#: workload shape instead of the single churny legacy point.
SCENARIO_WORKLOADS = {
    "trending": 24000,
    "burst": 9000,
    "diurnal": 9000,
    "adversarial": 9000,
}
#: Seed shared by every scenario workload (mirrors the legacy cells').
SCENARIO_SEED = 7
#: Per-scenario preset overrides for bench-scale runs.  Report-round
#: boundaries are grid-aligned (``_last_report`` advances by whole
#: interval multiples, so a round fires at the first document on or past
#: each interval boundary — no cumulative drift), but ticks still fire at
#: document-timestamp granularity: the trending cell thins the anchor
#: cadence to one position per 60 documents (6 s same-slot spacing, large
#: against the sub-interval boundary jitter) and stretches the plateau to
#: 240 s so each trend's anchor tagset spans several full rounds.
SCENARIO_OVERRIDES = {
    "trending": {
        "trend_plateau_seconds": 240.0,
        "trend_anchor_share": 1.0 / 60.0,
    },
}

#: Schema version of BENCH_throughput.json (bump on breaking layout changes).
#: v2 added per-cell ``phase_seconds`` (build/stream/reporting breakdown of
#: the best run); the per-cell ``report_rounds`` block (in-stream round
#: count/wall-clock and folded type lattices from
#: ``RunReport.report_round_stats``) is additive, so the schema stays 2 —
#: as are the sampled-RSS fields (``rss_children_mb``: peak summed VmRSS of
#: live descendants via /proc, fixing the driver-only blind spot of
#: ``RUSAGE_CHILDREN`` on process-executor cells; ``rss_total_mb``: driver
#: + children).
SCHEMA_VERSION = 2


def _workload_scenario(name: str) -> str:
    """The scenario a workload name maps to (legacy cells stay "legacy")."""
    return name if name in SCENARIO_WORKLOADS else "legacy"


def _generate_documents(name: str):
    if name in SCENARIO_WORKLOADS:
        from repro.workloads import make_generator, scenario_preset

        config = scenario_preset(
            name,
            seed=SCENARIO_SEED,
            tweets_per_second=50.0,
            **SCENARIO_OVERRIDES.get(name, {}),
        )
        return make_generator(config).generate(SCENARIO_WORKLOADS[name])

    from repro.workloads import TwitterLikeGenerator, WorkloadConfig

    n_documents, seed = WORKLOADS[name]
    config = WorkloadConfig(
        seed=seed,
        tweets_per_second=50.0,
        n_topics=120,
        tags_per_topic=15,
        new_topic_rate=5.0,
        intra_topic_probability=0.92,
    )
    return TwitterLikeGenerator(config).generate(n_documents)


def _system_config(executor: str, workers: int, algorithm: str, batch_size: int,
                   scenario: str = "legacy",
                   repartition_handoff: str = "none",
                   repartition_points: tuple = ()):
    from repro.pipeline import SystemConfig

    return SystemConfig(
        algorithm=algorithm,
        k=8,
        n_partitioners=5,
        window_mode="count",
        window_size=1500,
        bootstrap_documents=600,
        quality_check_interval=250,
        repartition_threshold=0.5,
        # Live-repartition cells pin swaps to fixed document counts: the
        # threshold policy happens not to fire on these workload shapes,
        # and a migration cell that never migrates measures nothing.
        repartition_policy="fixed" if repartition_points else "threshold",
        repartition_at=tuple(repartition_points),
        report_interval_seconds=60.0,
        notification_batch_size=batch_size,
        scenario=scenario,
        repartition_handoff=repartition_handoff,
        executor=executor,
        workers=workers,
    )


def _measure_worker(outbox, workload: str, executor: str, workers: int,
                    repeat: int, algorithm: str, batch_size: int,
                    repartition_handoff: str = "none",
                    repartition_points: tuple = ()) -> None:
    """Subprocess body: run the system ``repeat`` times, report the best."""
    try:
        from repro.pipeline import TagCorrelationSystem

        documents = _generate_documents(workload)
        elapsed: list[float] = []
        timings: list[dict] = []
        round_stats_runs: list[dict | None] = []
        report = None
        # Sampled child RSS: RUSAGE_CHILDREN only sees *reaped* children
        # and reports the largest single one, so process-executor cells
        # would report driver-dominated figures — hiding any win (or
        # regression) that lives in the workers.  The /proc sampler sums
        # live descendants while the runs execute.
        with ChildRssSampler() as rss_sampler:
            for _ in range(repeat):
                system = TagCorrelationSystem(
                    _system_config(executor, workers, algorithm, batch_size,
                                   scenario=_workload_scenario(workload),
                                   repartition_handoff=repartition_handoff,
                                   repartition_points=repartition_points)
                )
                start = time.perf_counter()
                report = system.run(documents)
                elapsed.append(time.perf_counter() - start)
                timings.append(report.timings)
                round_stats_runs.append(report.report_round_stats)
        assert report is not None
        usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS: normalise to MiB.
        to_mb = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
        best_index = min(range(len(elapsed)), key=elapsed.__getitem__)
        best = elapsed[best_index]
        # Phase breakdown of the best run: topology assembly, cluster
        # execution (streaming + in-stream report rounds) and end-of-run
        # reporting (final drain + metric collection + ground truth).
        phases = {
            phase: round(seconds, 4)
            for phase, seconds in timings[best_index].items()
        }
        # In-stream report attribution (rounds, wall-clock, folded type
        # lattices) of the best run — each repeat builds a fresh system,
        # so the per-run counters align with the per-run phase breakdown.
        round_stats = round_stats_runs[best_index]
        report_rounds = None
        if round_stats is not None:
            report_rounds = {
                "rounds": int(round_stats["rounds"]),
                "report_seconds": round(round_stats["report_seconds"], 4),
                "dirty_types": int(round_stats["dirty_types"]),
            }
        outbox.put({
            "workload": workload,
            "scenario": _workload_scenario(workload),
            "repartition_handoff": repartition_handoff,
            "executor": executor,
            "requested_workers": workers,
            "workers": report.executor_workers,
            "documents": report.documents_processed,
            "tagged_documents": report.tagged_documents,
            "repeat": repeat,
            "elapsed_seconds": [round(value, 4) for value in elapsed],
            "best_elapsed_seconds": round(best, 4),
            "docs_per_second": round(report.documents_processed / best, 1),
            "phase_seconds": phases,
            "report_rounds": report_rounds,
            "peak_rss_mb": round(usage_self / to_mb, 1),
            "peak_worker_rss_mb": round(usage_children / to_mb, 1),
            # Sampled (not rusage) child figures: the summed VmRSS of all
            # live descendants at its peak, and the whole cell's
            # driver+children footprint.  Inline cells record 0 children.
            "rss_children_mb": rss_sampler.peak_total_mb,
            "rss_total_mb": round(
                usage_self / to_mb + rss_sampler.peak_total_mb, 1
            ),
            "communication_avg": round(report.communication_avg, 4),
            "notification_messages": report.notification_messages,
            "repartitions": report.n_repartitions,
            "migration_stall_seconds": round(
                report.migration_stats["stall_seconds"], 4
            ) if report.migration_stats else 0.0,
        })
    except BaseException as exc:  # noqa: BLE001 - surface the failure
        import traceback

        outbox.put({"error": f"{exc}\n{traceback.format_exc()}"})


def measure(workload: str, executor: str, workers: int = 0, repeat: int = 1,
            algorithm: str = "DS", batch_size: int = 64,
            repartition_handoff: str = "none",
            repartition_points: tuple = ()) -> dict:
    """One benchmark cell, isolated in a forked subprocess."""
    import queue as queue_module

    ctx = multiprocessing.get_context()
    outbox = ctx.Queue()
    proc = ctx.Process(
        target=_measure_worker,
        args=(outbox, workload, executor, workers, repeat, algorithm,
              batch_size, repartition_handoff, repartition_points),
    )
    proc.start()
    while True:
        try:
            result = outbox.get(timeout=2.0)
            break
        except queue_module.Empty:
            if not proc.is_alive():
                # Killed without reporting (OOM, segfault): fail fast
                # instead of hanging the CI job on a silent queue.
                raise RuntimeError(
                    f"benchmark subprocess for {workload}/{executor} died "
                    f"with exit code {proc.exitcode}"
                ) from None
    proc.join()
    if "error" in result:
        raise RuntimeError(f"benchmark cell failed: {result['error']}")
    return result


def run_matrix(workloads, worker_counts, repeat=1, algorithm="DS",
               batch_size=64, verbose=True) -> dict:
    """The full benchmark matrix.

    Legacy workloads run inline + process × workers — the executor story.
    Scenario workloads run inline plus one live-repartition cell
    (``repartition_handoff="migrate"``) — the workload-shape story:
    per-scenario report-round attribution and the migration cost under
    that drift.
    """
    def _print_cell(cell, handoff="none"):
        phases = cell["phase_seconds"]
        rounds = cell.get("report_rounds") or {}
        suffix = "" if handoff == "none" else f" +{handoff}"
        print(f"{cell['docs_per_second']:>8.1f} docs/s "
              f"(best of {repeat}: {cell['best_elapsed_seconds']}s, "
              f"stream {phases.get('stream', 0.0)}s / "
              f"in-stream reports {rounds.get('report_seconds', 0.0)}s / "
              f"reporting {phases.get('reporting', 0.0)}s, "
              f"rss {cell['peak_rss_mb']} MB){suffix}")

    runs = []
    for workload in workloads:
        scenario_cell = workload in SCENARIO_WORKLOADS
        if scenario_cell:
            cells = [("inline", 0)]
        else:
            cells = [("inline", 0)] + [("process", n) for n in worker_counts]
        for executor, workers in cells:
            label = executor if executor == "inline" else f"{executor}({workers}w)"
            if verbose:
                print(f"[bench] {workload:>11} / {label:<12} ...",
                      end=" ", flush=True)
            cell = measure(workload, executor, workers, repeat, algorithm,
                           batch_size)
            runs.append(cell)
            if verbose:
                _print_cell(cell)
        if scenario_cell:
            # The drifting-workload repartition cell: coordinated state
            # migration, swaps pinned to fixed document
            # counts (1/3 and 2/3 of the stream) so the cell always pays —
            # and therefore always measures — two real migrations.
            n_documents = SCENARIO_WORKLOADS[workload]
            points = (n_documents // 3, 2 * n_documents // 3)
            if verbose:
                print(f"[bench] {workload:>11} / {'inline+migr':<12} ...",
                      end=" ", flush=True)
            cell = measure(workload, "inline", 0, repeat, algorithm,
                           batch_size, repartition_handoff="migrate",
                           repartition_points=points)
            runs.append(cell)
            if verbose:
                _print_cell(cell, handoff="migrate")
    workload_block = {}
    for name in workloads:
        if name in SCENARIO_WORKLOADS:
            workload_block[name] = {
                "documents": SCENARIO_WORKLOADS[name],
                "seed": SCENARIO_SEED,
                "scenario": name,
            }
        else:
            workload_block[name] = {
                "documents": WORKLOADS[name][0],
                "seed": WORKLOADS[name][1],
                "scenario": "legacy",
            }
    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "benchmarks/perf/throughput.py",
        "algorithm": algorithm,
        "notification_batch_size": batch_size,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "workloads": workload_block,
        "runs": runs,
        "comparison": _comparison(runs),
    }


def _comparison(runs) -> dict:
    """Per-workload speedups of the process cells over the inline baseline."""
    comparison: dict[str, dict[str, float]] = {}
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        # Repartition cells measure migration cost, not executor speedups.
        if run.get("repartition_handoff", "none") != "none":
            continue
        by_workload.setdefault(run["workload"], []).append(run)
    for workload, cells in by_workload.items():
        inline = next((c for c in cells if c["executor"] == "inline"), None)
        if inline is None:
            continue
        entry = {"inline_docs_per_second": inline["docs_per_second"]}
        for cell in cells:
            if cell["executor"] == "process":
                # Keyed by the *requested* count: two requests clamping to
                # the same effective count must not overwrite each other.
                requested = cell.get("requested_workers", cell["workers"])
                entry[f"speedup_process_{requested}_workers"] = round(
                    cell["docs_per_second"] / inline["docs_per_second"], 3
                )
        comparison[workload] = entry
    return comparison


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded throughput benchmark of the tag-correlation system"
    )
    all_workloads = list(WORKLOADS) + list(SCENARIO_WORKLOADS)
    parser.add_argument("--workloads",
                        default=",".join(all_workloads),
                        help="comma-separated workload names "
                             f"(available: {', '.join(all_workloads)}; "
                             "legacy cells run the full executor matrix, "
                             "scenario cells run inline plus a "
                             "live-repartition cell)")
    parser.add_argument("--workers", default="2,4",
                        help="comma-separated worker counts for the process executor")
    parser.add_argument("--repeat", type=int, default=2,
                        help="timed runs per cell; the best is reported")
    parser.add_argument("--algorithm", default="DS")
    parser.add_argument("--batch-size", type=int, default=64,
                        help="notification_batch_size (the IPC unit size)")
    parser.add_argument("--output", default=str(_REPO_ROOT / "BENCH_throughput.json"),
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)

    workloads = [name.strip() for name in args.workloads.split(",") if name.strip()]
    for name in workloads:
        if name not in WORKLOADS and name not in SCENARIO_WORKLOADS:
            parser.error(f"unknown workload {name!r} "
                         f"(available: {', '.join(all_workloads)})")
    worker_counts = [int(value) for value in args.workers.split(",") if value.strip()]

    results = run_matrix(workloads, worker_counts, repeat=args.repeat,
                         algorithm=args.algorithm, batch_size=args.batch_size)
    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2, sort_keys=False) + "\n",
                      encoding="utf-8")
    print(f"[bench] wrote {output}")
    for workload, entry in results["comparison"].items():
        print(f"[bench] {workload}: {entry}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

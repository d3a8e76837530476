#!/usr/bin/env python3
"""Out-of-core counter-store bench: resident window state, dict vs spill.

The spill store (``SystemConfig(counter_store="spill")``) bounds the
Calculators' *resident* window-counter state by freezing cold segments
into sorted run files and reading them back once per report fold.  This
harness pins that story with numbers: a fanout-heavy workload whose
per-round window state is an order of magnitude beyond the throughput
bench's ``large`` cell, run once per (round size, counter store) cell,
recording per cell

* ``docs_per_second`` and elapsed wall-clock (the spill overhead, paid in
  encode/write/read work);
* ``peak_rss_mb`` / ``rss_children_mb`` / ``rss_total_mb`` — the driver's
  ``getrusage`` high-water mark plus the sampled descendant RSS (inline
  cells record 0 children; the fields keep the schema aligned with
  ``BENCH_throughput.json``'s);
* ``peak_resident_counter_entries`` — the largest number of counter-table
  entries held *in RAM* by any Calculator at any point (for the dict
  store that is the full table; for the spill store the hot tail, which
  never exceeds ``spill_threshold``);
* the spill side's ``store`` block: window reads (count, wall-clock and
  the largest per-fold window table), runs written, entries spilled and
  block-cache hit rates.

Both cells of a round size consume the *same* seeded document stream —
the only variable is where the counters live.  The ``xlarge`` round is
10x the ``large`` round (600 s vs 60 s report interval at 50 docs/s), so
the dict store's resident table grows with the round while the spill
store's hot tail stays flat at the threshold.

The ``xlarge-reporting`` round contrasts the *tracker* stores instead
(``SystemConfig(tracker_store=...)``, counter store pinned to dict): a
short 30 s report interval drives ~40 report rounds whose coefficients
accumulate in the Tracker's cumulative dedup table — the one figure the
counter-store cells deliberately do not claim flat.  Every cell records
``peak_resident_coefficient_entries`` (the dict tracker's full table vs
the spill tracker's hot tail, capped at ``TRACKER_SPILL_THRESHOLD``),
and spill-tracker cells add a ``tracker`` stats block.  See
docs/PERFORMANCE.md ("Out-of-core counter store" / "Out-of-core
tracker") for the committed numbers.

Usage::

    PYTHONPATH=src python benchmarks/perf/spill.py                     # full matrix
    PYTHONPATH=src python benchmarks/perf/spill.py --rounds large \
        --output BENCH_spill_new.json                                  # CI smoke

Diff a fresh snapshot against the committed one with
``tools/check_perf_regression.py`` (spill dialect: docs/sec binds
downward, RSS and resident entries bind upward).
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[2]
if not any(Path(p).resolve() == _REPO_ROOT / "src" for p in sys.path if p):
    sys.path.insert(0, str(_REPO_ROOT / "src"))
_PERF_DIR = Path(__file__).resolve().parent
if str(_PERF_DIR) not in sys.path:
    sys.path.insert(0, str(_PERF_DIR))

from rss import ChildRssSampler  # noqa: E402 (needs the path shim above)

SCHEMA_VERSION = 1
GENERATED_BY = "benchmarks/perf/spill.py"

#: Documents per cell and the generator seed.  Streams are generated
#: lazily inside each cell's subprocess so the document list itself never
#: sits in RAM (out-of-core benches should not carry an in-core workload).
DOCUMENTS = 60_000
SEED = 7

#: Documents for the tracker-contrast rounds (see TRACKER_ROUNDS).  The
#: dict tracker's cumulative dedup table grows near-linearly with the
#: stream under this churning workload, so a third of the counter
#: rounds' documents already dwarfs TRACKER_SPILL_THRESHOLD by two
#: orders of magnitude while keeping the spill cell's wall clock (paid
#: in run writes and compactions) tractable.
TRACKER_DOCUMENTS = 20_000

#: Fanout-heavy workload: wide tagsets (up to 14 tags -> up to 2^14
#: subsets per notified tagset) over a churning topic pool, so the
#: per-round counter table reaches ~650k entries per Calculator at the
#: xlarge round — 15x the ~43k peak of the throughput bench's ``large``
#: cell (measured; see docs/PERFORMANCE.md).
WORKLOAD_PARAMS = dict(
    n_topics=600,
    tags_per_topic=30,
    new_topic_rate=50.0,
    intra_topic_probability=0.6,
    max_tags_per_tweet=14,
    tags_per_tweet_skew=0.8,
)

#: Round sizes: report interval in (virtual) seconds.  At 50 docs/s the
#: xlarge round accumulates 10x the documents — and therefore ~10x the
#: window state — of the large round before the report-time prune.
ROUNDS = {
    "large": 60.0,
    "xlarge": 600.0,
}

#: Tracker-contrast rounds: the counter store is pinned to dict and the
#: two cells vary ``tracker_store`` instead.  A short report interval at
#: the same document count drives ~40 report rounds, so the Tracker's
#: cumulative coefficient table — which retains every reported subset
#: for the life of the run — is the dominant resident structure.
TRACKER_ROUNDS = {
    "xlarge-reporting": 30.0,
}

#: Round name -> report interval across both matrices.
ALL_ROUNDS = {**ROUNDS, **TRACKER_ROUNDS}

STORES = ("dict", "spill")
TRACKER_STORES = ("dict", "spill")

#: Spill knobs for the spill cells: the resident hot tail is capped at
#: SPILL_THRESHOLD entries per Calculator (the headline bound).
SPILL_THRESHOLD = 16_384

#: Same bound for the Tracker's hot dedup tail on the tracker-contrast
#: round (``tracker_store="spill"`` cells).
TRACKER_SPILL_THRESHOLD = 16_384


def _system_config(
    interval: float, store: str, tracker_store: str, spill_dir: str | None
):
    from repro.pipeline import SystemConfig

    extra = {}
    if store == "spill":
        extra = dict(
            counter_store="spill",
            spill_dir=spill_dir,
            spill_threshold=SPILL_THRESHOLD,
        )
    if tracker_store == "spill":
        extra.update(
            tracker_store="spill",
            spill_dir=spill_dir,
            tracker_spill_threshold=TRACKER_SPILL_THRESHOLD,
        )
    return SystemConfig(
        algorithm="DS",
        k=4,
        n_partitioners=3,
        window_mode="count",
        window_size=1500,
        bootstrap_documents=600,
        quality_check_interval=250,
        repartition_threshold=0.5,
        report_interval_seconds=interval,
        notification_batch_size=64,
        subset_cache_size=1024,
        include_centralized_baseline=False,
        **extra,
    )


def _measure_worker(outbox, round_name: str, store: str, tracker_store: str) -> None:
    """Subprocess body: one (round, store, tracker store) cell."""
    try:
        import repro.core.jaccard as jaccard_module
        import repro.operators.tracker as tracker_module
        from repro.pipeline import TagCorrelationSystem
        from repro.workloads import TwitterLikeGenerator, WorkloadConfig

        # Peak *resident* counter entries across all Calculators: the full
        # table for the dict store, the hot (unspilled) tail for the spill
        # store.  A len() per observe is O(1) and far below measurement
        # noise at these scales.
        peak = {"entries": 0}
        original_observe = jaccard_module.SubsetCounter.observe

        def observing(self, *args, **kwargs):
            result = original_observe(self, *args, **kwargs)
            counts = self._counts
            resident = (
                len(counts._hot) if hasattr(counts, "_hot") else len(counts)
            )
            if resident > peak["entries"]:
                peak["entries"] = resident
            return result

        jaccard_module.SubsetCounter.observe = observing

        # Peak *resident* coefficient entries in the Tracker: the full
        # dedup table for the dict tracker, the hot (unspilled) tail for
        # the spill tracker.  Sampled after each ingest batch.
        tracker_peak = {"entries": 0}

        def _sample_tracker(bolt):
            resident = (
                len(bolt._store._hot)
                if bolt._store is not None
                else len(bolt._best)
            )
            if resident > tracker_peak["entries"]:
                tracker_peak["entries"] = resident

        original_ingest = tracker_module.TrackerBolt.ingest
        original_ingest_repeated = tracker_module.TrackerBolt.ingest_repeated

        def ingesting(self, *args, **kwargs):
            result = original_ingest(self, *args, **kwargs)
            _sample_tracker(self)
            return result

        def ingesting_repeated(self, *args, **kwargs):
            result = original_ingest_repeated(self, *args, **kwargs)
            _sample_tracker(self)
            return result

        tracker_module.TrackerBolt.ingest = ingesting
        tracker_module.TrackerBolt.ingest_repeated = ingesting_repeated

        generator = TwitterLikeGenerator(
            WorkloadConfig(
                seed=SEED, tweets_per_second=50.0, **WORKLOAD_PARAMS
            )
        )
        limit = (
            TRACKER_DOCUMENTS if round_name in TRACKER_ROUNDS else DOCUMENTS
        )
        documents = itertools.islice(generator.stream(), limit)
        with tempfile.TemporaryDirectory(prefix="bench-spill-") as spill_dir:
            system = TagCorrelationSystem(
                _system_config(
                    ALL_ROUNDS[round_name], store, tracker_store, spill_dir
                )
            )
            with ChildRssSampler() as rss_sampler:
                start = time.perf_counter()
                report = system.run(documents)
                elapsed = time.perf_counter() - start
        usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        to_mb = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
        peak_rss_mb = round(usage_self / to_mb, 1)
        stats = report.store_stats
        store_block = None
        if stats is not None:
            lookups = stats["block_cache_hits"] + stats["block_cache_misses"]
            store_block = {
                "runs_written": stats["runs_written"],
                "spilled_entries": stats["spilled_entries"],
                "window_reads": stats["window_reads"],
                "window_read_seconds": round(stats["window_read_seconds"], 4),
                "window_entries_max": stats["window_entries_max"],
                "block_cache_hit_rate": round(
                    stats["block_cache_hits"] / lookups if lookups else 0.0, 4
                ),
            }
        tracker_stats = report.tracker_store_stats
        tracker_block = None
        if tracker_stats is not None:
            lookups = (
                tracker_stats["block_cache_hits"]
                + tracker_stats["block_cache_misses"]
            )
            tracker_block = {
                "runs_written": tracker_stats["runs_written"],
                "spilled_entries": tracker_stats["spilled_entries"],
                "run_bytes_written": tracker_stats["run_bytes_written"],
                "merges": tracker_stats["merges"],
                "merge_seconds": round(tracker_stats["merge_seconds"], 4),
                "membership_probes": tracker_stats["membership_probes"],
                "block_cache_hit_rate": round(
                    tracker_stats["block_cache_hits"] / lookups
                    if lookups else 0.0, 4
                ),
            }
        outbox.put({
            "workload": round_name,
            "counter_store": store,
            "tracker_store": tracker_store,
            "report_interval_seconds": ALL_ROUNDS[round_name],
            "documents": report.documents_processed,
            "tagged_documents": report.tagged_documents,
            "elapsed_seconds": round(elapsed, 4),
            "docs_per_second": round(report.documents_processed / elapsed, 1),
            "peak_rss_mb": peak_rss_mb,
            "rss_children_mb": rss_sampler.peak_total_mb,
            "rss_total_mb": round(peak_rss_mb + rss_sampler.peak_total_mb, 1),
            "peak_resident_counter_entries": peak["entries"],
            "peak_resident_coefficient_entries": tracker_peak["entries"],
            "spill_threshold": SPILL_THRESHOLD if store == "spill" else None,
            "tracker_spill_threshold": (
                TRACKER_SPILL_THRESHOLD if tracker_store == "spill" else None
            ),
            "store": store_block,
            "tracker": tracker_block,
        })
    except BaseException as exc:  # noqa: BLE001 - surface the failure
        import traceback

        outbox.put({"error": f"{exc}\n{traceback.format_exc()}"})


def measure(round_name: str, store: str, tracker_store: str = "dict") -> dict:
    """One cell, isolated in a forked subprocess (RSS high-water marks are
    process-lifetime figures, so cells must not share a process)."""
    import queue as queue_module

    ctx = multiprocessing.get_context()
    outbox = ctx.Queue()
    proc = ctx.Process(
        target=_measure_worker,
        args=(outbox, round_name, store, tracker_store),
    )
    proc.start()
    while True:
        try:
            result = outbox.get(timeout=2.0)
            break
        except queue_module.Empty:
            if not proc.is_alive():
                raise RuntimeError(
                    f"benchmark subprocess for {round_name}/{store}/"
                    f"{tracker_store} died with exit code {proc.exitcode}"
                ) from None
    proc.join()
    if "error" in result:
        raise RuntimeError(f"benchmark cell failed: {result['error']}")
    return result


def _comparison(runs) -> dict:
    """Per-round dict-vs-spill contrasts plus the cross-round scale story."""
    cells = {
        (
            run["workload"],
            run["counter_store"],
            run.get("tracker_store", "dict"),
        ): run
        for run in runs
    }
    comparison: dict[str, dict] = {}
    for name in ROUNDS:
        plain = cells.get((name, "dict", "dict"))
        spill = cells.get((name, "spill", "dict"))
        if not plain or not spill:
            continue
        comparison[name] = {
            "resident_entries_dict": plain["peak_resident_counter_entries"],
            "resident_entries_spill": spill["peak_resident_counter_entries"],
            "resident_shrink": round(
                plain["peak_resident_counter_entries"]
                / spill["peak_resident_counter_entries"], 1
            ),
            "rss_total_delta_mb": round(
                spill["rss_total_mb"] - plain["rss_total_mb"], 1
            ),
            "throughput_ratio": round(
                spill["docs_per_second"] / plain["docs_per_second"], 3
            ),
            "window_read_seconds": (
                (spill["store"] or {}).get("window_read_seconds")
            ),
        }
    for name in TRACKER_ROUNDS:
        plain = cells.get((name, "dict", "dict"))
        spill = cells.get((name, "dict", "spill"))
        if not plain or not spill:
            continue
        comparison[name] = {
            "resident_coefficients_dict": (
                plain["peak_resident_coefficient_entries"]
            ),
            "resident_coefficients_spill": (
                spill["peak_resident_coefficient_entries"]
            ),
            "resident_shrink": round(
                plain["peak_resident_coefficient_entries"]
                / spill["peak_resident_coefficient_entries"], 1
            ),
            "rss_total_delta_mb": round(
                spill["rss_total_mb"] - plain["rss_total_mb"], 1
            ),
            "throughput_ratio": round(
                spill["docs_per_second"] / plain["docs_per_second"], 3
            ),
            "merge_seconds": (spill["tracker"] or {}).get("merge_seconds"),
            "tracker_spill_threshold": TRACKER_SPILL_THRESHOLD,
        }
    large_dict = cells.get(("large", "dict", "dict"))
    xlarge_dict = cells.get(("xlarge", "dict", "dict"))
    xlarge_spill = cells.get(("xlarge", "spill", "dict"))
    if large_dict and xlarge_dict and xlarge_spill:
        comparison["scale"] = {
            # The dict store's resident table grows with the round; the
            # spill store's hot tail does not.
            "dict_resident_growth": round(
                xlarge_dict["peak_resident_counter_entries"]
                / large_dict["peak_resident_counter_entries"], 2
            ),
            "spill_resident_at_xlarge": (
                xlarge_spill["peak_resident_counter_entries"]
            ),
            "spill_threshold": SPILL_THRESHOLD,
        }
    return comparison


def run_matrix(round_names, stores=STORES, verbose=True) -> dict:
    runs = []
    for name in round_names:
        if name in TRACKER_ROUNDS:
            # Tracker-contrast round: counter store pinned to dict.
            cell_specs = [("dict", tracker) for tracker in TRACKER_STORES]
        else:
            cell_specs = [(store, "dict") for store in stores]
        for store, tracker_store in cell_specs:
            label = store if name not in TRACKER_ROUNDS else (
                f"tracker={tracker_store}"
            )
            if verbose:
                print(f"[bench] {name:>16} / {label:<13} ...",
                      end=" ", flush=True)
            cell = measure(name, store, tracker_store)
            runs.append(cell)
            if verbose:
                resident = (
                    cell["peak_resident_coefficient_entries"]
                    if name in TRACKER_ROUNDS
                    else cell["peak_resident_counter_entries"]
                )
                if name in TRACKER_ROUNDS:
                    block = cell["tracker"] or {}
                    phase = f"merge {block.get('merge_seconds', 0.0)}s"
                else:
                    block = cell["store"] or {}
                    phase = (f"window read "
                             f"{block.get('window_read_seconds', 0.0)}s")
                print(f"{cell['docs_per_second']:>7.1f} docs/s  "
                      f"rss {cell['rss_total_mb']:>6.1f} MB  "
                      f"resident {resident:>7d} entries  {phase}")
    return {
        "schema": SCHEMA_VERSION,
        "generated_by": GENERATED_BY,
        "documents": DOCUMENTS,
        "tracker_documents": TRACKER_DOCUMENTS,
        "seed": SEED,
        "workload_params": dict(WORKLOAD_PARAMS),
        "spill_threshold": SPILL_THRESHOLD,
        "tracker_spill_threshold": TRACKER_SPILL_THRESHOLD,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "rounds": {name: ALL_ROUNDS[name] for name in round_names},
        "runs": runs,
        "comparison": _comparison(runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Resident window-state benchmark: dict vs spill store"
    )
    parser.add_argument("--rounds", default=",".join(ALL_ROUNDS),
                        help="comma-separated round sizes "
                             f"(available: {', '.join(ALL_ROUNDS)})")
    parser.add_argument("--stores", default=",".join(STORES),
                        help="comma-separated counter stores; tracker-"
                             "contrast rounds ignore this "
                             f"(available: {', '.join(STORES)})")
    parser.add_argument("--output", default=str(_REPO_ROOT / "BENCH_spill.json"),
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)
    round_names = [n.strip() for n in args.rounds.split(",") if n.strip()]
    for name in round_names:
        if name not in ALL_ROUNDS:
            parser.error(f"unknown round {name!r} "
                         f"(available: {', '.join(ALL_ROUNDS)})")
    stores = tuple(s.strip() for s in args.stores.split(",") if s.strip())
    for store in stores:
        if store not in STORES:
            parser.error(f"unknown store {store!r} "
                         f"(available: {', '.join(STORES)})")

    results = run_matrix(round_names, stores)
    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"[bench] wrote {output}")
    for name, entry in results["comparison"].items():
        print(f"[bench] {name}: {entry}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

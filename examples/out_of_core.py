"""Out-of-core window state: the same run, dict store vs spill store.

Runs one fanout-heavy stream twice — once with the default in-RAM
``dict`` counter store and once with ``counter_store="spill"`` (cold
counter segments frozen to sorted run files, read back once per report
fold; see docs/ARCHITECTURE.md "Counter store") — then shows that every
reported metric and coefficient is bit-identical while the spill side's
``RunReport.store_stats`` accounts for the disk traffic that replaced
the resident table.

Run with::

    python examples/out_of_core.py
"""

from __future__ import annotations

from repro import SystemConfig, TagCorrelationSystem
from repro.operators import TrackerBolt, streams
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

#: Deliberately tiny so even this example's small stream spills dozens of
#: runs per report round; production default is 65 536 (see
#: repro.store.DEFAULT_SPILL_THRESHOLD).
SPILL_THRESHOLD = 500


def run(counter_store: str):
    workload = WorkloadConfig(
        seed=7,
        tweets_per_second=50.0,
        n_topics=120,
        tags_per_topic=15,
        new_topic_rate=5.0,
        intra_topic_probability=0.92,
        max_tags_per_tweet=8,
    )
    documents = TwitterLikeGenerator(workload).generate(6000)
    config = SystemConfig(
        algorithm="DS",
        k=4,
        n_partitioners=3,
        window_mode="count",
        window_size=1500,
        bootstrap_documents=600,
        quality_check_interval=250,
        repartition_threshold=0.5,
        report_interval_seconds=60.0,
        include_centralized_baseline=False,
        counter_store=counter_store,
        # spill_dir defaults to a private temp dir, removed on drain.
        spill_threshold=SPILL_THRESHOLD,
    )
    system = TagCorrelationSystem(config)
    report = system.run(documents)
    tracker = next(
        bolt
        for bolt in system.cluster.instances_of(streams.TRACKER)
        if isinstance(bolt, TrackerBolt)
    )
    return report, tracker.coefficients()


def main() -> None:
    plain_report, plain_coefficients = run("dict")
    spill_report, spill_coefficients = run("spill")

    print("--- identical answers ------------------------------------")
    for field in ("documents_processed", "coefficients_reported",
                  "notification_messages", "n_repartitions"):
        plain = getattr(plain_report, field)
        spill = getattr(spill_report, field)
        marker = "==" if plain == spill else "!!"
        print(f"{field:<25}: {plain} {marker} {spill}")
    print(f"{'coefficients':<25}: "
          f"{'bit-identical' if plain_coefficients == spill_coefficients else 'DIFFER'}"
          f" ({len(spill_coefficients)} tagsets)")

    print("\n--- what the spill store did ------------------------------")
    stats = spill_report.store_stats
    lookups = stats["block_cache_hits"] + stats["block_cache_misses"]
    print(f"runs written              : {stats['runs_written']} "
          f"({stats['run_bytes_written'] / 1024:.0f} KiB)")
    print(f"entries spilled           : {stats['spilled_entries']}")
    print(f"window reads              : {stats['window_reads']} "
          f"({stats['window_read_seconds']:.2f}s, largest "
          f"{stats['window_entries_max']} entries)")
    if lookups:
        print(f"block cache hit rate      : "
              f"{stats['block_cache_hits'] / lookups:.1%}")
    print("\nResident window state stayed bounded by "
          f"spill_threshold={SPILL_THRESHOLD} entries per Calculator; "
          "the dict run held the full table in RAM.")


if __name__ == "__main__":
    main()

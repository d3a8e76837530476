"""Quickstart: track tag correlations over a synthetic Twitter-like stream.

Generates a small stream, runs the full distributed topology (Parser →
Partitioner → Merger → Disseminator → Calculators → Tracker) with the
Disjoint Sets partitioning algorithm, and prints the evaluation metrics of
the run together with the strongest correlations found.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import SystemConfig, TagCorrelationSystem
from repro.operators import TrackerBolt, streams
from repro.workloads import TwitterLikeGenerator, WorkloadConfig


def main() -> None:
    # 1. A synthetic Twitter-like stream: Zipfian tag usage, topic
    #    vocabularies, new trends appearing over time.
    workload = WorkloadConfig(
        seed=7,
        tweets_per_second=50.0,
        n_topics=120,
        tags_per_topic=15,
        new_topic_rate=5.0,
        intra_topic_probability=0.92,
    )
    documents = TwitterLikeGenerator(workload).generate(8000)
    print(f"generated {len(documents)} documents "
          f"({sum(1 for d in documents if d.tags)} tagged)")

    # 2. Configure the distributed system: 8 Calculators, 5 Partitioners,
    #    repartition when quality degrades by more than 50 %.  Swap
    #    executor="process" (plus workers=N) to shard the Calculator
    #    layer over worker processes, subset_cache_size=N to size the
    #    Calculators' subset-enumeration LRU, or
    #    include_centralized_baseline=False to skip the ground-truth bolt —
    #    the logical metrics below are identical in every case (the last
    #    one simply omits the error rows).
    config = SystemConfig(
        algorithm="DS",
        k=8,
        n_partitioners=5,
        window_mode="count",
        window_size=1500,
        bootstrap_documents=600,
        quality_check_interval=250,
        repartition_threshold=0.5,
        report_interval_seconds=60.0,
        executor="inline",
    )

    # 3. Run and inspect the report.
    system = TagCorrelationSystem(config)
    report = system.run(documents)

    print("\n--- run report -------------------------------------------")
    print(f"algorithm                 : {report.algorithm}")
    print(f"calculator mode           : {report.calculator_mode}")
    if report.subset_cache_stats is not None:
        stats = report.subset_cache_stats
        lookups = stats["hits"] + stats["misses"]
        hit_rate = stats["hits"] / lookups if lookups else 0.0
        print(f"subset cache hit rate     : {hit_rate:.1%} "
              f"({stats['evictions']} evictions)")
    print(f"execution engine          : {report.executor_mode}"
          + (f" ({report.executor_workers} workers)"
             if report.executor_mode == "process" else ""))
    print(f"average communication     : {report.communication_avg:.3f} "
          f"(1.0 = no redundant forwarding)")
    print(f"notification messages     : {report.notification_messages} "
          f"(batched {report.batch_amortization:.1f}x)")
    print(f"load Gini coefficient     : {report.load_gini:.3f}")
    print(f"max Calculator load share : {report.load_max_share:.3f}")
    print(f"repartitions              : {report.n_repartitions} "
          f"{report.repartition_reasons}")
    print(f"single additions          : {report.single_additions_applied}")
    print(f"coefficients reported     : {report.coefficients_reported}")
    if report.jaccard is not None:
        print(f"jaccard coverage          : {report.jaccard_coverage:.3f}")
        print(f"jaccard mean error        : {report.jaccard_mean_error:.4f}")

    # 4. The Tracker holds the final coefficient per tagset; print the
    #    strongest correlations among reasonably frequent tagsets.
    tracker = next(
        bolt
        for bolt in system.cluster.instances_of(streams.TRACKER)
        if isinstance(bolt, TrackerBolt)
    )
    supports = tracker.supports()
    strongest = sorted(
        (
            (coefficient, tagset)
            for tagset, coefficient in tracker.coefficients().items()
            if supports[tagset] >= 5
        ),
        reverse=True,
    )[:10]
    print("\n--- strongest correlated tagsets (support >= 5) -----------")
    for coefficient, tagset in strongest:
        print(f"  J={coefficient:.3f}  {{{', '.join(sorted(tagset))}}}")


if __name__ == "__main__":
    main()

"""Approximate tracking mode: Figure-5-style error curves for both modes.

Runs the quickstart workload through the exact and the sketch Calculators
and prints the error/communication/batching figures side by side, so the
speed-accuracy tradeoff of the MinHash/Count-Min mode can be read off like
the paper's Figure 5.  The assertions encode the mode's contract:

* the sketch mode's mean Jaccard error stays within 0.05 at the default
  MinHash width (512 permutations, per-estimate stddev ~0.044),
* logical communication metrics are mode-independent (the Disseminator
  routes identically; only the Calculator estimator changes),
* the batched notification engine amortizes at least 5 physical messages
  per logical notification batch in both modes.
"""

from functools import lru_cache

import pytest

import common
from repro.pipeline import TagCorrelationSystem
from repro.workloads import TwitterLikeGenerator, WorkloadConfig


@lru_cache(maxsize=None)
def quickstart_documents():
    """The README/examples quickstart workload (seed 7, 8000 documents)."""
    config = WorkloadConfig(
        seed=7,
        tweets_per_second=50.0,
        n_topics=120,
        tags_per_topic=15,
        new_topic_rate=5.0,
        intra_topic_probability=0.92,
    )
    return tuple(TwitterLikeGenerator(config).generate(8000))


@lru_cache(maxsize=None)
def run_mode(calculator: str):
    config = common.system_config(
        "DS", k=8, n_partitioners=5, calculator=calculator
    )
    return TagCorrelationSystem(config).run(list(quickstart_documents()))


def test_sketch_mode_error_within_bound(benchmark):
    report = benchmark.pedantic(lambda: run_mode("sketch"), rounds=1, iterations=1)
    exact = run_mode("exact")
    print()
    print("=== Approximate tracking mode vs exact (quickstart workload) ===")
    print(f"{'metric':>28} {'exact':>10} {'sketch':>10}")
    for metric in ("communication", "jaccard_error", "jaccard_coverage",
                   "notification_messages", "batch_amortization"):
        print(f"{metric:>28} {exact.summary()[metric]:>10.3f} "
              f"{report.summary()[metric]:>10.3f}")
    stats = report.sketch_stats
    print(f"    minhash permutations: {int(stats['minhash_permutations'])}, "
          f"stddev bound {stats['estimate_stddev_bound']:.4f}, "
          f"tracked keys {int(stats['tracked_tagsets'])}")
    assert report.calculator_mode == "sketch"
    assert report.jaccard_mean_error <= 0.05
    # Routing is mode-independent: logical communication does not move.
    assert report.communication_avg == pytest.approx(exact.communication_avg)


def test_batching_amortizes_5x_in_both_modes(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for mode in ("exact", "sketch"):
        assert run_mode(mode).batch_amortization >= 5.0

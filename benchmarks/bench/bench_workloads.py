"""The five workloads: generator parameters, system configuration, sizes.

A workload is a seeded document stream plus the ``SystemConfig`` fields it
needs — and only those: ``reporting_engine``, ``notification_batch_size``
and ``link_batch_size`` are never set, so the benchmark measures what a
user gets by default.  The program under test only ever sees the generated
documents.

Sizes are stated for ``--seconds 12`` (``run_seconds`` of ``BENCHMARK.json``)
and scale linearly with ``--seconds``: one invocation runs three
repetitions, each on its own sample of the workload's stream, sized so that
each timed region takes about a third of ``--seconds`` on the reference
host.

Seeds.  In this system the cost of a stream depends on which partitions
the first 600 documents happen to bootstrap: independently seeded streams
of one generator configuration differ by 10-50 % in coefficients reported
and in run time, more than any bound a regression check could use.  So a
workload has one *base stream* (generator seed ``BASE_STREAM_SEED``) and
``--seed`` draws a sample of it: every document is dropped with probability
``DROP_SHARE`` by a generator seeded with ``--seed``.  Different seeds give
different inputs from the same population.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any

from repro import SystemConfig
from repro.workloads import (
    TwitterLikeGenerator,
    WorkloadConfig,
    make_generator,
    scenario_preset,
)

#: ``--seconds`` the sizes below are stated for.
SIZED_FOR_SECONDS = 12.0
#: Generator seed of every workload's base stream.
BASE_STREAM_SEED = 7
#: Share of the base stream's documents a repetition's sample leaves out.
DROP_SHARE = 0.05
#: Repetition ``i`` samples with seed ``seed + i * SEED_STRIDE``.
SEED_STRIDE = 7919

#: Documents per ingest request of the served workload.
INGEST_BATCH = 50
#: Think time of the served workload's query client (seconds).
QUERY_THINK_SECONDS = 0.025
#: Query cycles a served repetition completes at ``--seconds 12`` before its
#: feeder may stop: three repetitions then pool 27 ``top_k`` and 108 point
#: queries however slow the daemon answers, enough for every percentile.
MIN_QUERY_CYCLES = 9

_CHURN_STREAM = dict(
    n_topics=120, tags_per_topic=15, new_topic_rate=5.0,
    intra_topic_probability=0.92,
)
_FANOUT_STREAM = dict(
    n_topics=600, tags_per_topic=30, new_topic_rate=50.0,
    intra_topic_probability=0.6, max_tags_per_tweet=12,
    tags_per_tweet_skew=0.8,
)
_CHURN_SYSTEM = dict(
    k=8, n_partitioners=5, window_size=1500, bootstrap_documents=600,
    quality_check_interval=250, report_interval_seconds=60.0,
)
_FANOUT_SYSTEM = dict(
    k=4, n_partitioners=3, window_size=1500, bootstrap_documents=600,
    quality_check_interval=250, report_interval_seconds=30.0,
    subset_cache_size=1024, include_centralized_baseline=False,
)
#: Resident bound of both spill stores.  The issue's fan-out workload (tags
#: per tweet up to 14, 4 000 documents, 16 384 entries resident, ~20x
#: spilled) takes 19 s per run; this is the same shape at a fifth of the
#: cost: up to 12 tags, 1 500 documents, ~52 000 entries per table against
#: 2 048 resident (~25x).  The tracker store rewrites its whole table every
#: seventh spill (compactions at spills 8, 15, 22, 29, ...), a step of a
#: tenth of the run time: 1 500 documents give 24-27 spills on every sample,
#: so all of them compact three times.  A size whose samples straddle a
#: step (1 560 or 1 650 documents) spreads twice as wide.
_SPILL_THRESHOLD = 2_048


@dataclass(frozen=True)
class Workload:
    name: str
    #: "churn", "trending" or "fanout".
    stream: str
    #: Base-stream documents per repetition at ``--seconds 12``.  For the
    #: served workload this is the length of the pre-generated stream, an
    #: upper bound the time-boxed feeder is not expected to reach.
    documents: int
    system: dict[str, Any]
    #: ``system`` fields the reference run leaves at their defaults;
    #: its Tracker table must equal this workload's (None: no reference run).
    reference_without: tuple[str, ...] | None = None
    #: Whether the reference run's table must match coefficient for
    #: coefficient, or only in tagsets and winning supports.
    reference_exact: bool = True
    #: Seconds of closed-loop feeding per repetition at ``--seconds 12``
    #: (served workload only; 0 = batch workload sized by ``documents``).
    feed_seconds: float = 0.0

    @property
    def served(self) -> bool:
        return self.feed_seconds > 0

    @property
    def spills(self) -> bool:
        return self.system.get("counter_store") == "spill"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="churn_inline",
            stream="churn",
            documents=22_000,
            system=_CHURN_SYSTEM,
        ),
        Workload(
            name="churn_process",
            stream="churn",
            documents=12_000,
            system={**_CHURN_SYSTEM, "executor": "process", "workers": 2},
            reference_without=("executor", "workers"),
            # The Tracker keeps the first coefficient among equal supports,
            # and the process executor relays remote shards' report batches
            # at end of stream: past ~10 000 documents of this stream a few
            # hundred ties resolve differently than inline (same tagsets,
            # same supports, same counts).  Deterministic, so still pinned.
            reference_exact=False,
        ),
        Workload(
            name="trending_inline",
            stream="trending",
            documents=19_000,
            system=_CHURN_SYSTEM,
        ),
        Workload(
            name="fanout_spill",
            stream="fanout",
            documents=1_500,
            system={
                **_FANOUT_SYSTEM,
                "counter_store": "spill",
                "tracker_store": "spill",
                "spill_threshold": _SPILL_THRESHOLD,
                "tracker_spill_threshold": _SPILL_THRESHOLD,
            },
            reference_without=(
                "counter_store", "tracker_store",
                "spill_threshold", "tracker_spill_threshold",
            ),
        ),
        Workload(
            name="served_churn",
            stream="churn",
            documents=24_000,
            system={**_CHURN_SYSTEM, "service_queue_limit": 8},
            reference_without=(),
            feed_seconds=3.0,
        ),
    )
}


def sample_seed(seed: int, rep: int) -> int:
    return seed + rep * SEED_STRIDE


def scale(seconds: float) -> float:
    """What ``--seconds`` multiplies every size by."""
    return seconds / SIZED_FOR_SECONDS


def scaled_documents(workload: Workload, seconds: float) -> int:
    """Base-stream length of one repetition at the given ``--seconds``."""
    return max(INGEST_BATCH, round(workload.documents * scale(seconds)))


def generate_documents(
    workload: Workload, sample_seed: int, n_documents: int
) -> list:
    """The ``sample_seed`` sample of the first ``n_documents`` documents of
    the workload's base stream."""
    if workload.stream == "trending":
        config = scenario_preset(
            "trending", seed=BASE_STREAM_SEED, tweets_per_second=50.0,
            trend_plateau_seconds=240.0, trend_anchor_share=1.0 / 60.0,
        )
        base = make_generator(config).generate(n_documents)
    else:
        params = _FANOUT_STREAM if workload.stream == "fanout" else _CHURN_STREAM
        config = WorkloadConfig(
            seed=BASE_STREAM_SEED, tweets_per_second=50.0, **params
        )
        base = TwitterLikeGenerator(config).generate(n_documents)
    keep = random.Random(sample_seed).random
    return [document for document in base if keep() >= DROP_SHARE]


def system_config(
    workload: Workload, spill_dir: str | None = None, reference: bool = False
) -> SystemConfig:
    """The workload's configuration, or that of its reference run."""
    fields = dict(workload.system)
    if reference:
        for name in workload.reference_without or ():
            del fields[name]
    elif workload.spills:
        fields["spill_dir"] = spill_dir
    return SystemConfig(**fields)


def input_fingerprint(documents: list) -> str:
    """sha256 over the ``(doc_id, timestamp, tags)`` stream: a changed
    ``repro.workloads`` must fail loudly, not silently change a workload."""
    hasher = hashlib.sha256()
    for doc in documents:
        hasher.update(
            f"{doc.doc_id}|{doc.timestamp!r}|{','.join(sorted(doc.tags))}\n"
            .encode("utf-8")
        )
    return hasher.hexdigest()

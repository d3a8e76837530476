"""Leaf micro-benchmarks: the inner operations that dominate the layers.

Fixed seeded inputs, public functions only.  They explain a layer move and
carry no bound: the subset fold feeds ``calculator.report_s``; run write,
probe and merge feed ``store.*``; the pickle round-trip feeds
``executors.deliver_remote_s``; the ingest encode + decode feeds
``service.protocol_s``; the cost of one recorded span times ``trace.spans``
is what tracing adds to a traced run.  Each figure is the median of
``rounds`` timings (``ROUNDS``; one in a smoke run).
"""

from __future__ import annotations

import os
import pickle
import random
import statistics
import time
from typing import Callable

from repro import JaccardCalculator
from repro.operators import streams
from repro.service import protocol
from repro.store import BlockCache, RunReader, encode_key, merge_runs, write_run
from repro.streamsim.tuples import TupleMessage
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

from bench_trace import SpanRecorder

_SEED = 20140622
ROUNDS = 5
_RUN_ENTRIES = 20_000
_PROBES = 2_000


def _median_seconds(fn: Callable[[], object], rounds: int) -> float:
    timings = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def _tagsets(n: int) -> list[frozenset[str]]:
    config = WorkloadConfig(
        seed=_SEED, tweets_per_second=50.0, n_topics=120, tags_per_topic=15,
        untagged_allowed=False,
    )
    return [doc.tags for doc in TwitterLikeGenerator(config).generate(n)]


def _calculator_leaves(rounds: int) -> dict[str, float]:
    tagsets = _tagsets(4_000)
    types = len(set(tagsets))
    observe_s: list[float] = []
    fold_s: list[float] = []
    for _ in range(rounds):
        calculator = JaccardCalculator()
        start = time.perf_counter()
        for tags in tagsets:
            calculator.observe(tags)
        observe_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        calculator.report_triples(min_size=2, reset=True)
        fold_s.append(time.perf_counter() - start)
    return {
        "leaf.subset_observe_us": statistics.median(observe_s) / len(tagsets) * 1e6,
        "leaf.report_fold_us_per_type": statistics.median(fold_s) / types * 1e6,
    }


def _store_leaves(work_dir: str, rounds: int) -> dict[str, float]:
    rng = random.Random(_SEED)
    keys = sorted({
        encode_key(tuple(sorted(f"tag{rng.randrange(5_000)}" for _ in range(3))))
        for _ in range(2 * _RUN_ENTRIES)
    })
    halves = [
        [(key, 1 + index % 7) for index, key in enumerate(keys[offset::2])]
        for offset in (0, 1)
    ]
    paths = [os.path.join(work_dir, f"leaf-{i}.run") for i in range(3)]
    try:
        write_s = _median_seconds(lambda: write_run(paths[0], halves[0]), rounds)
        write_run(paths[1], halves[1])
        probes = [rng.choice(keys) for _ in range(_PROBES)]

        def probe() -> None:
            reader = RunReader(paths[0], cache=BlockCache(64))
            try:
                for key in probes:
                    reader.get(key)
            finally:
                reader.close()

        probe_s = _median_seconds(probe, rounds)
        merge_s = _median_seconds(lambda: merge_runs(paths[:2], paths[2]), rounds)
    finally:
        for path in paths:
            if os.path.exists(path):
                os.unlink(path)
    return {
        "leaf.run_write_entries_per_s": len(halves[0]) / write_s,
        "leaf.run_probe_us": probe_s / _PROBES * 1e6,
        "leaf.merge_entries_per_s": len(keys) / merge_s,
    }


def _wire_leaves(rounds: int) -> dict[str, float]:
    tagsets = _tagsets(64)
    batch = [(tags, doc_id) for doc_id, tags in enumerate(tagsets)]
    message = [TupleMessage(streams.NOTIFICATIONS, (batch, 12.5), "disseminator", 9)]
    pickle_s = _median_seconds(lambda: [
        pickle.loads(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        for _ in range(200)
    ], rounds)
    documents = TwitterLikeGenerator(
        WorkloadConfig(seed=_SEED, tweets_per_second=50.0)
    ).generate(50)

    def ingest_round_trip() -> None:
        for _ in range(100):
            line = protocol.encode({
                "v": protocol.PROTOCOL_VERSION, "op": "ingest", "block": True,
                "documents": [protocol.document_to_wire(d) for d in documents],
            })
            protocol.documents_from_wire(protocol.decode_request(line)["documents"])

    return {
        "leaf.tuple_pickle_us": pickle_s / 200 * 1e6,
        "leaf.protocol_ingest_us":
            _median_seconds(ingest_round_trip, rounds) / 100 * 1e6,
    }


def _trace_leaves(rounds: int) -> dict[str, float]:
    def noop() -> None:
        pass

    traced = SpanRecorder().wrap("leaf", "noop", noop)
    calls = 50_000
    plain_s = _median_seconds(lambda: [noop() for _ in range(calls)], rounds)
    traced_s = _median_seconds(lambda: [traced() for _ in range(calls)], rounds)
    return {"leaf.span_us": (traced_s - plain_s) / calls * 1e6}


def run_leaves(work_dir: str, rounds: int = ROUNDS) -> dict[str, float]:
    return {
        **_calculator_leaves(rounds), **_store_leaves(work_dir, rounds),
        **_wire_leaves(rounds), **_trace_leaves(rounds),
    }

"""What crosses the process executor's pipes, and what a dead worker does.

The process executor ships *state* back at finalisation, never data derived
from it (a subset-enumeration cache comes back empty), and the Tracker stays
in the driver under every executor — so its table, and its spill store, are
still there (and still the driver's to clean up) when a worker dies.
"""

import gc
import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.operators import TrackerBolt, streams
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.streamsim import ShardedProcessExecutor
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

#: Ceiling on one returned bolt's pickle.  A Calculator that shipped its
#: cache entries (or a Tracker its table) is megabytes on this workload.
MAX_RETURNED_BOLT_BYTES = 128 * 1024


@pytest.fixture(scope="module")
def documents():
    config = WorkloadConfig(
        seed=7,
        tweets_per_second=50.0,
        n_topics=120,
        tags_per_topic=15,
        new_topic_rate=5.0,
        intra_topic_probability=0.92,
    )
    return TwitterLikeGenerator(config).generate(2500)


def _config(**overrides):
    base = dict(
        algorithm="DS",
        k=4,
        n_partitioners=3,
        window_mode="count",
        window_size=500,
        bootstrap_documents=200,
        quality_check_interval=120,
        repartition_threshold=0.5,
        report_interval_seconds=30.0,
    )
    base.update(overrides)
    return SystemConfig(**base)


def _tracker_of(cluster) -> TrackerBolt:
    (tracker,) = cluster.instances_of(streams.TRACKER)
    assert isinstance(tracker, TrackerBolt)
    return tracker


@pytest.fixture(scope="module", params=["exact", "sketch"])
def process_run(request, documents):
    """One process-mode run per Calculator mode, with the pickled size of
    every bolt as it arrived from its shard (before the driver re-attaches
    its collector and context)."""
    mode = request.param
    returned: dict[int, int] = {}
    receive = ShardedProcessExecutor._receive

    def recording(self, shard, expected):
        payload = receive(self, shard, expected)
        if expected == "result":
            for task_id, bolt in payload.bolts.items():
                returned[task_id] = len(pickle.dumps(bolt))
        return payload

    system = TagCorrelationSystem(
        _config(calculator=mode, executor="process", workers=2)
    )
    cluster = system.build_cluster(documents)
    constructed = _tracker_of(cluster)
    ShardedProcessExecutor._receive = recording
    try:
        cluster.run()
    finally:
        ShardedProcessExecutor._receive = receive
    report = system.collect_report(cluster)
    inline = TagCorrelationSystem(_config(calculator=mode)).run(documents)
    return report, inline, cluster, constructed, returned


class TestWhatCrossesThePipe:
    def test_returned_bolts_are_small(self, process_run):
        report, _, cluster, _, returned = process_run
        assert sorted(returned) == [
            task.task_id for task in cluster.tasks_of(streams.CALCULATOR)
        ]
        assert report.coefficients_reported > 1000  # the run did real work
        assert max(returned.values()) < MAX_RETURNED_BOLT_BYTES, returned

    def test_subset_cache_stats_match_inline(self, process_run):
        report, inline, *_ = process_run
        assert report.subset_cache_stats == inline.subset_cache_stats
        if report.calculator_mode == "exact":
            assert report.subset_cache_stats["misses"] > 0

    def test_tracker_never_left_the_driver(self, process_run):
        report, _, cluster, constructed, _ = process_run
        (task,) = cluster.tasks_of(streams.TRACKER)
        assert not task.is_remote
        assert task.instance is constructed
        assert len(constructed) == report.coefficients_reported

    def test_tail_timings_reported(self, process_run):
        report, inline, *_ = process_run
        assert report.timings["workers_busy"] > 0.0
        assert report.timings["remote_tail"] > 0.0
        assert inline.timings["workers_busy"] == 0.0
        assert inline.timings["remote_tail"] == 0.0


class TestWorkerDeath:
    """SIGKILL one shard worker once it holds report batches: ``run()``
    raises within the liveness timeout of the blocking flush receive and
    leaves no child process and no spill directory."""

    @pytest.mark.parametrize("flush_pass", [1, 2])
    def test_killed_worker_fails_the_run(self, documents, tmp_path, flush_pass):
        """Pass 1: the worker dies with its report batches still buffered.
        Pass 2: the first pass relayed them (the Tracker ingested and
        spilled); the worker dies before the second waits for its reply."""
        system = TagCorrelationSystem(_config(
            executor="process", workers=2,
            tracker_store="spill", tracker_spill_threshold=64,
            spill_dir=str(tmp_path),
        ))
        cluster = system.build_cluster(documents)
        executor = cluster.executor
        flush_remote = executor.flush_remote
        passes = 0
        killed_at: list[float] = []
        spill_dirs_at_kill: list[int] = []

        def killing_flush():
            nonlocal passes
            passes += 1
            if passes == flush_pass:
                worker = executor._procs[1]
                os.kill(worker.pid, signal.SIGKILL)
                worker.join(timeout=5.0)
                assert not worker.is_alive()
                killed_at.append(time.monotonic())
                spill_dirs_at_kill.append(len(os.listdir(tmp_path)))
            return flush_remote()

        executor.flush_remote = killing_flush
        with pytest.raises(RuntimeError, match="died without reporting a result"):
            cluster.run()
        assert time.monotonic() - killed_at[0] < 10.0
        # At pass 2 the Tracker held a live store when the worker died.
        assert spill_dirs_at_kill == [flush_pass - 1]
        assert multiprocessing.active_children() == []
        del system, cluster, executor, flush_remote
        gc.collect()
        assert os.listdir(tmp_path) == []

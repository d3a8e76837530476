"""The scoped GC policy: raised while a run is active, restored afterwards.

Every test leaves the interpreter's thresholds and enabled flag as it found
them (checked by the autouse fixture), whichever way the scope was left —
normal return, a bolt raising mid-stream, nested entry, two threads leaving
in either order.  The regression guard at the end does not depend on a
clock: a run over the first 6 000 documents of the benchmark's churn stream
must record no full collector pass (the interpreter's defaults do 4 on that
input, plus 562 young and 51 middle ones).
"""

import gc
import os
import subprocess
import sys
import threading
import time
import weakref

import pytest

from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.service import ServiceClient, ServiceDaemon
from repro.streamsim.cluster import Cluster
from repro.streamsim.components import Bolt, Spout
from repro.streamsim.executors import make_executor
from repro.streamsim.gcpolicy import YOUNG_THRESHOLD, GcTally, gc_policy
from repro.streamsim.topology import TopologyBuilder
from repro.streamsim.tuples import TupleMessage, stream_schema
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

NUMBERS = stream_schema("default", ("value", "timestamp"))


@pytest.fixture(autouse=True)
def host_gc_state_is_left_alone():
    threshold, enabled = gc.get_threshold(), gc.isenabled()
    try:
        yield
        assert gc.get_threshold() == threshold
        assert gc.isenabled() == enabled
    finally:
        gc.set_threshold(*threshold)
        (gc.enable if enabled else gc.disable)()


def _raised(host: tuple[int, int, int]) -> tuple[int, int, int]:
    return (max(host[0], YOUNG_THRESHOLD), *host[1:])


# --------------------------------------------------------------------- #
# Toy topology (module-level classes: the process executor pickles them)
# --------------------------------------------------------------------- #
class NumberSpout(Spout):
    def __init__(self, n: int) -> None:
        super().__init__()
        self._n = n
        self._next = 0

    def next_tuple(self) -> bool:
        if self._next >= self._n:
            return False
        self.emit(NUMBERS, self._next, float(self._next))
        self._next += 1
        return True


class ObservingSink(Bolt):
    """Records the collector's state as seen from inside the run."""

    def __init__(self, fail_at: int | None = None) -> None:
        super().__init__()
        self._fail_at = fail_at
        self.thresholds: set[tuple[int, int, int]] = set()
        self.enabled: set[bool] = set()

    def execute(self, message: TupleMessage) -> None:
        if message["value"] == self._fail_at:
            raise RuntimeError("bolt failed mid-stream")
        self.thresholds.add(gc.get_threshold())
        self.enabled.add(gc.isenabled())


class _Node:
    __slots__ = ("other", "__weakref__")


class CycleSink(Bolt):
    """Makes young cyclic garbage per document: one probed two-object cycle
    and enough unprobed ones that a few hundred documents fill the young
    generation."""

    FILLER_CYCLES = 150

    def __init__(self) -> None:
        super().__init__()
        self._first_probe: weakref.ref | None = None
        self.reclaimed_at: int | None = None

    def execute(self, message: TupleMessage) -> None:
        if self._first_probe is None:
            left, right = _Node(), _Node()
            left.other, right.other = right, left
            self._first_probe = weakref.ref(left)
        for _ in range(self.FILLER_CYCLES):
            cell: list = []
            cell.append(cell)
        if self.reclaimed_at is None and self._first_probe() is None:
            self.reclaimed_at = message["value"]


class FailingSink(ObservingSink):
    def __init__(self) -> None:
        super().__init__(fail_at=40)


def _cluster(n_values: int, sink, executor: str = "inline") -> Cluster:
    builder = TopologyBuilder()
    builder.set_spout("numbers", lambda: NumberSpout(n_values))
    builder.set_bolt("sink", sink).shuffle_grouping("numbers")
    return Cluster(
        builder.build(),
        executor=make_executor(executor, workers=1, remote_component="sink"),
    )


# --------------------------------------------------------------------- #
# Entering and leaving
# --------------------------------------------------------------------- #
class TestScope:
    def test_raised_inside_and_restored_after_a_run(self):
        host = gc.get_threshold()
        cluster = _cluster(100, ObservingSink)
        cluster.run()
        (sink,) = cluster.instances_of("sink")
        assert sink.thresholds == {_raised(host)}
        assert sink.enabled == {True}
        assert gc.get_threshold() == host

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_restored_after_a_bolt_raises_mid_stream(self, executor):
        host = gc.get_threshold()
        cluster = _cluster(100, FailingSink, executor)
        with pytest.raises(RuntimeError, match="bolt failed mid-stream"):
            cluster.run()
        assert gc.get_threshold() == host

    def test_nested_entry_restores_only_at_the_outermost_exit(self):
        host = gc.get_threshold()
        with gc_policy():
            with gc_policy():
                assert gc.get_threshold() == _raised(host)
            assert gc.get_threshold() == _raised(host)
        assert gc.get_threshold() == host

    @pytest.mark.parametrize("first_out", [0, 1])
    def test_overlapping_threads_leave_in_either_order(self, first_out):
        host = gc.get_threshold()
        entered = [threading.Event(), threading.Event()]
        leave = [threading.Event(), threading.Event()]
        failures: list[BaseException] = []

        def hold(index: int) -> None:
            try:
                with gc_policy():
                    entered[index].set()
                    assert leave[index].wait(timeout=30.0)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)

        threads = [threading.Thread(target=hold, args=(i,)) for i in (0, 1)]
        for thread, event in zip(threads, entered):
            thread.start()
            assert event.wait(timeout=30.0)
        assert gc.get_threshold() == _raised(host)
        for index in (first_out, 1 - first_out):
            # Still raised until the last scope has gone.
            assert gc.get_threshold() == _raised(host)
            leave[index].set()
            threads[index].join(timeout=30.0)
            assert not threads[index].is_alive()
        assert not failures
        assert gc.get_threshold() == host

    def test_many_threads_entering_and_leaving_never_lose_the_count(self):
        host = gc.get_threshold()
        hooks_before = list(gc.callbacks)
        failures: list[BaseException] = []
        deadline = time.monotonic() + 20.0

        def churn() -> None:
            try:
                for _ in range(300):
                    if time.monotonic() > deadline:
                        break
                    with gc_policy():
                        # A lost update of the depth would restore the
                        # host's thresholds under a scope that is active.
                        assert gc.get_threshold() == _raised(host)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert gc.get_threshold() == host
        assert gc.callbacks == hooks_before

    @pytest.mark.parametrize("young", [YOUNG_THRESHOLD * 4, 0])
    def test_host_threshold_is_never_lowered_or_switched_on(self, young):
        host = gc.get_threshold()
        gc.set_threshold(young, 7, 9)
        try:
            with gc_policy():
                assert gc.get_threshold() == (young, 7, 9)
            assert gc.get_threshold() == (young, 7, 9)
        finally:
            gc.set_threshold(*host)

    def test_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            cluster = _cluster(50, ObservingSink)
            cluster.run()
            (sink,) = cluster.instances_of("sink")
            assert sink.enabled == {False}
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestCollectorStaysOn:
    def test_young_cyclic_garbage_is_reclaimed_during_the_run(self):
        n_values = 4 * YOUNG_THRESHOLD // CycleSink.FILLER_CYCLES
        cluster = _cluster(n_values, CycleSink)
        gc.collect()
        cluster.run()
        (sink,) = cluster.instances_of("sink")
        assert sink.reclaimed_at is not None
        assert sink.reclaimed_at < n_values - 1
        assert cluster.gc_tally.passes[0] >= 1
        assert cluster.gc_tally.pause_seconds > 0.0

    def test_overlapping_scopes_each_see_a_pass(self):
        outer, inner = GcTally(), GcTally()
        with gc_policy(outer):
            gc.collect()
            with gc_policy(inner):
                gc.collect()
        gc.collect()
        assert outer.passes == [0, 0, 2]
        assert inner.passes == [0, 0, 1]
        assert outer.pause_seconds > inner.pause_seconds > 0.0


# --------------------------------------------------------------------- #
# Regression guard: no full pass on the churn stream
# --------------------------------------------------------------------- #
#: The benchmark's churn stream and system configuration
#: (``benchmarks/bench/bench_workloads.py``).
CHURN_SYSTEM = dict(
    k=8, n_partitioners=5, window_size=1500, bootstrap_documents=600,
    quality_check_interval=250, report_interval_seconds=60.0,
)


def _churn_documents():
    config = WorkloadConfig(
        seed=7, tweets_per_second=50.0, n_topics=120, tags_per_topic=15,
        new_topic_rate=5.0, intra_topic_probability=0.92,
    )
    return TwitterLikeGenerator(config).generate(6000)


@pytest.fixture(scope="module")
def churn_documents():
    return _churn_documents()


class TestNoFullPassOnChurn:
    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_batch_run(self, churn_documents, executor):
        host = gc.get_threshold()
        system = TagCorrelationSystem(
            SystemConfig(executor=executor, workers=2, **CHURN_SYSTEM)
        )
        gc.collect()  # a defined host state: no pass already overdue
        report = system.run(churn_documents)
        assert gc.get_threshold() == host
        assert report.documents_processed == len(churn_documents)
        assert report.gc_passes[2] == 0
        assert report.gc_passes[0] >= 1
        assert 0.0 < report.timings["gc"] < (
            report.timings["stream"] + report.timings["reporting"]
        )
        if executor == "process":
            workers = system.cluster.executor.worker_gc_tally
            assert workers.passes[0] >= 1 and workers.passes[2] == 0
            assert report.timings["gc_workers"] == workers.pause_seconds > 0.0
            driver = system.cluster.gc_tally.passes
            assert report.gc_passes == [
                mine + theirs for mine, theirs in zip(driver, workers.passes)
            ]
        else:
            assert not hasattr(system.cluster.executor, "worker_gc_tally")
            assert report.timings["gc_workers"] == 0.0
            assert report.gc_passes == system.cluster.gc_tally.passes

    def test_batch_run_beside_a_live_daemon(self, churn_documents):
        """A run that starts and ends while a daemon's writer is alive
        neither drops the policy early nor leaks it."""
        host = gc.get_threshold()
        config = SystemConfig(**CHURN_SYSTEM)
        with ServiceDaemon(config) as daemon:
            with ServiceClient(*daemon.address) as client:
                client.ingest(churn_documents[:50], block=True, timeout=60.0)
                deadline = time.monotonic() + 30.0
                while client.stats()["documents_processed"] < 50:
                    assert time.monotonic() < deadline, "writer never ran"
                    time.sleep(0.01)
                TagCorrelationSystem(config).run(churn_documents[:500])
                assert gc.get_threshold() == _raised(host)
                client.shutdown()
        assert gc.get_threshold() == host

    def test_served_run(self):
        """In a fresh interpreter, as the bench does for memory figures:
        whether a full pass falls due depends on how large the surrounding
        process's old generation already is, and inside a whole-suite pytest
        run that is not a defined state."""
        done = subprocess.run(
            [sys.executable, __file__],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=300.0,
        )
        assert done.returncode == 0, done.stderr


def _served_run(churn_documents) -> None:
    host = gc.get_threshold()
    gc.collect()
    with ServiceDaemon(SystemConfig(**CHURN_SYSTEM)) as daemon:
        with ServiceClient(*daemon.address) as client:
            for start in range(0, len(churn_documents), 500):
                client.ingest(
                    churn_documents[start:start + 500],
                    block=True, timeout=60.0,
                )
            # The figures are live: a young pass shows while the writer runs
            # (it may still be behind the acknowledged batches).
            deadline = time.monotonic() + 60.0
            while (live := client.stats())["gc_passes"][0] < 1:
                assert time.monotonic() < deadline, "no young pass reported"
                time.sleep(0.01)
            # The writer thread still holds the policy: it owns the run.
            assert gc.get_threshold() == _raised(host)
            client.shutdown()
            final = client.stats()
    assert gc.get_threshold() == host
    report = daemon.final_report
    assert report.documents_processed == len(churn_documents)
    assert report.gc_passes[2] == 0
    assert final["gc_passes"] == report.gc_passes
    assert final["gc_pause_ms"] == pytest.approx(report.timings["gc"] * 1e3)


if __name__ == "__main__":
    _served_run(_churn_documents())

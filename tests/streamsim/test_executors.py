"""Unit tests for the pluggable execution engines.

The toy topologies here use module-level component classes so the sharded
executor can pickle their factories into worker processes.
"""

import pytest

from repro.streamsim.cluster import Cluster, run_topology
from repro.streamsim.components import Bolt, Spout
from repro.streamsim.executors import (
    EXECUTOR_NAMES,
    AsyncServiceExecutor,
    IngestBackpressure,
    IngestClosed,
    InlineExecutor,
    ShardedProcessExecutor,
    make_executor,
)
from repro.streamsim.topology import TopologyBuilder
from repro.streamsim.tuples import TupleMessage, stream_schema

NUMBERS = stream_schema("default", ("value", "timestamp"))
TOTALS = stream_schema("totals", ("total",))


class NumberSpout(Spout):
    """Emits the integers 0..n-1, one per next_tuple call."""

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


class CountingSink(Bolt):
    """Remote-layer bolt: records values, ticks, and re-emits sums on flush."""

    def __init__(self) -> None:
        super().__init__()
        self.values: list[int] = []
        self.ticks: list[float] = []
        self._flushed = False

    def execute(self, message: TupleMessage) -> None:
        self.values.append(message["value"])

    def tick(self, simulation_time: float) -> None:
        self.ticks.append(simulation_time)

    def flush(self) -> None:
        if self._flushed or not self.values:
            return
        self._flushed = True
        self.emit(TOTALS, sum(self.values))


class TotalsBolt(Bolt):
    """Driver-side bolt consuming the sink layer's flush-time emissions."""

    def __init__(self) -> None:
        super().__init__()
        self.totals: list[int] = []

    def execute(self, message: TupleMessage) -> None:
        self.totals.append(message["total"])


class RelayBolt(Bolt):
    """Driver-side bolt that forwards what it receives (non-terminal)."""

    def execute(self, message: TupleMessage) -> None:
        self.emit(TOTALS, message["total"])


def _sink_factory():
    return CountingSink()


def _build_topology(n_values: int, sink_parallelism: int = 2, with_totals: bool = False):
    builder = TopologyBuilder()
    builder.set_spout("numbers", lambda: NumberSpout(n_values))
    builder.set_bolt("sink", _sink_factory, parallelism=sink_parallelism).fields_grouping(
        "numbers", ["value"]
    )
    if with_totals:
        builder.set_bolt("totals", TotalsBolt).shuffle_grouping("sink", "totals")
    return builder.build()


class TestRegistry:
    def test_names(self):
        assert set(EXECUTOR_NAMES) == {"inline", "process", "service"}

    def test_make_inline(self):
        assert isinstance(make_executor("inline"), InlineExecutor)

    def test_make_service(self):
        executor = make_executor("service", queue_limit=3)
        assert isinstance(executor, AsyncServiceExecutor)
        assert executor.queue_limit == 3

    def test_make_process(self):
        executor = make_executor("process", workers=3, remote_components=("sink",))
        assert isinstance(executor, ShardedProcessExecutor)
        assert executor.requested_workers == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("threads")

    def test_process_requires_remote_components(self):
        with pytest.raises(ValueError):
            ShardedProcessExecutor(workers=2)

    def test_process_requires_positive_workers(self):
        with pytest.raises(ValueError):
            ShardedProcessExecutor(workers=0, remote_components=("sink",))


class TestInlineExecutor:
    def test_cluster_defaults_to_inline(self):
        cluster = Cluster(_build_topology(4))
        assert isinstance(cluster.executor, InlineExecutor)

    def test_inline_runs_to_completion(self):
        cluster = run_topology(_build_topology(10), executor=InlineExecutor())
        values = sorted(
            value
            for task in cluster.tasks_of("sink")
            for value in task.instance.values
        )
        assert values == list(range(10))
        assert cluster.accounting.link("numbers", "sink") == 10


class TestShardedProcessExecutor:
    def test_values_and_accounting_match_inline(self):
        n = 24
        inline = run_topology(_build_topology(n), executor=InlineExecutor())
        sharded = run_topology(
            _build_topology(n),
            executor=ShardedProcessExecutor(workers=2, remote_components=("sink",)),
        )
        for cluster in (inline, sharded):
            assert cluster.accounting.link("numbers", "sink") == n
            assert cluster.accounting.total == inline.accounting.total
        # Per-task state came back from the workers and matches inline.
        for task_inline, task_sharded in zip(
            inline.tasks_of("sink"), sharded.tasks_of("sink")
        ):
            assert task_sharded.instance.values == task_inline.instance.values
            assert task_sharded.instance.ticks == task_inline.instance.ticks

    def test_intra_layer_emissions_relayed_through_driver(self):
        """sink → totals inside the remote layer mirrors Calculator → Tracker:
        flush-time emissions are collected by the driver and shipped to the
        consumer's shard, with accounting identical to the inline engine."""
        n = 12
        inline = run_topology(_build_topology(n, with_totals=True))
        sharded = run_topology(
            _build_topology(n, with_totals=True),
            executor=ShardedProcessExecutor(
                workers=2, remote_components=("sink", "totals")
            ),
        )

        def totals_of(cluster):
            return sorted(cluster.tasks_of("totals")[0].instance.totals)

        assert totals_of(sharded) == totals_of(inline)
        assert sum(totals_of(sharded)) == sum(range(n))
        assert sharded.accounting.link("sink", "totals") == inline.accounting.link(
            "sink", "totals"
        )

    def test_workers_clamped_to_layer_width(self):
        executor = ShardedProcessExecutor(workers=8, remote_components=("sink",))
        run_topology(_build_topology(6, sink_parallelism=2), executor=executor)
        assert executor.effective_workers == 2

    def test_missing_remote_component_degrades_to_inline(self):
        executor = ShardedProcessExecutor(workers=2, remote_components=("nonexistent",))
        cluster = run_topology(_build_topology(5), executor=executor)
        assert executor.effective_workers == 0
        assert cluster.accounting.link("numbers", "sink") == 5

    def test_remote_layer_feeding_a_non_terminal_consumer_rejected(self):
        # A driver-side consumer that feeds others in turn would re-emit
        # relayed (hence late) tuples into the middle of the pipeline.
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(3))
        builder.set_bolt("middle", _sink_factory).fields_grouping("numbers", ["value"])
        builder.set_bolt("relay", RelayBolt).shuffle_grouping("middle", "totals")
        builder.set_bolt("tail", TotalsBolt).shuffle_grouping("relay", "totals")
        with pytest.raises(ValueError, match="sink layer"):
            Cluster(
                builder.build(),
                executor=ShardedProcessExecutor(
                    workers=2, remote_components=("middle",)
                ),
            )

    def test_remote_layer_feeding_a_terminal_consumer_relays_at_flush(self):
        """sink → totals with only the sinks remote mirrors Calculator →
        Tracker: the driver-side consumer receives the relayed tuples at
        flush, in shard order, with the inline run's accounting."""
        n = 12
        inline = run_topology(_build_topology(n, 4, with_totals=True))
        executor = ShardedProcessExecutor(workers=2, remote_components=("sink",))
        sharded = run_topology(_build_topology(n, 4, with_totals=True), executor=executor)

        def totals_of(cluster):
            return cluster.tasks_of("totals")[0].instance.totals

        per_task = {
            task.task_id: sum(task.instance.values)
            for task in inline.tasks_of("sink")
        }
        # Shard order (task_index % 2), task order inside a shard.
        by_shard = sorted(per_task, key=lambda task_id: (executor._owner[task_id], task_id))
        assert totals_of(sharded) == [per_task[task_id] for task_id in by_shard]
        assert sorted(totals_of(sharded)) == sorted(totals_of(inline))
        assert sharded.accounting.link("sink", "totals") == inline.accounting.link(
            "sink", "totals"
        )
        assert sharded.accounting.total == inline.accounting.total
        # The consumer never left the driver.
        assert not sharded.tasks_of("totals")[0].is_remote

    def test_second_run_rejected(self):
        # Re-running would rebuild workers from factories and silently zero
        # the remote state merged back by the first run.
        executor = ShardedProcessExecutor(workers=2, remote_components=("sink",))
        cluster = Cluster(_build_topology(4), executor=executor)
        cluster.run()
        with pytest.raises(RuntimeError, match="once"):
            cluster.run()

    def test_direct_injection_into_remote_task_rejected(self):
        executor = ShardedProcessExecutor(workers=2, remote_components=("sink",))
        cluster = Cluster(_build_topology(4), executor=executor)
        with pytest.raises(RuntimeError, match="remote layer"):
            cluster.process(NUMBERS.message(value=1), "sink")

    def test_post_run_routing_to_remote_layer_rejected(self):
        # After the workers are gone, anything routed to the remote layer
        # (deliveries, ticks) must fail loudly rather than buffer forever.
        executor = ShardedProcessExecutor(workers=2, remote_components=("sink",))
        cluster = Cluster(_build_topology(4), executor=executor)
        cluster.run()
        with pytest.raises(RuntimeError, match="shut down"):
            executor.tick_remote(99.0)

    def test_executor_cannot_be_reused_across_clusters(self):
        executor = ShardedProcessExecutor(workers=2, remote_components=("sink",))
        Cluster(_build_topology(3), executor=executor)
        with pytest.raises(RuntimeError, match="already attached"):
            Cluster(_build_topology(3), executor=executor)

    def test_unpicklable_factory_reported(self):
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(3))
        builder.set_bolt("sink", lambda: CountingSink(), parallelism=2).fields_grouping(
            "numbers", ["value"]
        )
        cluster = Cluster(
            builder.build(),
            executor=ShardedProcessExecutor(workers=2, remote_components=("sink",)),
        )
        with pytest.raises(RuntimeError, match="picklable"):
            cluster.run()


class QueueSpout(Spout):
    """Toy equivalent of the pipeline's ServiceSpout for substrate tests."""

    def __init__(self, executor: AsyncServiceExecutor) -> None:
        super().__init__()
        self._executor = executor
        self.emitted = 0

    def next_tuple(self) -> bool:
        value = self._executor.next_document()
        if value is None:
            return False
        self.emit(NUMBERS, value, float(value))
        self.emitted += 1
        return True


def _build_service_topology(executor: AsyncServiceExecutor, sink_parallelism: int = 2):
    builder = TopologyBuilder()
    builder.set_spout("numbers", lambda: QueueSpout(executor))
    builder.set_bolt("sink", _sink_factory, parallelism=sink_parallelism).fields_grouping(
        "numbers", ["value"]
    )
    return builder.build()


class TestAsyncServiceExecutor:
    def test_queue_limit_validated(self):
        with pytest.raises(ValueError):
            AsyncServiceExecutor(queue_limit=0)

    def test_nonblocking_submit_hits_backpressure(self):
        executor = AsyncServiceExecutor(queue_limit=2)
        executor.submit([1], block=False)
        executor.submit([2], block=False)
        with pytest.raises(IngestBackpressure):
            executor.submit([3], block=False)
        assert executor.pending_batches == 2
        assert executor.batches_accepted == 2
        assert executor.documents_accepted == 2

    def test_submit_after_drain_rejected(self):
        executor = AsyncServiceExecutor()
        executor.request_drain()
        assert executor.draining
        with pytest.raises(IngestClosed):
            executor.submit([1])

    def test_blocking_submit_times_out(self):
        executor = AsyncServiceExecutor(queue_limit=1)
        executor.submit([1])
        with pytest.raises(IngestBackpressure):
            executor.submit([2], block=True, timeout=0.01)

    def test_served_run_matches_inline(self):
        n = 10
        inline = run_topology(_build_topology(n), executor=InlineExecutor())
        executor = AsyncServiceExecutor()
        executor.submit(range(4))
        executor.submit(range(4, n))
        executor.request_drain()
        served = Cluster(_build_service_topology(executor), executor=executor)
        served.run()
        for cluster in (inline, served):
            values = sorted(
                value
                for task in cluster.tasks_of("sink")
                for value in task.instance.values
            )
            assert values == list(range(n))
        assert served.accounting.per_link == inline.accounting.per_link

    def test_quiescent_hook_fires_per_batch_with_empty_queue(self):
        executor = AsyncServiceExecutor()
        cluster = Cluster(_build_service_topology(executor), executor=executor)
        boundaries: list[int] = []

        def on_quiescent() -> None:
            # The in-flight FIFO must be empty at every boundary.
            assert not cluster._queue
            boundaries.append(
                sum(
                    len(task.instance.values)
                    for task in cluster.tasks_of("sink")
                )
            )

        executor.on_quiescent = on_quiescent
        executor.submit([0, 1, 2])
        executor.submit([3, 4])
        executor.request_drain()
        cluster.run()
        # One boundary per consumed batch, each with the batch fully cascaded.
        assert boundaries == [3, 5]

    def test_executor_cannot_be_reused_across_clusters(self):
        executor = AsyncServiceExecutor()
        Cluster(_build_service_topology(executor), executor=executor)
        with pytest.raises(RuntimeError, match="already attached"):
            Cluster(_build_service_topology(executor), executor=executor)

"""Unit tests for the pluggable execution engines.

The toy topologies here use module-level component classes so the sharded
executor can pickle their factories into worker processes.
"""

import threading
import time

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


class GreetingSink(CountingSink):
    """Remote-layer bolt that also emits once while it is prepared."""

    def on_prepare(self) -> None:
        self.emit(TOTALS, -1 - self.task_index)


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


class HandoffRequester(Bolt):
    """Driver-side bolt that asks for a state handoff of the sink layer."""

    def __init__(self) -> None:
        super().__init__()
        self.staged_handoff = None

    def execute(self, message: TupleMessage) -> None:
        if self.staged_handoff is None:
            self.staged_handoff = message
            self.context.request_handoff(self.task_id, ("sink",))


def _sink_factory():
    return CountingSink()


def _greeting_sink_factory():
    return GreetingSink()


def _build_topology(
    n_values: int,
    sink_parallelism: int = 2,
    with_totals: bool = False,
    sink_factory=_sink_factory,
):
    builder = TopologyBuilder()
    builder.set_spout("numbers", lambda: NumberSpout(n_values))
    builder.set_bolt("sink", sink_factory, parallelism=sink_parallelism).fields_grouping(
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
        executor = make_executor("process", workers=3, remote_component="sink")
        assert isinstance(executor, ShardedProcessExecutor)
        assert executor.requested_workers == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("threads")

    def test_process_requires_a_remote_component(self):
        with pytest.raises(ValueError):
            ShardedProcessExecutor(workers=2)

    def test_process_requires_positive_workers(self):
        with pytest.raises(ValueError):
            ShardedProcessExecutor(workers=0, remote_component="sink")


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
            executor=ShardedProcessExecutor(workers=2, remote_component="sink"),
        )
        assert inline.accounting.link("numbers", "sink") == n
        assert sharded.accounting.per_link == inline.accounting.per_link
        assert sharded.accounting.per_task == inline.accounting.per_task
        assert sharded.accounting.total == inline.accounting.total
        # Per-task state came back from the workers and matches inline.
        for task_inline, task_sharded in zip(
            inline.tasks_of("sink"), sharded.tasks_of("sink")
        ):
            assert task_sharded.instance.values == task_inline.instance.values
            assert task_sharded.instance.ticks == task_inline.instance.ticks

    def test_remote_to_remote_subscription_rejected(self):
        # Relayed tuples arrive only at the end-of-stream exchange, so the
        # remote component may not consume its own streams.
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(3))
        builder.set_bolt("sink", _sink_factory, parallelism=2).fields_grouping(
            "numbers", ["value"]
        ).shuffle_grouping("sink", "totals")
        with pytest.raises(ValueError, match="sink layer"):
            Cluster(
                builder.build(),
                executor=ShardedProcessExecutor(workers=2, remote_component="sink"),
            )

    def test_workers_clamped_to_layer_width(self):
        executor = ShardedProcessExecutor(workers=8, remote_component="sink")
        run_topology(_build_topology(6, sink_parallelism=2), executor=executor)
        assert executor.effective_workers == 2

    def test_missing_remote_component_rejected(self):
        executor = ShardedProcessExecutor(workers=2, remote_component="nonexistent")
        with pytest.raises(ValueError, match="'nonexistent' is not in the topology"):
            Cluster(_build_topology(5), executor=executor)

    def test_remote_spout_rejected(self):
        executor = ShardedProcessExecutor(workers=2, remote_component="numbers")
        with pytest.raises(ValueError, match="'numbers' is not a bolt"):
            Cluster(_build_topology(5), executor=executor)

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
                    workers=2, remote_component="middle"
                ),
            )

    def test_remote_layer_feeding_a_terminal_consumer_relays_at_flush(self):
        """sink → totals with only the sinks remote mirrors Calculator →
        Tracker: the driver-side consumer receives the relayed tuples at
        flush, in shard order, with the inline run's accounting."""
        n = 12
        inline = run_topology(_build_topology(n, 4, with_totals=True))
        executor = ShardedProcessExecutor(workers=2, remote_component="sink")
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
        assert sharded.accounting.per_link == inline.accounting.per_link
        assert sharded.accounting.per_task == inline.accounting.per_task

    def test_second_run_rejected(self):
        # Re-running would rebuild workers from factories and silently zero
        # the remote state merged back by the first run.
        executor = ShardedProcessExecutor(workers=2, remote_component="sink")
        cluster = Cluster(_build_topology(4), executor=executor)
        cluster.run()
        with pytest.raises(RuntimeError, match="once"):
            cluster.run()

    def test_injection_before_the_run_reaches_the_worker(self):
        # The proxy buffers the delivery until the workers exist; the
        # worker then handles it before anything the stream routes.
        executor = ShardedProcessExecutor(workers=2, remote_component="sink")
        cluster = Cluster(_build_topology(4), executor=executor)
        cluster.process(NUMBERS.message(value=100, timestamp=0.0), "sink")
        cluster.run()
        first, second = cluster.instances_of("sink")
        assert first.values[0] == 100
        assert sorted(first.values[1:] + second.values) == [0, 1, 2, 3]
        first_task = cluster.tasks_of("sink")[0].task_id
        assert cluster.accounting.per_task[first_task] == len(first.values)

    def test_injection_after_the_run_rejected(self):
        # A proxy kept past the run has no worker to ship to.
        executor = ShardedProcessExecutor(workers=2, remote_component="sink")
        cluster = Cluster(_build_topology(4), executor=executor)
        proxy = cluster.tasks_of("sink")[0].instance
        cluster.run()
        assert cluster.tasks_of("sink")[0].instance is not proxy
        with pytest.raises(RuntimeError, match="shut down"):
            proxy.execute_batch([NUMBERS.message(value=1, timestamp=0.0)])

    def test_post_run_routing_to_remote_layer_rejected(self):
        # After the workers are gone, anything routed to the remote layer
        # (deliveries, ticks) must fail loudly rather than buffer forever.
        executor = ShardedProcessExecutor(workers=2, remote_component="sink")
        cluster = Cluster(_build_topology(4), executor=executor)
        cluster.run()
        with pytest.raises(RuntimeError, match="shut down"):
            executor.tick_remote(99.0)

    def test_executor_cannot_be_reused_across_clusters(self):
        executor = ShardedProcessExecutor(workers=2, remote_component="sink")
        Cluster(_build_topology(3), executor=executor)
        with pytest.raises(RuntimeError, match="already attached"):
            Cluster(_build_topology(3), executor=executor)

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_handoff_of_a_layer_without_migration_refused(self, executor):
        # State handoff runs on driver-side bolts that can migrate; a
        # substrate user asking to migrate a layer the workers own (or one
        # whose bolts have no prepare_migration) fails loudly, naming the
        # component, before anything is quiesced.
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(4))
        builder.set_bolt("sink", _sink_factory, parallelism=2).fields_grouping(
            "numbers", ["value"]
        )
        builder.set_bolt("requester", HandoffRequester).shuffle_grouping("numbers")
        cluster = Cluster(
            builder.build(),
            executor=make_executor(executor, workers=2, remote_component="sink"),
        )
        with pytest.raises(RuntimeError, match="'sink'.*driver-side bolts only"):
            cluster.run()
        if executor == "inline":
            assert not any(sink._flushed for sink in cluster.instances_of("sink"))

    def test_prepare_time_emissions_relayed_at_end_of_stream(self):
        # A remote bolt prepares in its worker; what it emits there is
        # buffered with its other emissions and relayed by the exchange.
        n = 10
        inline = run_topology(
            _build_topology(n, with_totals=True, sink_factory=_greeting_sink_factory)
        )
        sharded = run_topology(
            _build_topology(n, with_totals=True, sink_factory=_greeting_sink_factory),
            executor=ShardedProcessExecutor(workers=2, remote_component="sink"),
        )

        def totals_of(cluster):
            return cluster.tasks_of("totals")[0].instance.totals

        assert inline.tasks_of("totals")[0].instance.totals[:2] == [-1, -2]
        assert sorted(totals_of(sharded)) == sorted(totals_of(inline))
        assert sharded.accounting.per_link == inline.accounting.per_link

    def test_budgeted_run_matches_inline(self):
        # A budgeted stop is end of stream for the remote layer too: the
        # exchange relays what the workers hold at that point.
        inline = Cluster(_build_topology(20, with_totals=True))
        inline.run(max_spout_calls=7)
        sharded = Cluster(
            _build_topology(20, with_totals=True),
            executor=ShardedProcessExecutor(workers=2, remote_component="sink"),
        )
        sharded.run(max_spout_calls=7)
        for task_inline, task_sharded in zip(
            inline.tasks_of("sink"), sharded.tasks_of("sink")
        ):
            assert task_sharded.instance.values == task_inline.instance.values
        assert sum(
            len(sink.values) for sink in sharded.instances_of("sink")
        ) == 7
        assert sorted(sharded.tasks_of("totals")[0].instance.totals) == sorted(
            inline.tasks_of("totals")[0].instance.totals
        )
        assert sharded.accounting.per_link == inline.accounting.per_link

    def test_unpicklable_factory_reported(self):
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(3))
        builder.set_bolt("sink", lambda: CountingSink(), parallelism=2).fields_grouping(
            "numbers", ["value"]
        )
        cluster = Cluster(
            builder.build(),
            executor=ShardedProcessExecutor(workers=2, remote_component="sink"),
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

    def test_blocking_submit_without_timeout_waits_for_a_slot(self):
        executor = AsyncServiceExecutor(queue_limit=1)
        executor.submit([1])
        accepted: list[int] = []
        submitter = threading.Thread(
            target=lambda: accepted.append(executor.submit([2, 3])), daemon=True
        )
        submitter.start()
        time.sleep(0.1)
        assert accepted == []  # the queue is full: the submit waits
        assert executor.next_document() == 1  # the writer frees the slot
        submitter.join(timeout=5.0)
        assert not submitter.is_alive()
        assert accepted == [2]
        assert executor.pending_batches == 1

    def test_blocking_submit_timeout_is_one_deadline(self):
        # Wakeups that find the queue full again — a slot freed and retaken
        # by another submitter — must not restart the timeout.
        executor = AsyncServiceExecutor(queue_limit=1)
        executor.submit([1])
        stop = threading.Event()

        def wake_waiters():
            until = time.monotonic() + 3.0
            while not stop.is_set() and time.monotonic() < until:
                with executor._not_full:
                    executor._not_full.notify_all()
                time.sleep(0.05)

        waker = threading.Thread(target=wake_waiters, daemon=True)
        waker.start()
        started = time.monotonic()
        try:
            with pytest.raises(IngestBackpressure):
                executor.submit([2], block=True, timeout=0.3)
        finally:
            stop.set()
            waker.join(timeout=5.0)
        assert not waker.is_alive()
        assert time.monotonic() - started < 2.0

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

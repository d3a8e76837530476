"""Integration-style tests for the topology builder and the cluster."""

import pytest

from repro.streamsim.cluster import Cluster, run_topology
from repro.streamsim.components import Bolt, Spout
from repro.streamsim.topology import TopologyBuilder
from repro.streamsim.tuples import TupleMessage, stream_schema

NUMBERS = stream_schema("default", ("value", "timestamp"))
ROUTED = stream_schema("routed", ("value",))


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


class CollectingBolt(Bolt):
    """Stores every received value; optionally re-emits doubled values."""

    def __init__(self, forward: bool = False) -> None:
        super().__init__()
        self.values: list[int] = []
        self.ticks: list[float] = []
        self._forward = forward

    def execute(self, message: TupleMessage) -> None:
        value, timestamp = message.values
        self.values.append(value)
        if self._forward:
            self.emit(NUMBERS, value * 2, timestamp)

    def tick(self, simulation_time: float) -> None:
        self.ticks.append(simulation_time)


class DirectBolt(Bolt):
    """Sends every value directly to consumer task of the value's parity."""

    def on_prepare(self) -> None:
        self._targets = self.context.task_ids("sink")

    def execute(self, message: TupleMessage) -> None:
        value = message["value"]
        target = self._targets[value % len(self._targets)]
        self.emit_direct(target, ROUTED, value)


class RoutedSink(Bolt):
    """Collects values from the direct-grouped ``routed`` stream."""

    def __init__(self) -> None:
        super().__init__()
        self.values: list[int] = []

    def execute(self, message: TupleMessage) -> None:
        self.values.append(message["value"])


class TestTopologyBuilder:
    def test_duplicate_component_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("s", lambda: NumberSpout(1))
        with pytest.raises(ValueError):
            builder.set_spout("s", lambda: NumberSpout(1))

    def test_invalid_parallelism(self):
        builder = TopologyBuilder()
        with pytest.raises(ValueError):
            builder.set_spout("s", lambda: NumberSpout(1), parallelism=0)

    def test_factory_type_checked(self):
        builder = TopologyBuilder()
        with pytest.raises(TypeError):
            builder.set_spout("s", CollectingBolt)
        with pytest.raises(TypeError):
            builder.set_bolt("b", lambda: NumberSpout(1))

    def test_unknown_producer_rejected_at_build(self):
        builder = TopologyBuilder()
        builder.set_spout("s", lambda: NumberSpout(1))
        builder.set_bolt("b", CollectingBolt).shuffle_grouping("missing")
        with pytest.raises(ValueError):
            builder.build()

    def test_topology_without_spout_rejected(self):
        builder = TopologyBuilder()
        builder.set_bolt("b", CollectingBolt)
        with pytest.raises(ValueError):
            builder.build()

    def test_stream_declaration_interned_and_recorded(self):
        builder = TopologyBuilder()
        schema = builder.stream("default", ("value", "timestamp"))
        assert schema is NUMBERS
        assert builder.stream(NUMBERS) is NUMBERS  # idempotent re-declaration
        builder.set_spout("s", lambda: NumberSpout(1))
        topology = builder.build()
        assert topology.streams["default"] is NUMBERS

    def test_conflicting_stream_layout_rejected(self):
        builder = TopologyBuilder()
        builder.stream("default", ("value", "timestamp"))
        with pytest.raises(ValueError, match="declared twice"):
            builder.stream("default", ("other",))

    def test_fields_grouping_validated_against_declared_layout(self):
        builder = TopologyBuilder()
        builder.stream(NUMBERS)
        builder.set_spout("s", lambda: NumberSpout(1))
        builder.set_bolt("b", CollectingBolt).fields_grouping("s", ["no_such_field"])
        with pytest.raises(ValueError, match="undeclared fields"):
            builder.build()


class TestClusterExecution:
    def build_simple(self, n=10, bolt_parallelism=1):
        builder = TopologyBuilder()
        builder.stream(NUMBERS)
        builder.set_spout("numbers", lambda: NumberSpout(n))
        builder.set_bolt(
            "collector", CollectingBolt, parallelism=bolt_parallelism
        ).shuffle_grouping("numbers")
        return builder.build()

    def test_all_tuples_delivered(self):
        cluster = run_topology(self.build_simple(20))
        (bolt,) = cluster.instances_of("collector")
        assert sorted(bolt.values) == list(range(20))

    def test_shuffle_spreads_over_tasks(self):
        cluster = run_topology(self.build_simple(100, bolt_parallelism=4))
        counts = [len(bolt.values) for bolt in cluster.instances_of("collector")]
        assert sum(counts) == 100
        assert all(count == 25 for count in counts)

    def test_accounting_counts_links(self):
        cluster = run_topology(self.build_simple(30))
        assert cluster.accounting.link("numbers", "collector") == 30
        assert cluster.accounting.total == 30

    def test_max_spout_calls_limits_run(self):
        cluster = Cluster(self.build_simple(1000))
        cluster.run(max_spout_calls=10)
        (bolt,) = cluster.instances_of("collector")
        assert len(bolt.values) == 10

    def test_chained_bolts(self):
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(5))
        builder.set_bolt("double", lambda: CollectingBolt(forward=True)).shuffle_grouping(
            "numbers"
        )
        builder.set_bolt("sink", CollectingBolt).shuffle_grouping("double")
        cluster = run_topology(builder.build())
        (sink,) = cluster.instances_of("sink")
        assert sorted(sink.values) == [0, 2, 4, 6, 8]

    def test_all_grouping_broadcasts(self):
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(6))
        builder.set_bolt("sink", CollectingBolt, parallelism=3).all_grouping("numbers")
        cluster = run_topology(builder.build())
        for bolt in cluster.instances_of("sink"):
            assert len(bolt.values) == 6

    def test_direct_grouping_routes_to_named_task(self):
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(10))
        builder.set_bolt("router", DirectBolt).shuffle_grouping("numbers")
        builder.set_bolt("sink", RoutedSink, parallelism=2).direct_grouping(
            "router", "routed"
        )
        cluster = run_topology(builder.build())
        even, odd = cluster.instances_of("sink")
        assert all(value % 2 == 0 for value in even.values)
        assert all(value % 2 == 1 for value in odd.values)

    def test_direct_emission_without_subscription_fails(self):
        class BadBolt(Bolt):
            def execute(self, message: TupleMessage) -> None:
                # Task 0 is the spout itself -> no subscription exists.
                self.emit_direct(0, ROUTED, 1)

        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(1))
        builder.set_bolt("bad", BadBolt).shuffle_grouping("numbers")
        with pytest.raises(RuntimeError):
            run_topology(builder.build())

    def test_clock_and_ticks_advance(self):
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(10))
        builder.set_bolt("collector", CollectingBolt).shuffle_grouping("numbers")
        cluster = Cluster(builder.build(), tick_interval=2.0)
        cluster.run()
        assert cluster.current_time == 9.0
        (bolt,) = cluster.instances_of("collector")
        assert len(bolt.ticks) >= 3

    def test_process_injects_tuple_directly(self):
        cluster = Cluster(self.build_simple(0))
        cluster.process(NUMBERS.message(value=42), "collector")
        (bolt,) = cluster.instances_of("collector")
        assert bolt.values == [42]

    def test_context_introspection(self):
        cluster = Cluster(self.build_simple(0, bolt_parallelism=3))
        assert cluster.context.parallelism("collector") == 3
        task_ids = cluster.context.task_ids("collector")
        assert len(task_ids) == 3
        assert cluster.context.component_of(task_ids[0]) == "collector"

    def test_unknown_component_raises(self):
        cluster = Cluster(self.build_simple(0))
        with pytest.raises(KeyError):
            cluster.tasks_of("nope")


class BatchCountingBolt(Bolt):
    """Records how deliveries arrive: one execute_batch call per link batch."""

    def __init__(self) -> None:
        super().__init__()
        self.batch_sizes: list[int] = []
        self.values: list[int] = []

    def execute(self, message: TupleMessage) -> None:
        self.values.append(message["value"])

    def execute_batch(self, messages) -> None:
        self.batch_sizes.append(len(messages))
        super().execute_batch(messages)


class FanOutBolt(Bolt):
    """Re-emits each received value three times on the same stream."""

    def execute(self, message: TupleMessage) -> None:
        value, timestamp = message.values
        for offset in range(3):
            self.emit(NUMBERS, value * 10 + offset, timestamp)


class TestLinkBatching:
    def _run(self):
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(4))
        builder.set_bolt("fan", FanOutBolt).shuffle_grouping("numbers")
        builder.set_bolt("sink", BatchCountingBolt).shuffle_grouping("fan")
        return run_topology(builder.build())

    def test_fan_out_delivers_as_one_batch(self):
        cluster = self._run()
        (sink,) = cluster.instances_of("sink")
        assert sink.batch_sizes == [3, 3, 3, 3]
        assert len(sink.values) == 12
        assert cluster.accounting.link("fan", "sink") == 12


class BufferingBolt(Bolt):
    """Buffers every value and only releases the buffer on flush()."""

    def __init__(self) -> None:
        super().__init__()
        self._buffer: list[tuple[int, float]] = []
        self.flushes = 0

    def execute(self, message: TupleMessage) -> None:
        value, timestamp = message.values
        self._buffer.append((value, timestamp))

    def flush(self) -> None:
        self.flushes += 1
        for value, timestamp in self._buffer:
            self.emit(NUMBERS, value, timestamp)
        self._buffer.clear()


class TestEndOfStreamFlush:
    """The cluster flushes buffering bolts once the spouts are exhausted."""

    def test_buffered_tuples_reach_downstream_consumers(self):
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(5))
        builder.set_bolt("buffer", BufferingBolt).shuffle_grouping("numbers")
        builder.set_bolt("sink", CollectingBolt).shuffle_grouping("buffer")
        cluster = run_topology(builder.build())
        buffer_bolt = cluster.instances_of("buffer")[0]
        sink = cluster.instances_of("sink")[0]
        assert buffer_bolt.flushes >= 1
        assert sorted(sink.values) == [0, 1, 2, 3, 4]

    def test_chained_buffering_bolts_drain_transitively(self):
        """A bolt that buffers tuples released by an upstream flush still
        delivers them: flush passes repeat until nothing new is emitted."""
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(4))
        builder.set_bolt("first", BufferingBolt).shuffle_grouping("numbers")
        builder.set_bolt("second", BufferingBolt).shuffle_grouping("first")
        builder.set_bolt("sink", CollectingBolt).shuffle_grouping("second")
        cluster = run_topology(builder.build())
        sink = cluster.instances_of("sink")[0]
        assert sorted(sink.values) == [0, 1, 2, 3]

    def test_flush_is_noop_for_plain_bolts(self):
        builder = TopologyBuilder()
        builder.set_spout("numbers", lambda: NumberSpout(3))
        builder.set_bolt("sink", CollectingBolt).shuffle_grouping("numbers")
        cluster = run_topology(builder.build())
        sink = cluster.instances_of("sink")[0]
        assert sorted(sink.values) == [0, 1, 2]

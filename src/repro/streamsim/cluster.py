"""The discrete-event cluster that deploys and runs a topology.

The cluster is the reproduction's substitute for a physical Storm cluster.
It creates one object per task (parallel instance) of every component,
routes emitted tuples to subscriber tasks according to the registered
groupings, keeps a simulated clock driven by the ``timestamp`` slot of the
tuples flowing through the system, and counts every message per
(producer component, consumer component) link and per consumer task.

Batch routing
-------------
The routing unit is the :class:`~repro.streamsim.tuples.EmissionBatch`: one
run of same-stream emissions of a single component invocation.  Per batch
the cluster advances the clock **once** (all messages of a batch share the
timestamp slot value), consults each subscriber's grouping **once**
(:meth:`~repro.streamsim.groupings.Grouping.select_batch`), splits the
batch into per-task sub-batches in first-occurrence order, and delivers
each sub-batch with **one accounting update** and one
:meth:`~repro.streamsim.components.Bolt.execute_batch` call.  Messages of a
batch bound for the same task are therefore delivered contiguously; the
paper topology's batches never interleave two consumers of one stream, so
delivery order matches the old per-message routing exactly (pinned by the
wire-equivalence tests).

Execution model
---------------
*How* tuples are pushed through the deployed graph is delegated to a
pluggable :class:`~repro.streamsim.executors.Executor`.  The default
:class:`~repro.streamsim.executors.InlineExecutor` processes batches
depth-first in arrival order in this process: it polls one spout task,
routes everything it emitted, then keeps draining the global FIFO queue
until no tuple is in flight before polling the next spout.  This is
equivalent to a Storm cluster that is never backlogged, which is the regime
the paper's experiments operate in (their metrics are logical counts per
document, not queueing delays).  The
:class:`~repro.streamsim.executors.ShardedProcessExecutor` runs a sink layer
of components across worker processes, shipping the same slot-tuple batches
as its IPC unit; the cluster consults its executor at delivery, tick and
flush time so remote tasks are serviced transparently.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from .components import Bolt, Component
from .gcpolicy import GcTally, gc_policy
from .groupings import Grouping
from .topology import Topology
from .tuples import EmissionBatch, OutputCollector, TupleMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .executors import Executor


@dataclass(slots=True)
class MessageAccounting:
    """Counts of tuples delivered between components and to tasks."""

    per_link: dict[tuple[str, str], int] = field(default_factory=dict)
    per_task: dict[int, int] = field(default_factory=dict)
    total: int = 0

    def record(self, producer: str, consumer: str, task_id: int) -> None:
        self.record_batch(producer, consumer, task_id, 1)

    def record_batch(
        self, producer: str, consumer: str, task_id: int, count: int
    ) -> None:
        """Account one delivered link batch of ``count`` tuples."""
        key = (producer, consumer)
        per_link = self.per_link
        per_link[key] = per_link.get(key, 0) + count
        per_task = self.per_task
        per_task[task_id] = per_task.get(task_id, 0) + count
        self.total += count

    def link(self, producer: str, consumer: str) -> int:
        return self.per_link.get((producer, consumer), 0)

    def merge(self, other: "MessageAccounting") -> None:
        """Fold another accounting (e.g. one worker shard's) into this one.

        Counts are additive, so merging is order-independent; the sharded
        executor still merges shards in shard order for determinism of any
        future non-commutative bookkeeping.
        """
        for key, count in other.per_link.items():
            self.per_link[key] = self.per_link.get(key, 0) + count
        for task_id, count in other.per_task.items():
            self.per_task[task_id] = self.per_task.get(task_id, 0) + count
        self.total += other.total


@dataclass(slots=True)
class TaskInfo:
    """One parallel instance of a component."""

    task_id: int
    task_index: int
    component: str
    instance: Component
    collector: OutputCollector
    #: Whether the instance is a bolt (deliverable); set at deployment.
    is_bolt: bool = False
    #: Whether the task is owned by the executor's remote layer.
    is_remote: bool = False


class ClusterContext:
    """Read-only view of the cluster handed to components at prepare time."""

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster

    def task_ids(self, component: str) -> list[int]:
        """Global task ids of a component, ordered by task index."""
        return [task.task_id for task in self._cluster.tasks_of(component)]

    def parallelism(self, component: str) -> int:
        return len(self._cluster.tasks_of(component))

    def component_of(self, task_id: int) -> str:
        return self._cluster.task(task_id).component

    @property
    def current_time(self) -> float:
        return self._cluster.current_time

    def request_handoff(self, task_id: int, components: Sequence[str]) -> None:
        """Ask the cluster for a coordinated state handoff (live repartition).

        Queued, not immediate: the handoff runs at the next quiescent point
        (the in-flight queue empty), where the cluster quiesces the listed
        component layers, two-phase-migrates their state and then calls the
        requesting bolt's ``commit_staged``/``abort_staged`` callback.
        """
        self._cluster._request_handoff(task_id, tuple(components))


class Cluster:
    """Deploys a topology and runs it to completion via its executor."""

    def __init__(
        self,
        topology: Topology,
        tick_interval: float = 1.0,
        executor: "Executor | None" = None,
        link_batch_size: int = 0,
    ) -> None:
        topology.validate()
        if executor is None:
            from .executors import InlineExecutor

            executor = InlineExecutor()
        if link_batch_size < 0:
            raise ValueError("link_batch_size must be non-negative (0 = unlimited)")
        self.topology = topology
        self.accounting = MessageAccounting()
        self.current_time = 0.0
        self.link_batch_size = link_batch_size
        self._tick_interval = tick_interval
        self._last_tick = 0.0
        self._queue: deque[tuple[TaskInfo, list[TupleMessage]]] = deque()
        #: Pending coordinated-handoff requests (live repartitioning) and
        #: their run-level accounting, read by the pipeline after the run.
        self._handoff_requests: deque[tuple[int, tuple[str, ...]]] = deque()
        self.migration_stall_seconds = 0.0
        self.migration_failures: list[str] = []
        #: Cyclic-GC passes while this cluster's run (and its report
        #: collection) held the scoped GC policy: in this process — live,
        #: the service daemon's ``stats`` reads it — and, merged in at
        #: finalisation, in the process executor's workers.
        self.gc_tally = GcTally()
        self.worker_gc_tally = GcTally()
        self._tasks: list[TaskInfo] = []
        self._tasks_by_component: dict[str, list[TaskInfo]] = {}
        self._create_tasks()
        # Routing table: producer -> stream name -> [(consumer tasks, grouping)].
        # Stream keys are plain strings (schemas are str subclasses), so the
        # lookup works whether a stream was declared with a schema or not.
        self._routes: dict[str, dict[str, list[tuple[list[TaskInfo], Grouping]]]] = {}
        self._direct_consumers: dict[tuple[str, str], set[str]] = {}
        self._build_routes()
        self._context = ClusterContext(self)
        self._executor = executor
        # The executor claims its remote tasks before any component is
        # prepared: remote tasks then prepare in their workers only, and
        # their prepare-time emissions are captured (and later relayed)
        # worker-side.
        self._executor.attach(self)
        for task in self._tasks:
            task.is_remote = self._executor.owns(task.task_id)
        self._prepare_tasks()

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #
    def _create_tasks(self) -> None:
        task_id = 0
        for spec in self.topology.components.values():
            instances = []
            for task_index in range(spec.parallelism):
                instance = spec.factory()
                collector = OutputCollector(
                    spec.name, task_id, max_batch=self.link_batch_size
                )
                info = TaskInfo(
                    task_id=task_id,
                    task_index=task_index,
                    component=spec.name,
                    instance=instance,
                    collector=collector,
                    is_bolt=isinstance(instance, Bolt),
                )
                instances.append(info)
                self._tasks.append(info)
                task_id += 1
            self._tasks_by_component[spec.name] = instances

    def _build_routes(self) -> None:
        for subscription in self.topology.subscriptions:
            consumer_tasks = self._tasks_by_component[subscription.consumer]
            stream = str(subscription.stream)
            self._routes.setdefault(subscription.producer, {}).setdefault(
                stream, []
            ).append((consumer_tasks, subscription.grouping))
            self._direct_consumers.setdefault(
                (subscription.producer, stream), set()
            ).add(subscription.consumer)

    def _prepare_tasks(self) -> None:
        for task in self._tasks:
            if task.is_remote:
                # Remote tasks prepare inside their worker (the driver-side
                # instance is an inert placeholder, replaced at finalise);
                # preparing both copies would duplicate prepare-time
                # emissions.
                continue
            task.instance.prepare(
                component_name=task.component,
                task_index=task.task_index,
                task_id=task.task_id,
                collector=task.collector,
                context=self._context,
            )
            # Components may emit during prepare (e.g. initial control tuples).
            self._route_emissions(task)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def tasks_of(self, component: str) -> list[TaskInfo]:
        if component not in self._tasks_by_component:
            raise KeyError(f"unknown component {component!r}")
        return self._tasks_by_component[component]

    def task(self, task_id: int) -> TaskInfo:
        return self._tasks[task_id]

    def instances_of(self, component: str) -> list[Component]:
        """The live operator objects of a component (inspection in tests)."""
        return [task.instance for task in self.tasks_of(component)]

    @property
    def context(self) -> ClusterContext:
        return self._context

    @property
    def executor(self) -> "Executor":
        """The execution engine driving this cluster."""
        return self._executor

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, max_spout_calls: int | None = None) -> int:
        """Run until every spout is exhausted (or the call budget is spent).

        Delegates to the executor (the inline depth-first loop by default).
        Returns the number of spout invocations that produced output.  A
        budgeted stop is treated as end of stream: buffered bolts (e.g. the
        Disseminator's partial notification micro-batch) are flushed before
        returning, so every routed tuple is delivered and inspectable —
        physical message counts of a budget-sliced run may therefore exceed
        those of one continuous run.

        The run holds the scoped GC policy (``gcpolicy.py``): this is the
        one place every engine passes through — the inline loop, the
        service daemon's writer thread, and the process executor's driver
        including the unpickling of its shards' final state.
        """
        with gc_policy(self.gc_tally):
            return self._executor.run(self, max_spout_calls=max_spout_calls)

    def process(self, message: TupleMessage, component: str, task_index: int = 0) -> None:
        """Inject a tuple directly into one bolt task (useful in tests)."""
        task = self.tasks_of(component)[task_index]
        if task.is_remote:
            raise RuntimeError(
                f"cannot inject into {component!r}: it is owned by the "
                f"remote layer of {type(self._executor).__name__}; use the "
                "inline executor for direct-injection tests"
            )
        if not task.is_bolt:
            raise RuntimeError(f"cannot deliver tuples to spout {component!r}")
        self._deliver(task, [message])
        self._drain_queue()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _route_emissions(self, task: TaskInfo) -> int:
        batches = task.collector.drain()
        if not batches:
            return 0
        emitted = 0
        component = task.component
        for batch in batches:
            emitted += len(batch.messages)
            self._route_batch(component, batch)
        return emitted

    def _route_batch(self, producer: str, batch: EmissionBatch) -> None:
        """Route one emission batch: clock once, grouping once, enqueue."""
        timestamp = batch.timestamp
        if timestamp is not None:
            self._advance_clock(timestamp)
        messages = batch.messages
        targets = batch.targets
        queue = self._queue
        tasks = self._tasks
        if targets is not None:
            allowed = self._direct_consumers.get((producer, batch.schema), ())
            per_task: dict[int, list[TupleMessage]] = {}
            for message, target in zip(messages, targets):
                if tasks[target].component not in allowed:
                    raise RuntimeError(
                        f"direct emission from {producer!r} to task of "
                        f"{tasks[target].component!r} without a subscription "
                        f"on stream {batch.schema!r}"
                    )
                bucket = per_task.get(target)
                if bucket is None:
                    per_task[target] = [message]
                else:
                    bucket.append(message)
            for target, bucket in per_task.items():
                queue.append((tasks[target], bucket))
            return
        routes = self._routes.get(producer)
        if routes is None:
            return
        subscribers = routes.get(batch.schema)
        if subscribers is None:
            return
        if len(messages) == 1:
            # Hot path: the overwhelmingly common single-message batch.
            message = messages[0]
            for consumer_tasks, grouping in subscribers:
                for index in grouping.select(message, len(consumer_tasks)):
                    queue.append((consumer_tasks[index], messages))
            return
        for consumer_tasks, grouping in subscribers:
            selections = grouping.select_batch(messages, len(consumer_tasks))
            # Split into per-task sub-batches in first-occurrence order
            # (dict insertion order), preserving message order per task.
            per_index: dict[int, list[TupleMessage]] = {}
            for message, indices in zip(messages, selections):
                for index in indices:
                    bucket = per_index.get(index)
                    if bucket is None:
                        per_index[index] = [message]
                    else:
                        bucket.append(message)
            for index, bucket in per_index.items():
                queue.append((consumer_tasks[index], bucket))

    def _drain_queue(self) -> None:
        """Deliver until nothing is in flight, then serve handoff requests.

        Handoffs deliberately wait for the queue to empty: with the inline
        depth-first discipline (one spout document per drain cycle) the
        empty queue is a clean per-document boundary, so a swap staged
        while document *r* cascaded takes effect before document *r + 1*
        is routed — exactly the semantics the splice-equivalence suites
        pin.  Coordination itself emits and enqueues (migration payloads
        travelling to the Tracker), hence the outer loop.
        """
        while True:
            self._drain_basic()
            if not self._handoff_requests:
                return
            self._run_handoffs()

    def _drain_basic(self) -> None:
        """The plain delivery loop, never entering handoff coordination."""
        queue = self._queue
        while queue:
            task, messages = queue.popleft()
            self._deliver(task, messages)

    def _flush_bolts(self) -> None:
        """End-of-stream flush: let every bolt emit buffered output.

        Flush passes repeat until a full pass releases nothing, so tuples
        released by an upstream bolt's flush that were then buffered by a
        downstream buffering bolt are flushed in a later pass — chains of
        buffering bolts drain transitively.  ``flush`` is therefore called
        at least once and possibly several times per bolt; implementations
        must tolerate repeated calls (a drained buffer flushes to nothing).
        """
        while True:
            released = 0
            for task in self._tasks:
                if task.is_remote or not task.is_bolt:
                    continue
                task.instance.flush()  # type: ignore[union-attr]
                released += self._route_emissions(task)
            self._drain_queue()
            # Remote bolts flush in their workers; their buffered emissions
            # are relayed here and routed like any other batch.
            released += self._executor.flush_remote()
            self._drain_queue()
            if not released:
                return

    # ------------------------------------------------------------------ #
    # Coordinated state handoff (live repartitioning)
    # ------------------------------------------------------------------ #
    def _request_handoff(self, task_id: int, components: tuple[str, ...]) -> None:
        self._handoff_requests.append((task_id, components))

    def _run_handoffs(self) -> None:
        while self._handoff_requests:
            task_id, components = self._handoff_requests.popleft()
            self._coordinate_handoff(self._tasks[task_id], components)

    def _coordinate_handoff(
        self, requester: TaskInfo, components: tuple[str, ...]
    ) -> None:
        """Quiesce → two-phase migrate → install → resume, or abort cleanly.

        The protocol is duck-typed against the requesting bolt
        (``staged_handoff`` / ``commit_staged`` / ``abort_staged``) and the
        migrating layers' bolts (``prepare_migration`` / ``commit_migration``
        / ``abort_migration``); remote layers go through the executor's
        ``migrate_prepare`` / ``migrate_commit`` / ``migrate_abort`` hooks.

        Phase 1 (*prepare*) is side-effect-free on every participant, so a
        raise — or a dead worker — aborts the whole handoff with all state
        and the old assignment intact.  Phase 2 (*commit*) ships each
        payload to its subscribers (the Tracker) and resets the counters;
        only then is the staged assignment installed on the requester.  No
        clock tick can fire during coordination: every batch routed here
        carries a timestamp at or below the current simulation time.
        """
        bolt = requester.instance
        staged = getattr(bolt, "staged_handoff", None)
        if staged is None:
            # A second request for an already-resolved handoff (e.g. two
            # staging bolts racing in one drain window) is a no-op.
            return
        started = time.perf_counter()
        # Quiesce: everything in flight — including buffered notification
        # micro-batches — is delivered under the old assignment first.
        self._quiesce()
        local_tasks: list[TaskInfo] = []
        remote_tasks: list[TaskInfo] = []
        for name in components:
            for task in self.tasks_of(name):
                (remote_tasks if task.is_remote else local_tasks).append(task)
        payloads: dict[int, list] = {}
        error: str | None = None
        for task in local_tasks:
            try:
                payloads[task.task_id] = task.instance.prepare_migration()
            except Exception as exc:  # noqa: BLE001 - abort on any failure
                error = (
                    f"prepare_migration failed on {task.component}"
                    f"[task {task.task_id}]: {exc!r}"
                )
                break
        if error is None and remote_tasks:
            error = self._executor.migrate_prepare(
                [task.task_id for task in remote_tasks]
            )
        if error is not None:
            for task in local_tasks:
                if task.task_id in payloads:
                    task.instance.abort_migration()
            if remote_tasks:
                self._executor.migrate_abort()
            stall = time.perf_counter() - started
            bolt.abort_staged(error, stall)
            self.migration_failures.append(error)
            self.migration_stall_seconds += stall
            return
        migrated = 0
        for task in local_tasks:
            migrated += task.instance.commit_migration(
                payloads[task.task_id], staged.timestamp
            )
            self._route_emissions(task)
        if remote_tasks:
            migrated += self._executor.migrate_commit(staged.timestamp)
        # Migrated coefficients reach the Tracker before routing resumes
        # under the new map.
        self._drain_basic()
        stall = time.perf_counter() - started
        bolt.commit_staged(migrated, stall)
        self.migration_stall_seconds += stall

    def _quiesce(self) -> None:
        """Flush-and-deliver until quiet, without re-entering handoffs.

        The same repeat-until-quiet discipline as the end-of-stream
        :meth:`_flush_bolts`, but built on :meth:`_drain_basic`: a handoff
        request queued by a delivery during the quiesce must wait for the
        current coordination to finish, not nest inside it.
        """
        while True:
            released = 0
            for task in self._tasks:
                if task.is_remote or not task.is_bolt:
                    continue
                task.instance.flush()  # type: ignore[union-attr]
                released += self._route_emissions(task)
            self._drain_basic()
            released += self._executor.flush_remote()
            self._drain_basic()
            if not released:
                return

    def _deliver(self, task: TaskInfo, messages: Sequence[TupleMessage]) -> None:
        if task.is_remote:
            # Remote tasks account for their own deliveries; the shard's
            # accounting is merged back at finalisation.
            self._executor.deliver_remote(task, messages)
            return
        if not task.is_bolt:
            raise RuntimeError(f"cannot deliver tuples to spout {task.component!r}")
        self.accounting.record_batch(
            messages[0].source_component, task.component, task.task_id, len(messages)
        )
        task.instance.execute_batch(messages)  # type: ignore[union-attr]
        self._route_emissions(task)

    def _advance_clock(self, timestamp: float) -> None:
        if timestamp > self.current_time:
            self.current_time = float(timestamp)
        elapsed = self.current_time - self._last_tick
        if elapsed >= self._tick_interval:
            # Grid-aligned ticks: advance the tick clock to the last grid
            # point at or before the current time instead of re-anchoring
            # at the (document-granularity) timestamp that crossed it, so
            # tick boundaries — and everything scheduled off them, like
            # Calculator report rounds — stay on a fixed grid instead of
            # drifting forward with every crossing (ROADMAP item 4).
            self._last_tick += self._tick_interval * int(elapsed / self._tick_interval)
            self._tick_all()

    def _tick_all(self) -> None:
        for task in self._tasks:
            if task.is_remote or not task.is_bolt:
                continue
            task.instance.tick(self.current_time)  # type: ignore[union-attr]
            self._route_emissions(task)
        # Remote bolts receive the tick through their shard queues, in the
        # same order relative to their deliveries as the inline engine.
        self._executor.tick_remote(self.current_time)


def run_topology(
    topology: Topology,
    max_spout_calls: int | None = None,
    tick_interval: float = 1.0,
    executor: "Executor | None" = None,
    link_batch_size: int = 0,
) -> Cluster:
    """Deploy and run a topology; returns the cluster for inspection."""
    cluster = Cluster(
        topology,
        tick_interval=tick_interval,
        executor=executor,
        link_batch_size=link_batch_size,
    )
    cluster.run(max_spout_calls=max_spout_calls)
    return cluster


def iter_bolts(cluster: Cluster, component: str) -> Iterable[Bolt]:
    """Typed helper for tests: the bolt instances of a component."""
    for instance in cluster.instances_of(component):
        assert isinstance(instance, Bolt)
        yield instance

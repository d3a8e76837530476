"""Pluggable execution engines for the stream-processing substrate.

The :class:`~repro.streamsim.cluster.Cluster` *deploys* a topology — creates
tasks, builds routing tables, prepares components.  How tuples are then
pushed through the deployed graph is the job of an :class:`Executor`:

* :class:`InlineExecutor` — the original single-process, depth-first loop:
  poll a spout, drain the global FIFO until nothing is in flight, repeat.
  This is the reference engine every other executor must be logically
  equivalent to.
* :class:`ShardedProcessExecutor` — keeps the upstream operators (Spout →
  Parser → Partitioner → Merger → Disseminator in the paper's topology) and
  the terminal Tracker in the driver process and shards a *remote layer* of
  components (Calculator × k) across ``multiprocessing`` workers.
* :class:`AsyncServiceExecutor` — the always-on engine behind
  ``repro.service``: documents arrive over a bounded ingest queue fed by
  other threads (:meth:`AsyncServiceExecutor.submit`) instead of a
  pre-materialised stream, and the run ends only when a drain is requested
  (:meth:`AsyncServiceExecutor.request_drain`).  Execution itself stays
  single-writer and depth-first — the spout pulls from the queue inside the
  reference ``_drive`` loop — so a served run is bit-identical to an inline
  batch run over the same document sequence.

Sharding model
--------------
*Remote layer.*  One bolt component (the Calculators in the paper's
topology) runs in the workers; its tasks are assigned round-robin to worker
shards (``task_index % workers``).  A remote stream may feed only a
*terminal* driver-side component (nothing subscribes to its streams — the
Tracker); anything else, the remote component subscribing to itself
included, is rejected at attach time, because relayed tuples arrive late
and must not re-enter the pipeline.

*Proxies.*  At attach time every remote task's instance is replaced by a
driver-side proxy bolt, so the cluster routes, accounts, ticks and flushes
remote tasks like any other and never learns where they run.  A proxy's
``execute_batch`` ships the link batch to its shard's input queue (the IPC
unit is the slot-tuple batch the inline engine hands to ``execute_batch``;
slot tuples pickle as plain value tuples plus an interned schema
reference), the layer's lowest-id proxy forwards each clock tick to every
shard on the same FIFO queues — so each remote bolt observes exactly the
inline interleaving of driver-routed deliveries and ticks — and its
``flush`` does nothing.

*Worker → driver.*  Remote bolts never route; a worker buffers the emission
batches they produce.  After the drive loop's end-of-stream flush, each
shard gets one ``_FINALIZE`` request: it flushes its bolts and answers with
three replies, each released before the next is built — its buffered
emissions, which the driver routes shard by shard through the normal
routing and accounting machinery (the one *relay point*); the
``(tagset, jaccard, support)`` triples of its bolts exposing
``drain_payload()`` (the Calculators drain in-process and ship triples, not
tables), which :meth:`Executor.drained_results` hands to the pipeline for
replay into the Tracker in driver task order (the inline drain order); and
its bolts, GC tally (``gcpolicy.py``) and busy seconds, which the driver
re-installs in place of the proxies, so post-run inspection stays
executor-agnostic.  A consumer of a remote stream (the Tracker, for the
Calculators' report batches) therefore receives those tuples after the
stream ends rather than interleaved with ticks, so it must be insensitive
to delivery time — asserted end to end by the executor-equivalence tests.
Only *state* crosses the pipe, never data derived from it: a
subset-enumeration cache pickles its bounds and counters and comes back
empty, a drained counter table is empty, and every returned bolt is a few
kilobytes (``tests/pipeline/test_process_tail.py``).

Because routing decisions, clock advancement and all message accounting
happen in the driver before a tuple crosses the process boundary, a
sharded run reports the same logical metrics as an inline run
(``tests/pipeline/test_executor_equivalence.py``).  Remote operator state
must be picklable: worker startup pickles the component factory and
finalisation pickles the bolts back (minus their collector, and with a
:class:`StaticContext` instead of the live cluster context).
"""

from __future__ import annotations

import abc
import multiprocessing
import pickle
import queue as queue_module
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .components import Bolt, Spout
from .gcpolicy import GcTally, gc_policy
from .tuples import EmissionBatch, OutputCollector, TupleMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .cluster import Cluster, TaskInfo

#: Wire protocol of the driver→worker queues.
_MSG = "msg"
_TICK = "tick"
_FINALIZE = "finalize"
_STOP = "stop"


class Executor(abc.ABC):
    """Drives a deployed cluster to completion.

    The cluster hands its executor the deployed graph once, before any
    component is prepared (:meth:`attach`), and then hands it the run
    (:meth:`run`); where a task's work happens is the executor's business,
    not the cluster's.
    """

    #: Registry name, as used by ``SystemConfig.executor`` and the CLI.
    name: str = "?"
    #: Seconds from the last spout call to the end of the remote layer's
    #: finalisation, and seconds the remote workers spent handling requests
    #: (summed; parallel to the driver).  0.0 without a remote layer.
    remote_tail_seconds: float = 0.0
    workers_busy_seconds: float = 0.0

    def attach(self, cluster: "Cluster") -> None:
        """Called once by the cluster before components are prepared."""

    @abc.abstractmethod
    def run(self, cluster: "Cluster", max_spout_calls: int | None = None) -> int:
        """Run until every spout is exhausted; returns productive spout calls."""

    def drained_results(self) -> dict[int, list]:
        """End-of-run results drained *inside* the remote layer, per task.

        Maps the task id of every remote bolt exposing ``drain_payload()``
        to its ``(tagset, jaccard, support)`` wire triples.  Executors
        without a remote layer return an empty mapping and the pipeline
        drains driver-side as before.
        """
        return {}

    # ------------------------------------------------------------------ #
    # The depth-first driver loop shared by all executors
    # ------------------------------------------------------------------ #
    def _drive(self, cluster: "Cluster", max_spout_calls: int | None = None) -> int:
        """Poll spouts depth-first until exhaustion, then flush.

        This is the substrate's reference execution order: one spout call,
        then drain the global FIFO until no tuple is in flight.  Equivalent
        to a Storm cluster that is never backlogged (the regime the paper's
        experiments operate in).
        """
        spout_tasks = [
            task
            for spec in cluster.topology.spouts()
            for task in cluster.tasks_of(spec.name)
        ]
        active = {task.task_id: True for task in spout_tasks}
        productive_calls = 0
        calls = 0
        while any(active.values()):
            for task in spout_tasks:
                if not active[task.task_id]:
                    continue
                if max_spout_calls is not None and calls >= max_spout_calls:
                    active = {task_id: False for task_id in active}
                    break
                spout = task.instance
                assert isinstance(spout, Spout)
                produced = spout.next_tuple()
                calls += 1
                if produced:
                    productive_calls += 1
                else:
                    active[task.task_id] = False
                cluster._route_emissions(task)
                cluster._drain_queue()
        self._spouts_done = time.perf_counter()
        cluster._drain_queue()
        cluster._flush_bolts(cluster._drain_queue)
        return productive_calls


class InlineExecutor(Executor):
    """The original engine: everything in one process, depth-first."""

    name = "inline"

    def run(self, cluster: "Cluster", max_spout_calls: int | None = None) -> int:
        return self._drive(cluster, max_spout_calls=max_spout_calls)


# --------------------------------------------------------------------- #
# Sharded multiprocess execution
# --------------------------------------------------------------------- #
class StaticContext:
    """Picklable snapshot of the cluster context shipped to workers.

    Remote bolts are prepared inside the worker process, where the live
    :class:`~repro.streamsim.cluster.ClusterContext` (which holds the whole
    cluster) is unavailable.  This snapshot answers the same read-only
    questions from plain dicts; ``current_time`` tracks the driver clock via
    the broadcast tick messages.
    """

    def __init__(
        self,
        task_ids_by_component: dict[str, list[int]],
        components_by_task: dict[int, str],
    ) -> None:
        self._task_ids = task_ids_by_component
        self._components = components_by_task
        self.current_time = 0.0

    def task_ids(self, component: str) -> list[int]:
        if component not in self._task_ids:
            raise KeyError(f"unknown component {component!r}")
        return list(self._task_ids[component])

    def parallelism(self, component: str) -> int:
        return len(self.task_ids(component))

    def component_of(self, task_id: int) -> str:
        return self._components[task_id]


@dataclass
class WorkerSpec:
    """Everything one shard worker needs to build its slice of the layer."""

    shard_index: int
    #: The remote component and its picklable factory.
    component: str
    factory: Callable[[], Any]
    #: ``(task_id, task_index)`` of every task this shard owns.
    tasks: list[tuple[int, int]]
    context: StaticContext


@dataclass
class ShardResult:
    """Final state one shard returns to the driver at finalisation."""

    shard_index: int
    #: The shard's bolt instances keyed by global task id (collector
    #: stripped; the driver re-attaches its own).
    bolts: dict[int, Bolt]
    #: Cyclic-GC passes inside the worker process, start to finalisation.
    gc_tally: GcTally
    #: Seconds the shard spent handling requests (not waiting for one).
    busy_seconds: float = 0.0


def _shard_worker(spec: WorkerSpec, inbox: Any, outbox: Any) -> None:
    """Worker-process entry point: the shard loop under the scoped GC policy.

    A forked worker owns its process, and the Calculator shards it hosts
    are where the report folds allocate.
    """
    with gc_policy() as gc_tally:
        _serve_shard(spec, inbox, outbox, gc_tally)


def _serve_shard(
    spec: WorkerSpec, inbox: Any, outbox: Any, gc_tally: GcTally
) -> None:
    """Worker-process main loop: build the shard's bolts, then serve requests.

    Requests arrive on ``inbox`` in driver order — link-batch deliveries
    and clock ticks — and the worker applies them to its bolts exactly as
    the inline engine would, buffering every emission batch the bolts
    produce until the end-of-stream ``_FINALIZE``.
    """
    try:
        bolts: dict[int, Bolt] = {}
        emissions: list[tuple[int, EmissionBatch]] = []
        busy = 0.0
        clock = time.perf_counter

        def drain(task_id: int) -> None:
            collector = bolts[task_id].collector
            assert collector is not None
            for batch in collector.drain():
                emissions.append((task_id, batch))

        for task_id, task_index in spec.tasks:
            bolt = spec.factory()
            bolt.prepare(
                component_name=spec.component,
                task_index=task_index,
                task_id=task_id,
                collector=OutputCollector(spec.component, task_id),
                context=spec.context,
            )
            bolts[task_id] = bolt
            drain(task_id)

        while True:
            request = inbox.get()
            started = clock()
            kind = request[0]
            if kind == _MSG:
                _, task_id, messages = request
                bolts[task_id].execute_batch(messages)
                drain(task_id)
            elif kind == _TICK:
                spec.context.current_time = request[1]
                for task_id, bolt in bolts.items():
                    bolt.tick(request[1])
                    drain(task_id)
            elif kind == _FINALIZE:
                # The end-of-stream exchange.  Each reply is dropped here
                # before the next is built, so the shard never holds its
                # relayed emissions, its drained triples and its pickled
                # bolts at once.
                for task_id, bolt in bolts.items():
                    bolt.flush()
                    drain(task_id)
                outbox.put(("emissions", spec.shard_index, emissions))
                emissions = []
                # The drain runs *inside* the worker: the shard ships final
                # results (small triple lists) instead of the counter tables
                # that produced them, and the tables are emptied before the
                # bolts themselves are pickled back.
                drained = {
                    task_id: bolt.drain_payload()
                    for task_id, bolt in bolts.items()
                    if hasattr(bolt, "drain_payload")
                }
                outbox.put(("drained", spec.shard_index, drained))
                del drained
                for bolt in bolts.values():
                    bolt.collector = None  # the driver re-attaches its own
                busy += clock() - started
                outbox.put(
                    ("result", spec.shard_index,
                     ShardResult(spec.shard_index, bolts, gc_tally, busy))
                )
                return
            elif kind == _STOP:
                # Abandon-without-result: the driver hit a failure and is
                # tearing the layer down; exit instead of blocking on get().
                return
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown request {kind!r}")
            busy += clock() - started
    except BaseException:  # noqa: BLE001 - report any failure to the driver
        outbox.put(("error", spec.shard_index, traceback.format_exc()))


class _RemoteBolt(Bolt):
    """Driver-side stand-in for a task that runs in a shard worker.

    The cluster delivers to it, ticks it and flushes it like any bolt.  It
    ships deliveries to its task's shard; the layer's lowest-id proxy
    forwards each tick to every shard, so a shard sees one tick per clock
    tick; flushing is left to the end-of-stream exchange.
    """

    def __init__(
        self,
        executor: "ShardedProcessExecutor",
        task: "TaskInfo",
        forwards_ticks: bool,
    ) -> None:
        super().__init__()
        self._executor = executor
        self._task = task
        self._forwards_ticks = forwards_ticks

    def execute(self, message: TupleMessage) -> None:
        self.execute_batch([message])

    def execute_batch(self, messages: Sequence[TupleMessage]) -> None:
        self._executor.deliver_remote(self._task, messages)

    def tick(self, simulation_time: float) -> None:
        if self._forwards_ticks:
            self._executor.tick_remote(simulation_time)


class ShardedProcessExecutor(Executor):
    """Runs one downstream component's tasks across ``multiprocessing`` workers.

    Parameters
    ----------
    workers:
        Requested shard count; clamped to the remote component's
        parallelism (a worker with no tasks would only burn a process).
    remote_component:
        The bolt component forming the remote layer; it must be in the
        topology.  Only a terminal driver-side component may subscribe to
        its streams (its emissions are relayed only at end of stream).
    """

    name = "process"

    def __init__(self, workers: int = 2, remote_component: str = "") -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if not remote_component:
            raise ValueError("ShardedProcessExecutor needs a remote component")
        self.requested_workers = workers
        self.remote_component = remote_component
        self._cluster: "Cluster | None" = None
        self._owner: dict[int, int] = {}
        self._pending: list[list[tuple]] = []
        self._inboxes: list[Any] = []
        self._outboxes: list[Any] = []
        self._procs: list[Any] = []
        self._started = False
        self._finished = False
        self._drained: dict[int, list] = {}
        #: Cyclic-GC passes inside the workers, merged in at finalisation.
        self.worker_gc_tally = GcTally()
        #: Shard count actually used (set at attach time).
        self.effective_workers = 0

    def attach(self, cluster: "Cluster") -> None:
        """Validate the remote layer and put a proxy in place of each task."""
        if self._cluster is not None:
            raise RuntimeError(
                "executor already attached; use one executor per cluster"
            )
        component = self.remote_component
        spec = cluster.topology.components.get(component)
        if spec is None:
            raise ValueError(
                f"remote component {component!r} is not in the topology"
            )
        if spec.is_spout:
            raise ValueError(f"remote component {component!r} is not a bolt")
        self._check_layer_is_sink(cluster)
        self._cluster = cluster
        tasks = cluster.tasks_of(component)
        n = min(self.requested_workers, len(tasks))
        self.effective_workers = n
        for task in tasks:
            self._owner[task.task_id] = task.task_index % n
            task.instance = _RemoteBolt(self, task, forwards_ticks=task is tasks[0])
        self._pending = [[] for _ in range(n)]

    # ------------------------------------------------------------------ #
    # The proxies' hooks
    # ------------------------------------------------------------------ #
    def deliver_remote(
        self, task: "TaskInfo", messages: Sequence[TupleMessage]
    ) -> None:
        # One queue item per link batch: the IPC unit is the same slot-tuple
        # batch the inline engine would hand to execute_batch.
        self._send(self._owner[task.task_id], (_MSG, task.task_id, messages))

    def tick_remote(self, simulation_time: float) -> None:
        for shard in range(self.effective_workers):
            self._send(shard, (_TICK, simulation_time))

    def flush_remote(self) -> int:
        """The end-of-stream exchange: ``_FINALIZE`` every shard and route
        the emissions they relay, shard by shard.

        Returns the number of emissions released back into the driver.
        """
        assert self._cluster is not None
        for inbox in self._inboxes:
            inbox.put((_FINALIZE,))
        released = 0
        for shard in range(self.effective_workers):
            for _, batch in self._receive(shard, "emissions"):
                self._cluster._route_batch(self.remote_component, batch)
                released += len(batch.messages)
        return released

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, cluster: "Cluster", max_spout_calls: int | None = None) -> int:
        if cluster is not self._cluster:
            raise RuntimeError("executor is not attached to this cluster")
        if self._finished:
            # A second run would rebuild the workers from their factories
            # and silently zero the remote state merged back by the first
            # run; budget-sliced multi-run execution needs the inline engine.
            raise RuntimeError(
                "ShardedProcessExecutor runs a cluster once; use the inline "
                "executor for resumed/budget-sliced runs"
            )
        self._finished = True
        self._start_workers(cluster)
        try:
            productive = self._drive(cluster, max_spout_calls=max_spout_calls)
            if self.flush_remote():
                # Deliver the relayed batches, then flush once more, as the
                # inline end-of-stream flush would after they were released.
                cluster._drain_queue()
                cluster._flush_bolts(cluster._drain_queue)
            self._finalize(cluster)
            self.remote_tail_seconds = time.perf_counter() - self._spouts_done
            return productive
        finally:
            self._shutdown()

    # ------------------------------------------------------------------ #
    # Worker management
    # ------------------------------------------------------------------ #
    def _send(self, shard: int, item: tuple) -> None:
        if self._finished and not self._started:
            # Post-run injections would buffer into _pending forever (the
            # workers are gone); fail loudly instead of dropping silently.
            raise RuntimeError(
                "remote layer is shut down (the process executor already "
                "ran); use the inline executor for post-run injection"
            )
        # Deliveries can happen before run() (prepare-time emissions); they
        # are buffered and replayed, in order, once the workers exist.
        if self._started:
            self._inboxes[shard].put(item)
        else:
            self._pending[shard].append(item)

    def _start_workers(self, cluster: "Cluster") -> None:
        ctx = multiprocessing.get_context()
        context = StaticContext(
            task_ids_by_component={
                name: [task.task_id for task in cluster.tasks_of(name)]
                for name in cluster.topology.components
            },
            components_by_task={
                task.task_id: task.component for task in cluster._tasks
            },
        )
        component = self.remote_component
        shard_tasks: list[list[tuple[int, int]]] = [
            [] for _ in range(self.effective_workers)
        ]
        for task in cluster.tasks_of(component):
            shard_tasks[self._owner[task.task_id]].append(
                (task.task_id, task.task_index)
            )
        for shard in range(self.effective_workers):
            spec = WorkerSpec(
                shard_index=shard,
                component=component,
                factory=cluster.topology.components[component].factory,
                tasks=shard_tasks[shard],
                context=context,
            )
            try:
                pickle.dumps(spec)
            except Exception as exc:
                raise RuntimeError(
                    "the process executor requires picklable factories and "
                    f"state for the remote layer ({component!r}): {exc}"
                ) from exc
            inbox = ctx.Queue()
            outbox = ctx.Queue()
            proc = ctx.Process(
                target=_shard_worker,
                args=(spec, inbox, outbox),
                daemon=True,
                name=f"repro-shard-{shard}",
            )
            proc.start()
            self._inboxes.append(inbox)
            self._outboxes.append(outbox)
            self._procs.append(proc)
        self._started = True
        for shard, items in enumerate(self._pending):
            for item in items:
                self._inboxes[shard].put(item)
        self._pending = [[] for _ in range(self.effective_workers)]

    def _receive(self, shard: int, expected: str) -> Any:
        """Payload of the next reply from ``shard``, which must be ``expected``.

        Polls with a liveness check so a dead worker surfaces as an error
        instead of a hang; worker-reported failures raise immediately.
        """
        outbox = self._outboxes[shard]
        while True:
            try:
                reply = outbox.get(timeout=1.0)
            except queue_module.Empty:
                if not self._procs[shard].is_alive():
                    raise RuntimeError(
                        f"shard worker {shard} died without reporting a result"
                    ) from None
                continue
            kind = reply[0]
            if kind == "error":
                raise RuntimeError(f"shard worker {shard} failed:\n{reply[2]}")
            if kind != expected:  # pragma: no cover - protocol bug
                raise RuntimeError(
                    f"expected {expected!r} from shard {shard}, got {kind!r}"
                )
            return reply[2]

    def drained_results(self) -> dict[int, list]:
        return self._drained

    def _finalize(self, cluster: "Cluster") -> None:
        """Take the rest of the end-of-stream exchange, shard by shard.

        Each shard's drained triples are kept for the pipeline, which
        replays them in driver task order; its bolts replace their proxies.
        Shards are processed in shard order, so nothing here depends on
        worker scheduling.
        """
        for shard in range(self.effective_workers):
            self._drained.update(self._receive(shard, "drained"))
            result: ShardResult = self._receive(shard, "result")
            self.worker_gc_tally.merge(result.gc_tally)
            self.workers_busy_seconds += result.busy_seconds
            for task_id in sorted(result.bolts):
                bolt = result.bolts[task_id]
                task = cluster.task(task_id)
                bolt.collector = task.collector
                bolt.context = cluster.context
                task.instance = bolt

    def _shutdown(self) -> None:
        # On failure paths workers are still blocked in inbox.get(); a stop
        # sentinel lets them exit immediately instead of burning the join
        # timeout (finished workers have already left — the put is harmless).
        for inbox in self._inboxes:
            try:
                inbox.put((_STOP,))
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                pass
        for proc, outbox in zip(self._procs, self._outboxes):
            deadline = time.monotonic() + 5.0
            while proc.is_alive() and time.monotonic() < deadline:
                # A worker exits only once its queued replies are in the
                # pipe, so the ones a failed run left unread are dropped
                # here rather than blocking its exit.
                try:
                    outbox.get_nowait()
                except queue_module.Empty:
                    proc.join(timeout=0.01)
            if proc.is_alive():  # pragma: no cover - only on worker hangs
                proc.terminate()
                proc.join(timeout=1.0)
        for channel in (*self._inboxes, *self._outboxes):
            channel.close()
            channel.cancel_join_thread()
        self._inboxes = []
        self._outboxes = []
        self._procs = []
        self._started = False

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _check_layer_is_sink(self, cluster: "Cluster") -> None:
        """A remote stream may feed only a terminal driver-side consumer.

        Relayed batches arrive late (at the end-of-stream exchange), so
        whatever their consumer emitted in response would re-enter the
        pipeline out of order; a component nobody subscribes to cannot.
        The remote component itself is a producer, so it may not consume
        its own streams either.
        """
        subscriptions = cluster.topology.subscriptions
        producers = {sub.producer for sub in subscriptions}
        for subscription in subscriptions:
            consumer = subscription.consumer
            if subscription.producer == self.remote_component and consumer in producers:
                raise ValueError(
                    f"remote component {self.remote_component!r} feeds "
                    f"{consumer!r}, which feeds others in turn; the remote "
                    "layer must be a sink layer (its emissions are only "
                    "relayed at end of stream, so only a terminal "
                    "driver-side component may consume them)"
                )


# --------------------------------------------------------------------- #
# Always-on service execution
# --------------------------------------------------------------------- #
class IngestBackpressure(RuntimeError):
    """Raised by a non-blocking submit when the bounded ingest queue is full."""


class IngestClosed(RuntimeError):
    """Raised by submit once a drain has been requested (no more ingest)."""


#: Default bound of the service executor's batch queue (mirrored by
#: ``SystemConfig.service_queue_limit``).
DEFAULT_SERVICE_QUEUE_LIMIT = 8

#: Sentinel distinguishing "batch exhausted" from a ``None`` document.
_EXHAUSTED = object()


class AsyncServiceExecutor(Executor):
    """Single-writer engine fed by a bounded cross-thread ingest queue.

    The executor owns the hand-off point between the serving surface
    (``repro.service`` daemon threads, or any caller) and the cluster:

    * **Ingest** — :meth:`submit` appends one *batch* (a list of documents)
      to a bounded deque; when ``queue_limit`` batches are already pending
      a non-blocking submit raises :class:`IngestBackpressure` and a
      blocking one waits for the writer to catch up.  After
      :meth:`request_drain` every submit raises :class:`IngestClosed`.
    * **Execution** — :meth:`run` is the reference depth-first ``_drive``
      loop, unchanged: the topology's :class:`~repro.operators.spouts.ServiceSpout`
      calls back into :meth:`next_document`, which feeds queued documents
      one at a time and blocks while the queue is idle.  Exactly one thread
      (whichever called ``cluster.run()``) ever touches cluster state — the
      single-writer discipline that makes served runs bit-identical to
      batch runs.
    * **Quiescent points** — between two documents the in-flight FIFO is
      empty (the drive loop drains after every spout call), so the moment
      ``next_document`` finds the current batch exhausted is a clean
      snapshot boundary: ``on_quiescent`` fires there, on the writer
      thread, with all state consistent.  The daemon publishes its
      round-consistent Tracker snapshots from this hook.

    The run ends when a drain has been requested *and* the queue is empty:
    the spout reports exhaustion and ``_drive`` finishes with the normal
    end-of-stream flush, so the final :class:`RunReport` is collected
    exactly like a batch run's.
    """

    name = "service"

    def __init__(self, queue_limit: int = DEFAULT_SERVICE_QUEUE_LIMIT) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.queue_limit = queue_limit
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._batches: deque[list] = deque()
        self._current: Iterator | None = None
        self._draining = False
        self._running = False
        self._cluster: "Cluster | None" = None
        #: Writer-thread hook fired at every quiescent batch boundary
        #: (current batch fully cascaded, next one not yet started).
        self.on_quiescent: Callable[[], None] | None = None
        self.batches_accepted = 0
        self.documents_accepted = 0

    # ------------------------------------------------------------------ #
    # Ingest side (any thread)
    # ------------------------------------------------------------------ #
    def submit(
        self,
        documents: Sequence | Iterator,
        block: bool = True,
        timeout: float | None = None,
    ) -> int:
        """Queue one document batch for the writer; returns its size.

        Raises :class:`IngestClosed` once a drain has been requested and
        :class:`IngestBackpressure` when ``block`` is false (or ``timeout``
        expires) with ``queue_limit`` batches already pending.
        """
        batch = list(documents)
        # One deadline for the whole call: a wakeup that finds the queue
        # full again (another submitter took the slot) must not restart it.
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_full:
            while True:
                if self._draining:
                    raise IngestClosed(
                        "service executor is draining; no further ingest"
                    )
                if len(self._batches) < self.queue_limit:
                    break
                if not block:
                    raise IngestBackpressure(
                        f"ingest queue is full ({self.queue_limit} batches pending)"
                    )
                remaining = None if deadline is None else deadline - time.monotonic()
                # A spent deadline (remaining <= 0) makes wait() return False.
                if not self._not_full.wait(timeout=remaining):
                    raise IngestBackpressure(
                        f"ingest queue stayed full for {timeout}s "
                        f"({self.queue_limit} batches pending)"
                    )
            self._batches.append(batch)
            self.batches_accepted += 1
            self.documents_accepted += len(batch)
            self._not_empty.notify()
        return len(batch)

    def request_drain(self) -> None:
        """Close ingest; the run ends once the queued batches are consumed.

        Idempotent and callable from any thread.
        """
        with self._lock:
            self._draining = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    @property
    def pending_batches(self) -> int:
        """Batches queued but not yet started by the writer."""
        with self._lock:
            return len(self._batches)

    # ------------------------------------------------------------------ #
    # Writer side (the thread running ``cluster.run()`` only)
    # ------------------------------------------------------------------ #
    def next_document(self):
        """Next queued document, or ``None`` at end of stream (drained).

        Called by the :class:`~repro.operators.spouts.ServiceSpout` from
        inside the drive loop.  Blocks while the queue is idle; fires
        ``on_quiescent`` at every batch boundary before touching the next
        batch.
        """
        while True:
            if self._current is not None:
                document = next(self._current, _EXHAUSTED)
                if document is not _EXHAUSTED:
                    return document
                # The previous document has fully cascaded (the drive loop
                # drains the FIFO between spout calls): a clean boundary.
                self._current = None
                if self.on_quiescent is not None:
                    self.on_quiescent()
            with self._not_empty:
                while not self._batches and not self._draining:
                    self._not_empty.wait()
                if not self._batches:
                    return None  # draining and empty: end of stream
                self._current = iter(self._batches.popleft())
                self._not_full.notify()

    def attach(self, cluster: "Cluster") -> None:
        if self._cluster is not None:
            raise RuntimeError(
                "executor already attached; use one executor per cluster"
            )
        self._cluster = cluster

    def run(self, cluster: "Cluster", max_spout_calls: int | None = None) -> int:
        if cluster is not self._cluster:
            raise RuntimeError("executor is not attached to this cluster")
        with self._lock:
            if self._running:
                raise RuntimeError(
                    "service executor is already running; exactly one thread "
                    "may drive the cluster"
                )
            self._running = True
        try:
            return self._drive(cluster, max_spout_calls=max_spout_calls)
        finally:
            with self._lock:
                self._running = False


#: Executor registry used by ``make_executor`` (and mirrored by the CLI).
EXECUTOR_NAMES = (
    InlineExecutor.name,
    ShardedProcessExecutor.name,
    AsyncServiceExecutor.name,
)


def make_executor(
    name: str,
    workers: int = 2,
    remote_component: str = "",
    queue_limit: int = DEFAULT_SERVICE_QUEUE_LIMIT,
) -> Executor:
    """Build an executor by registry name (``"inline"``, ``"process"`` or
    ``"service"``)."""
    if name == InlineExecutor.name:
        return InlineExecutor()
    if name == ShardedProcessExecutor.name:
        return ShardedProcessExecutor(
            workers=workers, remote_component=remote_component
        )
    if name == AsyncServiceExecutor.name:
        return AsyncServiceExecutor(queue_limit=queue_limit)
    raise ValueError(
        f"unknown executor {name!r}; available: {', '.join(EXECUTOR_NAMES)}"
    )

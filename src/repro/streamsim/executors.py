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
*Remote layer.*  Tasks of each remote component are assigned round-robin to
worker shards (``task_index % workers``).  A remote stream may feed another
remote component or a *terminal* driver-side one (nothing subscribes to its
streams — the Tracker); anything else is rejected at attach time, because
relayed tuples arrive late and must not re-enter the pipeline.

*Driver → worker.*  Every link batch the driver would deliver to a remote
task goes to its shard's input queue instead.  The IPC unit is the
slot-tuple batch the inline engine hands to ``execute_batch``; slot tuples
pickle as plain value tuples plus an interned schema reference.  Clock
ticks are broadcast on the same FIFO queues, so each remote bolt observes
exactly the inline interleaving of *driver-routed* deliveries and ticks.

*Worker → driver.*  Remote bolts never route; a worker buffers the emission
batches they produce.  The two *relay points* are the end-of-stream flush
passes and a migration commit: the driver collects the buffers and routes
them shard by shard through the normal routing and accounting machinery.
This is the one semantic difference from inline: a consumer of a remote
stream (the Tracker, for the Calculators' report batches) receives those
tuples after the stream ends rather than interleaved with ticks, so it must
be insensitive to delivery time — asserted end to end by the
executor-equivalence tests.

*Finalisation.*  Each shard first drains its bolts in-process — bolts
exposing ``drain_payload()`` (the Calculators) report their remaining
counters and the shard ships the ``(tagset, jaccard, support)`` triples, not
the tables — which :meth:`Executor.drained_results` hands to the pipeline
for replay into the Tracker in driver task order (the inline drain order).
Then it returns its bolts, its per-shard ``MessageAccounting``, its GC tally
(``gcpolicy.py``) and its busy seconds; the driver merges those and
re-installs the bolts, so post-run inspection stays executor-agnostic.
Only *state* crosses the pipe, never data derived from it: a
subset-enumeration cache pickles its bounds and counters and comes back
empty, a drained counter table is empty, and every returned bolt is a few
kilobytes (``tests/pipeline/test_process_tail.py``).

Because routing decisions, clock advancement and all driver-side metrics are
computed before a tuple crosses the process boundary, a sharded run reports
the same logical metrics as an inline run
(``tests/pipeline/test_executor_equivalence.py``).  Remote operator state
must be picklable: worker startup pickles the component factories and
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
    from .cluster import Cluster, MessageAccounting, TaskInfo

#: Wire protocol of the driver→worker queues.
_MSG = "msg"
_TICK = "tick"
_FLUSH = "flush"
_COLLECT = "collect"
_DRAIN = "drain"
_FINALIZE = "finalize"
_STOP = "stop"
#: Two-phase state migration (live repartitioning): prepare computes the
#: payloads side-effect-free (a failure is reported softly and the worker
#: keeps serving), commit ships them and resets, abort drops them.
_MIGRATE_PREPARE = "migrate_prepare"
_MIGRATE_COMMIT = "migrate_commit"
_MIGRATE_ABORT = "migrate_abort"


class Executor(abc.ABC):
    """Drives a deployed cluster to completion.

    The cluster calls back into its executor at four points: task delivery
    (:meth:`owns` / :meth:`deliver_remote`), clock ticks
    (:meth:`tick_remote`) and end-of-stream flushing (:meth:`flush_remote`).
    The base class implements the no-remote-layer behaviour, so an executor
    that runs everything in the driver only provides :meth:`run`.
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

    # ------------------------------------------------------------------ #
    # Remote-layer hooks (no-ops without a remote layer)
    # ------------------------------------------------------------------ #
    def owns(self, task_id: int) -> bool:
        """Whether deliveries to ``task_id`` bypass the inline bolt."""
        return False

    def deliver_remote(
        self, task: "TaskInfo", messages: Sequence[TupleMessage]
    ) -> None:
        """Ship one link batch to the remote instance of an owned task."""
        raise NotImplementedError(f"{type(self).__name__} owns no remote tasks")

    def tick_remote(self, simulation_time: float) -> None:
        """Propagate a simulated-clock tick to the remote layer."""

    def flush_remote(self) -> int:
        """Flush the remote layer and relay its buffered emissions.

        Returns the number of emissions released back into the driver (the
        cluster keeps flushing until a full pass releases nothing anywhere).
        """
        return 0

    def drained_results(self) -> dict[int, tuple[list, int | None]]:
        """End-of-run results drained *inside* the remote layer, per task.

        Maps the task id of every remote bolt exposing ``drain_payload()``
        to ``(triples, tracked_keys)``, where ``triples`` are ``(tagset,
        jaccard, support)`` wire triples and ``tracked_keys`` is the sketch
        estimator's pre-drain tracked-tagset count (``None`` for exact-mode
        bolts).  Executors without a remote layer return an empty mapping
        and the pipeline drains driver-side as before.
        """
        return {}

    # ------------------------------------------------------------------ #
    # Live-repartitioning state migration (no-ops without a remote layer)
    # ------------------------------------------------------------------ #
    def migrate_prepare(self, task_ids: Sequence[int]) -> str | None:
        """Phase 1 of a state handoff: compute payloads for the given tasks.

        Side-effect-free on the bolts — a failure here must leave the run
        able to continue under the old partition map.  Returns an error
        description, or ``None`` on success (staged payloads are kept in
        the remote layer until :meth:`migrate_commit` or
        :meth:`migrate_abort`).
        """
        return None

    def migrate_commit(self, timestamp: float) -> int:
        """Phase 2: ship the staged payloads and reset the migrated bolts.

        Relays the resulting emissions through the driver's routing (and
        accounting) machinery; returns the number of migrated triples.
        """
        return 0

    def migrate_abort(self) -> None:
        """Drop any staged migration payloads without touching bolt state."""

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
        cluster._flush_bolts()
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
    #: ``(task_id, task_index, component)`` of every task this shard owns.
    tasks: list[tuple[int, int, str]]
    #: Picklable component factories, keyed by component name.
    factories: dict[str, Callable[[], Any]]
    context: StaticContext


@dataclass
class ShardResult:
    """Final state one shard returns to the driver at finalisation."""

    shard_index: int
    accounting: "MessageAccounting"
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

    Requests arrive on ``inbox`` in driver order — link-batch deliveries,
    clock ticks, flush passes, emission collections — and the worker applies
    them to its bolts exactly as the inline engine would, buffering every
    emission batch the bolts produce until the driver asks for it.
    """
    from .cluster import MessageAccounting

    try:
        bolts: dict[int, Bolt] = {}
        components: dict[int, str] = {}
        emissions: list[tuple[int, EmissionBatch]] = []
        staged_migration: dict[int, Any] | None = None
        accounting = MessageAccounting()
        busy = 0.0
        clock = time.perf_counter

        def drain(task_id: int) -> None:
            collector = bolts[task_id].collector
            assert collector is not None
            for batch in collector.drain():
                emissions.append((task_id, batch))

        for task_id, task_index, component in spec.tasks:
            bolt = spec.factories[component]()
            if not isinstance(bolt, Bolt):
                raise TypeError(f"remote component {component!r} is not a bolt")
            bolt.prepare(
                component_name=component,
                task_index=task_index,
                task_id=task_id,
                collector=OutputCollector(component, task_id),
                context=spec.context,
            )
            bolts[task_id] = bolt
            components[task_id] = component
            drain(task_id)

        while True:
            request = inbox.get()
            started = clock()
            kind = request[0]
            if kind == _MSG:
                _, task_id, messages = request
                accounting.record_batch(
                    messages[0].source_component,
                    components[task_id],
                    task_id,
                    len(messages),
                )
                bolts[task_id].execute_batch(messages)
                drain(task_id)
            elif kind == _TICK:
                spec.context.current_time = request[1]
                for task_id, bolt in bolts.items():
                    bolt.tick(request[1])
                    drain(task_id)
            elif kind == _FLUSH:
                for task_id, bolt in bolts.items():
                    bolt.flush()
                    drain(task_id)
            elif kind == _COLLECT:
                outbox.put(("emissions", spec.shard_index, emissions))
                emissions = []
            elif kind == _MIGRATE_PREPARE:
                # Phase 1 of a live-repartitioning handoff.  Payloads are
                # computed side-effect-free and staged locally; a failure is
                # reported *softly* (the worker keeps serving) so the driver
                # can abort the handoff and resume under the old map.
                _, task_ids = request
                staged: dict[int, Any] = {}
                try:
                    for task_id in task_ids:
                        staged[task_id] = bolts[task_id].prepare_migration()  # type: ignore[attr-defined]
                except Exception:
                    staged_migration = None
                    outbox.put(
                        ("migrated", spec.shard_index,
                         {"ok": False, "error": traceback.format_exc()})
                    )
                else:
                    staged_migration = staged
                    outbox.put(("migrated", spec.shard_index, {"ok": True}))
            elif kind == _MIGRATE_COMMIT:
                # Phase 2: emit the staged payloads and reset the bolts, in
                # task-id order (matching the inline coordinator).  The
                # whole emission buffer ships back with the reply — the
                # commit emissions plus any earlier in-stream report batches
                # — and the driver routes it exactly like a _COLLECT relay.
                _, timestamp = request
                migrated = 0
                for task_id in sorted(staged_migration or {}):
                    assert staged_migration is not None
                    migrated += bolts[task_id].commit_migration(  # type: ignore[attr-defined]
                        staged_migration[task_id], timestamp
                    )
                    drain(task_id)
                staged_migration = None
                outbox.put(
                    ("migrated", spec.shard_index,
                     {"ok": True, "migrated": migrated, "emissions": emissions})
                )
                emissions = []
            elif kind == _MIGRATE_ABORT:
                staged_migration = None
            elif kind == _DRAIN:
                # End-of-run drain runs *inside* the worker: the shard ships
                # final results (small triple lists) instead of the counter
                # tables that produced them, and the tables are emptied
                # before the bolts themselves are pickled back at
                # finalisation.  Mode-specific state that draining resets
                # (the sketch estimator's tracked-key count) is sampled
                # first and shipped alongside.
                #
                # With a chunk size (request[1] > 0) the shard streams the
                # results instead of building one monolithic reply: per
                # task a "drained_begin" header, then bounded
                # "drained_triples" slices (each chunk pickles alone, so
                # neither side ever holds a whole-table message), then a
                # final bare "drained" end marker.
                chunk = request[1] if len(request) > 1 else 0
                drained: dict[int, Any] = {}
                for task_id, bolt in bolts.items():
                    estimator = getattr(bolt, "estimator", None)
                    tracked = getattr(estimator, "tracked_tagsets", None)
                    payload = getattr(bolt, "drain_payload", None)
                    if payload is None:
                        continue
                    triples = payload()
                    if chunk <= 0:
                        drained[task_id] = (triples, tracked)
                        continue
                    outbox.put(
                        ("drained_begin", spec.shard_index, (task_id, tracked))
                    )
                    for start in range(0, len(triples), chunk):
                        outbox.put(
                            ("drained_triples", spec.shard_index,
                             (task_id, triples[start:start + chunk]))
                        )
                    del triples
                if chunk <= 0:
                    outbox.put(("drained", spec.shard_index, drained))
                else:
                    outbox.put(("drained", spec.shard_index, None))
            elif kind == _FINALIZE:
                for bolt in bolts.values():
                    bolt.collector = None  # the driver re-attaches its own
                busy += clock() - started
                outbox.put(
                    ("result", spec.shard_index,
                     ShardResult(spec.shard_index, accounting, bolts, gc_tally, busy))
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


class ShardedProcessExecutor(Executor):
    """Runs a downstream layer of components across ``multiprocessing`` workers.

    Parameters
    ----------
    workers:
        Requested shard count; clamped to the widest remote component's
        parallelism (a worker with no tasks would only burn a process).
    remote_components:
        Component names forming the remote layer.  Must be a sink layer:
        only a terminal driver-side component may subscribe to their
        streams (their emissions are relayed only at end-of-stream).
        Components absent from the topology are ignored; with none present
        the executor degrades to the inline loop.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default, i.e.
        ``fork`` on Linux).  All shipped state is picklable, so ``spawn``
        works too at a higher startup cost.
    drain_chunk_size:
        When positive, the end-of-run drain streams each remote bolt's
        results back in IPC messages of at most this many triples (or
        replay pairs) instead of one monolithic per-shard reply, bounding
        the peak pickle size on both sides.  ``0`` (the default) keeps the
        single-message drain.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 2,
        remote_components: Sequence[str] = (),
        start_method: str | None = None,
        drain_chunk_size: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if drain_chunk_size < 0:
            raise ValueError("drain_chunk_size must be >= 0")
        if not remote_components:
            raise ValueError(
                "ShardedProcessExecutor needs at least one remote component"
            )
        self.requested_workers = workers
        self.remote_components = tuple(remote_components)
        self._start_method = start_method
        self._drain_chunk_size = drain_chunk_size
        self._cluster: "Cluster | None" = None
        self._owner: dict[int, int] = {}
        self._pending: list[list[tuple]] = []
        self._inboxes: list[Any] = []
        self._outboxes: list[Any] = []
        self._procs: list[Any] = []
        self._started = False
        self._finished = False
        self._drained: dict[int, tuple[list, int | None]] = {}
        #: Shard count actually used (set at attach time).
        self.effective_workers = 0

    # ------------------------------------------------------------------ #
    # Cluster-facing hooks
    # ------------------------------------------------------------------ #
    def attach(self, cluster: "Cluster") -> None:
        if self._cluster is not None:
            raise RuntimeError(
                "executor already attached; use one executor per cluster"
            )
        self._cluster = cluster
        layers: dict[str, list["TaskInfo"]] = {}
        for component in self.remote_components:
            try:
                layers[component] = cluster.tasks_of(component)
            except KeyError:
                continue  # optional component not in this topology
        if not layers:
            return  # nothing to shard: behave like the inline engine
        self._check_layer_is_sink(cluster, layers)
        widest = max(len(tasks) for tasks in layers.values())
        n = max(1, min(self.requested_workers, widest))
        self.effective_workers = n
        for tasks in layers.values():
            for task in tasks:
                self._owner[task.task_id] = task.task_index % n
        self._pending = [[] for _ in range(n)]

    def owns(self, task_id: int) -> bool:
        return task_id in self._owner

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
        if not self._started:
            return 0
        assert self._cluster is not None
        for inbox in self._inboxes:
            inbox.put((_FLUSH,))
            inbox.put((_COLLECT,))
        released = 0
        for shard in range(self.effective_workers):
            for task_id, batch in self._receive(shard, "emissions"):
                producer = self._cluster.task(task_id).component
                self._cluster._route_batch(producer, batch)
                released += len(batch.messages)
        return released

    # ------------------------------------------------------------------ #
    # Live-repartitioning state migration
    # ------------------------------------------------------------------ #
    def migrate_prepare(self, task_ids: Sequence[int]) -> str | None:
        if not self._started:
            return None
        by_shard: dict[int, list[int]] = {}
        for task_id in task_ids:
            by_shard.setdefault(self._owner[task_id], []).append(task_id)
        shards = sorted(by_shard)
        for shard in shards:
            self._inboxes[shard].put((_MIGRATE_PREPARE, by_shard[shard]))
        # Every asked shard replies exactly once; collect them all (even
        # after a failure) so the reply streams stay aligned.  A worker that
        # *dies* here (rather than raising) surfaces as the usual
        # RuntimeError from _receive — there is no old state to resume.
        error: str | None = None
        for shard in shards:
            reply = self._receive(shard, "migrated")
            if not reply["ok"] and error is None:
                error = f"shard worker {shard}: {reply['error']}"
        return error

    def migrate_commit(self, timestamp: float) -> int:
        if not self._started:
            return 0
        assert self._cluster is not None
        for inbox in self._inboxes:
            inbox.put((_MIGRATE_COMMIT, timestamp))
        migrated = 0
        for shard in range(self.effective_workers):
            reply = self._receive(shard, "migrated")
            migrated += reply["migrated"]
            # Relay the shard's buffered emissions (the migration payloads
            # plus any earlier in-stream report batches) through the normal
            # routing and accounting machinery, exactly like flush_remote.
            for task_id, batch in reply["emissions"]:
                producer = self._cluster.task(task_id).component
                self._cluster._route_batch(producer, batch)
        return migrated

    def migrate_abort(self) -> None:
        if not self._started:
            return
        for inbox in self._inboxes:
            inbox.put((_MIGRATE_ABORT,))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, cluster: "Cluster", max_spout_calls: int | None = None) -> int:
        if cluster is not self._cluster:
            raise RuntimeError("executor is not attached to this cluster")
        if not self._owner:
            return self._drive(cluster, max_spout_calls=max_spout_calls)
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
        ctx = multiprocessing.get_context(self._start_method)
        context = StaticContext(
            task_ids_by_component={
                name: [task.task_id for task in cluster.tasks_of(name)]
                for name in cluster.topology.components
            },
            components_by_task={
                task.task_id: task.component for task in cluster._tasks
            },
        )
        shard_tasks: list[list[tuple[int, int, str]]] = [
            [] for _ in range(self.effective_workers)
        ]
        shard_components: list[set[str]] = [set() for _ in range(self.effective_workers)]
        for task_id, shard in sorted(self._owner.items()):
            task = cluster.task(task_id)
            shard_tasks[shard].append((task.task_id, task.task_index, task.component))
            shard_components[shard].add(task.component)
        for shard in range(self.effective_workers):
            spec = WorkerSpec(
                shard_index=shard,
                tasks=shard_tasks[shard],
                factories={
                    name: cluster.topology.components[name].factory
                    for name in shard_components[shard]
                },
                context=context,
            )
            try:
                pickle.dumps(spec)
            except Exception as exc:
                raise RuntimeError(
                    "the process executor requires picklable factories and "
                    f"state for the remote layer ({sorted(shard_components[shard])}): "
                    f"{exc}"
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
        _kind, payload = self._receive_any(shard, (expected,))
        return payload

    def _receive_any(
        self, shard: int, kinds: Sequence[str]
    ) -> tuple[str, Any]:
        """Next reply from ``shard`` whose kind is one of ``kinds``.

        Polls with a liveness check so a dead worker surfaces as an error
        instead of a hang; worker-reported failures raise immediately.
        Returns ``(kind, payload)`` — callers expecting a single kind use
        the :meth:`_receive` wrapper.
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
            if kind not in kinds:  # pragma: no cover - protocol bug
                raise RuntimeError(
                    f"expected one of {tuple(kinds)!r} from shard {shard}, "
                    f"got {kind!r}"
                )
            return kind, reply[2]

    def drained_results(self) -> dict[int, tuple[list, int | None]]:
        return self._drained

    def _finalize(self, cluster: "Cluster") -> None:
        """Deterministically merge per-shard state back into the cluster.

        The remote layer is drained worker-side first — each shard ships
        its bolts' final results (small) rather than the counter tables
        that produced them — and only then are the (now-empty) bolts and
        the accounting pickled back.  Shards are processed in shard order,
        so neither step depends on worker scheduling; the pipeline replays
        the drained results in driver task order.
        """
        for inbox in self._inboxes:
            inbox.put((_DRAIN, self._drain_chunk_size))
        if self._drain_chunk_size <= 0:
            for shard in range(self.effective_workers):
                self._drained.update(self._receive(shard, "drained"))
        else:
            # Chunked drain: reassemble each task's streamed slices.  The
            # per-shard stream is ordered (one FIFO queue per worker), so a
            # "drained_begin" header always precedes its task's chunks and
            # the bare "drained" end marker closes the shard.
            kinds = ("drained", "drained_begin", "drained_triples")
            for shard in range(self.effective_workers):
                while True:
                    kind, payload = self._receive_any(shard, kinds)
                    if kind == "drained":
                        break
                    task_id, part = payload
                    if kind == "drained_begin":
                        self._drained[task_id] = ([], part)
                    else:
                        self._drained[task_id][0].extend(part)
        for inbox in self._inboxes:
            inbox.put((_FINALIZE,))
        for shard in range(self.effective_workers):
            result: ShardResult = self._receive(shard, "result")
            cluster.accounting.merge(result.accounting)
            cluster.worker_gc_tally.merge(result.gc_tally)
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
        for proc in self._procs:
            proc.join(timeout=5.0)
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
    def _check_layer_is_sink(
        self, cluster: "Cluster", layers: dict[str, list["TaskInfo"]]
    ) -> None:
        """A remote stream may leave the layer only for a terminal consumer.

        Relayed batches arrive late (at a flush or a migration commit), so
        whatever a driver-side consumer emitted in response would re-enter
        the pipeline out of order; a component nobody subscribes to cannot.
        """
        remote = set(layers)
        producers = {sub.producer for sub in cluster.topology.subscriptions}
        for subscription in cluster.topology.subscriptions:
            consumer = subscription.consumer
            if (
                subscription.producer in remote
                and consumer not in remote
                and consumer in producers
            ):
                raise ValueError(
                    f"remote component {subscription.producer!r} feeds "
                    f"driver-side component {consumer!r}, which feeds others "
                    "in turn; the sharded layer must be a sink layer (its "
                    "emissions are only relayed at end of stream, so only a "
                    "terminal driver-side component may consume them)"
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
                if not self._not_full.wait(timeout=timeout):
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
    remote_components: Sequence[str] = (),
    start_method: str | None = None,
    queue_limit: int = DEFAULT_SERVICE_QUEUE_LIMIT,
    drain_chunk_size: int = 0,
) -> Executor:
    """Build an executor by registry name (``"inline"``, ``"process"`` or
    ``"service"``)."""
    if name == InlineExecutor.name:
        return InlineExecutor()
    if name == ShardedProcessExecutor.name:
        return ShardedProcessExecutor(
            workers=workers,
            remote_components=remote_components,
            start_method=start_method,
            drain_chunk_size=drain_chunk_size,
        )
    if name == AsyncServiceExecutor.name:
        return AsyncServiceExecutor(queue_limit=queue_limit)
    raise ValueError(
        f"unknown executor {name!r}; available: {', '.join(EXECUTOR_NAMES)}"
    )

"""One repetition of one workload, measured inside a fresh subprocess.

``run.py`` starts a new interpreter per repetition (peak RSS is a
process-lifetime figure and allocator state must not bleed between runs);
this module is what that interpreter executes.  A repetition sets up its
inputs, runs ``gc.collect()``, times the workload through the public entry
points only (``TagCorrelationSystem.run``, or ``ServiceDaemon`` +
``ServiceClient``), then — outside the timed region — fingerprints inputs
and outputs, runs (first repetition only: the outputs are deterministic)
the workload's reference configuration over the same documents and checks
that nothing it created is left behind.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import random
import resource
import tempfile
import threading
import time
from typing import Any

from repro import TagCorrelationSystem
from repro.operators import TrackerBolt
from repro.service import ProtocolError, ServiceClient, ServiceDaemon, ServiceError

import bench_workloads as wl
from bench_trace import SpanRecorder

#: Gap between /proc sweeps of the descendant-RSS sampler (seconds).
_RSS_INTERVAL = 0.1
#: Per-request socket timeout of the served workload's clients (seconds).
_REQUEST_TIMEOUT = 60.0
#: Length of one host-speed calibration at the default ``--seconds``; one
#: runs immediately before and one immediately after every timed region.
_CALIBRATION_SECONDS = 0.5
#: Iterations per second of the calibration loop on the 2-core reference
#: host (Xeon 2.1 GHz under KVM, Python 3.11) when no other tenant is busy.
_REFERENCE_RATE = 8.0e6


# --------------------------------------------------------------------- #
# Process measurements
# --------------------------------------------------------------------- #
def _descendants(root: int) -> list[int]:
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                after_comm = handle.read().rsplit(b")", 1)[1].split()
            parents.setdefault(int(after_comm[1]), []).append(int(entry))
        except (OSError, IndexError, ValueError):
            continue  # the process ended between listdir and open
    found: list[int] = []
    frontier = [root]
    while frontier:
        for child in parents.get(frontier.pop(), ()):
            found.append(child)
            frontier.append(child)
    return found


def _status_kb(pid: int | str, field: bytes) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, IndexError, ValueError):
        pass
    return 0


class DescendantRss:
    """Peak summed ``VmRSS`` of live descendants, sampled from ``/proc``.

    ``RUSAGE_CHILDREN`` only sees reaped children and only the largest one;
    the process executor's workers and the spill store's merge pool hold
    their memory while they live.
    """

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="bench-rss")

    def _loop(self) -> None:
        root = os.getpid()
        while not self._stop.wait(_RSS_INTERVAL):
            total = sum(_status_kb(pid, b"VmRSS:") for pid in _descendants(root))
            self.peak_kb = max(self.peak_kb, total)

    def __enter__(self) -> "DescendantRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()


def _calibration_rate(seconds: float) -> float:
    """Iterations per second of a fixed pure-Python loop (integer and
    dictionary operations, nothing of the program under test)."""
    table: dict[int, int] = {}
    done = 0
    start = now = time.perf_counter()
    while now - start < seconds:
        for _ in range(2_000):
            done += 1
            table[done & 1023] = table.get(done & 1023, 0) + done
        now = time.perf_counter()
    return done / (now - start)


class Measurement:
    """Wall-clock, CPU and memory of one timed region, and the speed of the
    host around it.

    This host's speed drifts by a quarter over tens of seconds with the
    activity of other tenants (the calibration loop alone, timed in 2-second
    windows, has a quartile spread of 29 % of its median; no steal time is
    reported).  ``host_speed`` — the loop's rate just before and just after
    the timed region, relative to the quiet reference host — lets ``run.py``
    state times in reference-host seconds.
    """

    def __init__(self, scale: float) -> None:
        """``scale``: ``--seconds`` relative to the default (a smoke run
        calibrates as briefly as it measures)."""
        self._calibration_s = _CALIBRATION_SECONDS * scale

    @staticmethod
    def _cpu_seconds() -> tuple[float, float]:
        """User + system CPU of this process and of its reaped children."""
        own = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (own.ru_utime + own.ru_stime,
                children.ru_utime + children.ru_stime)

    def __enter__(self) -> "Measurement":
        self._rss = DescendantRss().__enter__()
        gc.collect()
        self._rate_before = _calibration_rate(self._calibration_s)
        self._cpu = self._cpu_seconds()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = time.perf_counter() - self._start
        own, children = self._cpu_seconds()
        rate_after = _calibration_rate(self._calibration_s)
        self.host_speed = (self._rate_before + rate_after) / 2 / _REFERENCE_RATE
        self._rss.__exit__(*exc_info)
        self.cpu_self_s = own - self._cpu[0]
        # Children count once reaped: the process executor joins its workers
        # and the merge pool is closed before the timed call returns.
        self.cpu_children_s = children - self._cpu[1]
        # VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so a
        # fresh interpreter would start at its parent's high-water mark.
        self.rss_self_mb = _status_kb("self", b"VmHWM:") / 1024.0
        self.rss_children_mb = self._rss.peak_kb / 1024.0

    def as_dict(self) -> dict[str, float]:
        return {
            "wall_s": self.wall_s,
            "host_speed": self.host_speed,
            "cpu_self_s": self.cpu_self_s,
            "cpu_children_s": self.cpu_children_s,
            "rss_self_mb": self.rss_self_mb,
            "rss_children_mb": self.rss_children_mb,
        }


# --------------------------------------------------------------------- #
# Reading a finished run
# --------------------------------------------------------------------- #
def _tracker_of(system: TagCorrelationSystem) -> TrackerBolt:
    return next(
        bolt
        for bolt in system.cluster.instances_of("tracker")
        if isinstance(bolt, TrackerBolt)
    )


def _table_digest(tracker: TrackerBolt) -> str:
    snapshot = tracker.snapshot(0)
    try:
        return snapshot.digest()
    finally:
        close = getattr(snapshot, "close", None)  # run-backed snapshots hold files
        if close is not None:
            close()


def _support_digest(tracker: TrackerBolt) -> str:
    """sha256 over ``tagset=support``: what survives a different arrival
    order of equally supported coefficients."""
    hasher = hashlib.sha256()
    for line in sorted(
        f"{','.join(sorted(tagset))}={support}\n"
        for tagset, support in tracker.supports().items()
    ):
        hasher.update(line.encode("utf-8"))
    return hasher.hexdigest()


def _table_digests(workload: wl.Workload, tracker: TrackerBolt) -> dict[str, str]:
    digests = {"digest": _table_digest(tracker)}
    if not workload.reference_exact:
        digests["support_digest"] = _support_digest(tracker)
    return digests


#: What a repetition reports of its ``RunReport`` (attribute names).
_REPORT_FIELDS = (
    "documents_processed", "communication_avg", "jaccard_coverage",
    "jaccard_mean_error", "coefficients_reported", "duplicate_reports",
    "notification_messages", "batch_amortization", "n_repartitions",
    "single_additions_applied", "calculator_loads", "load_gini",
    "load_max_share", "timings", "subset_cache_stats", "store_stats",
    "tracker_store_stats", "report_round_stats",
)


def _report_fields(report) -> dict[str, Any]:
    return {name: getattr(report, name) for name in _REPORT_FIELDS}


def _reference_run(
    workload: wl.Workload, documents: list, scale: float
) -> dict[str, Any]:
    """The workload's reference configuration over the same documents."""
    system = TagCorrelationSystem(wl.system_config(workload, reference=True))
    with Measurement(scale) as measured:
        report = system.run(documents)
    return {
        **measured.as_dict(),
        **_table_digests(workload, _tracker_of(system)),
        "coefficients_reported": report.coefficients_reported,
        "communication_avg": report.communication_avg,
        "duplicate_reports": report.duplicate_reports,
    }


# --------------------------------------------------------------------- #
# The two kinds of timed region
# --------------------------------------------------------------------- #
def _run_batch(
    workload: wl.Workload, documents: list, spill_dir: str, scale: float,
    setup_start: float,
) -> tuple[dict, TrackerBolt]:
    """``setup_start``: when this repetition's set-up began; it ends here,
    once the system is constructed."""
    system = TagCorrelationSystem(wl.system_config(workload, spill_dir))
    setup_s = time.perf_counter() - setup_start
    with Measurement(scale) as measured:
        report = system.run(documents)
    offered = len(documents)
    return {
        **measured.as_dict(),
        "setup_s": setup_s,
        "documents": offered,
        "attempted": offered,
        "failed": abs(offered - report.documents_processed),
        "report": _report_fields(report),
    }, _tracker_of(system)


class _QueryClient(threading.Thread):
    """Closed loop with think time: ``top_k`` → 3 × ``coefficient`` (tags
    drawn from the last ``top_k`` answer) → ``stats``."""

    def __init__(self, address: tuple[str, int], seed: int) -> None:
        super().__init__(name="bench-query")
        self._address = address
        self._rng = random.Random(seed)
        self.halt = threading.Event()
        self.latency_s: dict[str, list[float]] = {
            "top_k": [], "coefficient": [], "stats": [],
        }
        self.failed = 0
        self.cycles = 0

    def _timed(self, kind: str, call, *args) -> dict | None:
        start = time.perf_counter()
        try:
            response = call(*args)
        except (ServiceError, ProtocolError):
            self.failed += 1
            return None
        except OSError:  # timed out or disconnected: the connection is gone
            self.failed += 1
            self.halt.set()
            return None
        self.latency_s[kind].append(time.perf_counter() - start)
        return response

    def run(self) -> None:
        host, port = self._address
        think = wl.QUERY_THINK_SECONDS
        with ServiceClient(host=host, port=port, timeout=_REQUEST_TIMEOUT) as client:
            rows: list = []
            # A cycle that has begun is completed (without think time once
            # halted), so every kind of query has at least one sample.
            while not self.halt.is_set():
                response = self._timed("top_k", client.top_k, 10)
                if response is not None:
                    rows = response["results"]
                self.halt.wait(think)
                for _ in range(3):
                    tags = self._rng.choice(rows)[0] if rows else ["untracked"]
                    self._timed("coefficient", client.coefficient, tags)
                    self.halt.wait(think)
                self._timed("stats", client.stats)
                self.cycles += 1
                self.halt.wait(think)


def _run_served(
    workload: wl.Workload, documents: list, scale: float, seed: int,
    setup_start: float,
) -> tuple[dict, TrackerBolt]:
    """Feed for the workload's time box, and until the query client has
    its samples; then drain.  Set-up ends once the daemon listens and the
    feeder is connected."""
    feed_seconds = workload.feed_seconds * scale
    min_cycles = round(wl.MIN_QUERY_CYCLES * scale)
    daemon = ServiceDaemon(wl.system_config(workload))
    ingest_s: list[float] = []
    failed_documents = 0
    offered = 0
    pending_max = 0
    with daemon:
        host, port = daemon.address
        query = _QueryClient((host, port), seed)
        with ServiceClient(host=host, port=port, timeout=_REQUEST_TIMEOUT) as feeder:
            setup_s = time.perf_counter() - setup_start
            with Measurement(scale) as measured:
                query.start()
                deadline = time.perf_counter() + feed_seconds
                position = 0
                while position < len(documents) and (
                    time.perf_counter() < deadline or query.cycles < min_cycles
                ):
                    batch = documents[position:position + wl.INGEST_BATCH]
                    position += len(batch)
                    offered += len(batch)
                    sent = time.perf_counter()
                    try:
                        reply = feeder.ingest(
                            batch, block=True, timeout=_REQUEST_TIMEOUT
                        )
                    except (ServiceError, ProtocolError):  # refused
                        failed_documents += len(batch)
                        continue
                    except OSError:  # timed out or disconnected
                        failed_documents += len(batch)
                        break
                    ingest_s.append(time.perf_counter() - sent)
                    pending_max = max(pending_max, reply["pending_batches"])
                query.halt.set()
                query.join()
                drain_start = time.perf_counter()
                feeder.shutdown()
                drain_s = time.perf_counter() - drain_start
    report = daemon.final_report
    queries = sum(len(v) for v in query.latency_s.values()) + query.failed
    accepted = offered - failed_documents
    return {
        **measured.as_dict(),
        "setup_s": setup_s,
        "documents": accepted,
        "attempted": offered + queries,
        "failed": (
            failed_documents + query.failed
            + abs(accepted - report.documents_processed)
        ),
        "report": _report_fields(report),
        "service": {
            "ingest_s": ingest_s,
            "ingest_failed": failed_documents // wl.INGEST_BATCH,
            "query_s": query.latency_s,
            "query_failed": query.failed,
            "pending_batches_max": pending_max,
            "drain_s": drain_s,
        },
    }, _tracker_of(daemon.system)


# --------------------------------------------------------------------- #
# Entry point of the repetition subprocess
# --------------------------------------------------------------------- #
def _leaks(spill_dir: str) -> list[str]:
    """What this repetition left behind, after its own clean-up."""
    found = []
    if os.path.exists(spill_dir):
        found.append(f"spill directory survives: {spill_dir}")
    children = _descendants(os.getpid())
    if children:
        found.append(f"child processes still alive: {children}")
    deadline = time.monotonic() + 5.0
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.05)  # connection handler threads end with their sockets
    extra = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if extra:
        found.append(f"threads still alive: {extra}")
    return found


def run_rep(spec: dict[str, Any]) -> dict[str, Any]:
    """Run the repetition ``spec`` describes and return its raw figures.

    ``spec``: ``workload``, ``seed``, ``rep``, ``seconds``, ``traced``,
    ``reference`` (also run the reference configuration), ``work_dir`` and
    (traced runs) ``trace_path``.
    """
    workload = wl.WORKLOADS[spec["workload"]]
    seed = wl.sample_seed(spec["seed"], spec["rep"])
    n_documents = wl.scaled_documents(workload, spec["seconds"])
    os.makedirs(spec["work_dir"], exist_ok=True)

    setup_start = time.perf_counter()
    documents = wl.generate_documents(workload, seed, n_documents)
    spill = tempfile.TemporaryDirectory(prefix="rep-", dir=spec["work_dir"])

    recorder = SpanRecorder() if spec["traced"] else None
    scale = wl.scale(spec["seconds"])
    with spill:
        with recorder or contextlib.nullcontext():
            if workload.served:
                result, tracker = _run_served(
                    workload, documents, scale, seed, setup_start
                )
            else:
                result, tracker = _run_batch(
                    workload, documents, spill.name, scale, setup_start
                )
        try:
            result.update(_table_digests(workload, tracker))
        finally:
            tracker.close()
    result["served"] = workload.served
    result["remote"] = workload.system.get("executor") == "process"
    result["spilled"] = workload.spills
    result["stream"] = f"{n_documents}:{seed}"
    result["input_sha256"] = wl.input_fingerprint(documents)
    if recorder is not None:
        result["trace"] = recorder.aggregate()
        result["trace_spans"] = recorder.span_count()
        recorder.write_jsonl(
            spec["trace_path"], f"{workload.name}:{result['stream']}"
        )
    elif spec["reference"] and workload.reference_without is not None:
        # Served runs ingest however many documents fit in the time box.
        result["reference"] = _reference_run(
            workload, documents[:result["documents"]], scale
        )
    result["leaks"] = _leaks(spill.name)
    return result

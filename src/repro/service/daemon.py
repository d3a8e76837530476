"""The always-on service daemon: one cluster, many concurrent clients.

Threading model (the whole design in four lines):

* **One writer.**  A single writer thread runs ``cluster.run()`` under the
  :class:`~repro.streamsim.executors.AsyncServiceExecutor` — it is the only
  thread that ever touches cluster state.
* **Many readers.**  Socket handler threads answer queries against the
  *published snapshot*, an immutable
  :class:`~repro.operators.tracker.TrackerSnapshot` the writer re-publishes
  (plain reference assignment — atomic under the GIL) at every quiescent
  batch boundary.  Readers never see a half-applied round, and need no
  lock: a snapshot is a stack of frozen layers, publishing one freezes only
  the entries the batch changed, and the retained ring shares every older
  layer instead of holding a table per round.
* **Bounded hand-off.**  Ingest requests feed the executor's bounded batch
  queue; a full queue surfaces to the client as a pinned ``backpressure``
  error rather than unbounded buffering.
* **Graceful drain.**  ``shutdown`` closes ingest, joins the writer (which
  finishes with the normal end-of-stream flush) and collects the final
  :class:`~repro.pipeline.system.RunReport` — bit-identical to a batch run
  over the same document sequence.

The request dispatcher (:meth:`ServiceDaemon.handle_request`) is pure
dict-in/dict-out, so the fault-injection suite exercises every error path
without sockets; the socket layer only adds framing.
"""

from __future__ import annotations

import contextlib
import os
import socketserver
import threading
import time
import traceback
from collections import deque
from typing import Any

from ..operators import ServiceSpout, TrackerBolt, TrackerSnapshot, streams
from ..pipeline import RunReport, SystemConfig, TagCorrelationSystem
from ..streamsim import AsyncServiceExecutor, IngestBackpressure, IngestClosed
from . import protocol
from .protocol import ProtocolError, error_response, ok_response


def _is_number(value: Any, kinds: type | tuple[type, ...] = int) -> bool:
    """``isinstance`` for numeric request fields: ``bool`` is an ``int`` to
    Python, but JSON ``true`` is not a number on this wire."""
    return isinstance(value, kinds) and not isinstance(value, bool)


class ServiceDaemon:
    """Owns a served :class:`TagCorrelationSystem` cluster and its clients.

    Parameters
    ----------
    config:
        System configuration; ``executor`` is forced to ``"service"``.
    host, port:
        TCP bind address (``port=0`` picks a free port; see :attr:`address`).
    socket_path:
        Bind a Unix domain socket here instead of TCP.
    retain_snapshots:
        Published snapshots kept in a ring buffer (:meth:`retained_snapshots`)
        — the soak suite's consistency oracle.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: str | None = None,
        retain_snapshots: int = 64,
    ) -> None:
        config = config or SystemConfig()
        if config.executor != "service":
            config = config.with_overrides(executor="service")
        self.system = TagCorrelationSystem(config)
        self._cluster = self.system.build_cluster()
        executor = self._cluster.executor
        assert isinstance(executor, AsyncServiceExecutor)
        self.executor = executor
        self._tracker = next(
            bolt
            for bolt in self._cluster.instances_of(streams.TRACKER)
            if isinstance(bolt, TrackerBolt)
        )
        self._spout = next(
            spout
            for spout in self._cluster.instances_of(streams.SOURCE)
            if isinstance(spout, ServiceSpout)
        )
        executor.on_quiescent = self._publish_snapshot

        self._round = 0
        #: Cumulative wall-clock of ``TrackerBolt.snapshot`` (writer thread
        #: writes, ``stats`` reads: a float attribute, atomic under the GIL).
        self._publish_seconds = 0.0
        self._snapshot: TrackerSnapshot = self._tracker.snapshot(0)
        self._snapshots: deque[TrackerSnapshot] = deque(
            [self._snapshot], maxlen=max(1, retain_snapshots)
        )
        self._tracked: set[frozenset[str]] = set()
        self._state_lock = threading.Lock()
        self._shutdown_started = False
        self._shutdown_complete = threading.Event()
        self._final_report: RunReport | None = None
        self._writer_error: str | None = None
        self._writer = threading.Thread(
            target=self._write_loop, name="repro-service-writer", daemon=True
        )

        self._host = host
        self._port = port
        self._socket_path = socket_path
        self._server: socketserver.BaseServer | None = None
        self._server_thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServiceDaemon":
        """Start the writer thread and the socket server; returns self."""
        self._writer.start()
        if self._socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._socket_path)
            self._server = _UnixServer(self._socket_path, _Handler, daemon=self)
        else:
            self._server = _TCPServer((self._host, self._port), _Handler, daemon=self)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-service-acceptor",
            daemon=True,
        )
        self._server_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int] | str:
        """The bound TCP ``(host, port)`` or the Unix socket path."""
        if self._socket_path is not None:
            return self._socket_path
        assert self._server is not None, "daemon is not started"
        return self._server.server_address[:2]

    def wait_for_shutdown(self, timeout: float | None = None) -> bool:
        """Block until a ``shutdown`` request has fully drained the run."""
        return self._shutdown_complete.wait(timeout=timeout)

    def close(self) -> None:
        """Tear the daemon down (socket server, writer thread, socket file)."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._writer.is_alive():
            self.executor.request_drain()
            self._writer.join(timeout=30.0)
        if self._socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._socket_path)

    def __enter__(self) -> "ServiceDaemon":
        return self.start() if self._server is None else self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def final_report(self) -> RunReport | None:
        """The drained run's report (None until shutdown completes)."""
        return self._final_report

    def retained_snapshots(self) -> list[TrackerSnapshot]:
        """The ring buffer of published snapshots (soak-test oracle)."""
        with self._state_lock:
            return list(self._snapshots)

    @property
    def current_round(self) -> int:
        return self._snapshot.round_index

    # ------------------------------------------------------------------ #
    # Writer thread
    # ------------------------------------------------------------------ #
    def _write_loop(self) -> None:
        try:
            self._cluster.run()
        except BaseException:  # noqa: BLE001 - surface on ingest/stats/shutdown
            self._writer_error = traceback.format_exc()
            # Nothing will ever drain the queue again: close it, so blocked
            # submitters wake up and no further batch is accepted.
            self.executor.request_drain()

    def _publish_snapshot(self) -> None:
        # Writer thread only, at a quiescent point: every document of the
        # finished batch has fully cascaded, so the snapshot is
        # round-consistent.  Publication is one reference assignment.
        self._round += 1
        start = time.perf_counter()
        snapshot = self._tracker.snapshot(self._round)
        self._publish_seconds += time.perf_counter() - start
        self._snapshot = snapshot
        with self._state_lock:
            self._snapshots.append(snapshot)

    # ------------------------------------------------------------------ #
    # Request dispatch (pure; shared by the socket layer and the tests)
    # ------------------------------------------------------------------ #
    def dispatch_line(self, line: bytes) -> dict:
        """Frame-decode one request line and handle it."""
        try:
            request = protocol.decode_request(line)
        except ProtocolError as exc:
            return error_response(exc.code, exc.message)
        return self.handle_request(request)

    def handle_request(self, request: dict) -> dict:
        op = request.get("op")
        if op not in protocol.OPS:
            return error_response(
                protocol.ERROR_UNKNOWN_OP,
                f"unknown op {op!r}; supported: {', '.join(protocol.OPS)}",
            )
        try:
            handler = getattr(self, f"_op_{op}")
            return handler(request)
        except ProtocolError as exc:
            return error_response(exc.code, exc.message)

    def _op_ping(self, request: dict) -> dict:
        return ok_response("ping", round=self._snapshot.round_index)

    def _op_ingest(self, request: dict) -> dict:
        documents = protocol.documents_from_wire(request.get("documents"))
        block = bool(request.get("block", False))
        timeout = request.get("timeout")
        if timeout is not None and not (
            _is_number(timeout, (int, float)) and timeout > 0
        ):
            raise ProtocolError(
                protocol.ERROR_BAD_REQUEST, "timeout must be a positive number"
            )
        try:
            accepted = self.executor.submit(documents, block=block, timeout=timeout)
        except IngestBackpressure as exc:
            return error_response(protocol.ERROR_BACKPRESSURE, str(exc))
        except IngestClosed as exc:
            if self._writer_error is None:
                return error_response(protocol.ERROR_DRAINING, str(exc))
            # Closed by the dying writer (which also woke any submitter
            # blocked on a full queue).  Unlike ``backpressure`` this is not
            # worth retrying: the pinned code is ``shutdown``, the message
            # the traceback's last line; ``shutdown`` replies with all of it.
            return error_response(
                protocol.ERROR_SHUTDOWN,
                "writer thread failed: "
                + self._writer_error.rstrip().rsplit("\n", 1)[-1],
            )
        return ok_response(
            "ingest",
            accepted=accepted,
            pending_batches=self.executor.pending_batches,
        )

    def _op_query(self, request: dict) -> dict:
        what = request.get("what")
        if what not in protocol.QUERY_KINDS:
            raise ProtocolError(
                protocol.ERROR_BAD_REQUEST,
                f"unknown query {what!r}; supported: "
                f"{', '.join(protocol.QUERY_KINDS)}",
            )
        snapshot = self._snapshot  # one read: everything below is consistent
        if what == "top_k":
            k = request.get("k", 10)
            min_support = request.get("min_support", 0)
            if not (_is_number(k) and k >= 1):
                raise ProtocolError(
                    protocol.ERROR_BAD_REQUEST, "k must be a positive integer"
                )
            if not (_is_number(min_support) and min_support >= 0):
                raise ProtocolError(
                    protocol.ERROR_BAD_REQUEST,
                    "min_support must be a non-negative integer",
                )
            return ok_response(
                "query",
                what=what,
                round=snapshot.round_index,
                results=protocol.tagsets_to_wire(snapshot.top_k(k, min_support)),
            )
        if what == "coefficient":
            tagset = protocol.tagset_from_wire(request.get("tags"))
            pair = snapshot.coefficient(tagset)
            response = ok_response(
                "query",
                what=what,
                round=snapshot.round_index,
                found=pair is not None,
            )
            if pair is not None:
                response["jaccard"], response["support"] = pair
            return response
        if what == "tracked":
            with self._state_lock:
                tracked = sorted(self._tracked, key=lambda t: tuple(sorted(t)))
            rows = []
            for tagset in tracked:
                pair = snapshot.coefficient(tagset)
                if pair is not None:
                    rows.append((tagset, pair[0], pair[1]))
            return ok_response(
                "query",
                what=what,
                round=snapshot.round_index,
                tracked=len(tracked),
                results=protocol.tagsets_to_wire(rows),
            )
        # what == "stats"
        return ok_response(
            "query",
            what=what,
            round=snapshot.round_index,
            coefficients=len(snapshot),
            reports_received=snapshot.reports_received,
            duplicate_reports=snapshot.duplicate_reports,
            documents_ingested=self.executor.documents_accepted,
            batches_ingested=self.executor.batches_accepted,
            pending_batches=self.executor.pending_batches,
            documents_processed=self._spout.emitted,
            draining=self.executor.draining,
            snapshot_layers=snapshot.layer_count,
            snapshot_entries_copied=snapshot.entries_copied,
            snapshot_publish_ms=self._publish_seconds * 1000.0,
            writer_alive=self._writer.is_alive(),
            gc_passes=list(self._cluster.gc_tally.passes),
            gc_pause_ms=self._cluster.gc_tally.pause_seconds * 1000.0,
        )

    def _op_track(self, request: dict) -> dict:
        raw = request.get("tagsets")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(
                protocol.ERROR_BAD_REQUEST, "tagsets must be a non-empty list"
            )
        tagsets = [protocol.tagset_from_wire(obj) for obj in raw]
        with self._state_lock:
            self._tracked.update(tagsets)
            total = len(self._tracked)
        return ok_response("track", added=len(tagsets), tracked=total)

    def _op_shutdown(self, request: dict) -> dict:
        with self._state_lock:
            if self._shutdown_started:
                return error_response(
                    protocol.ERROR_SHUTDOWN,
                    "shutdown already in progress (or completed)",
                )
            self._shutdown_started = True
        self.executor.request_drain()
        self._writer.join()
        if self._writer_error is not None:
            self._shutdown_complete.set()
            return error_response(
                protocol.ERROR_BAD_REQUEST,
                f"writer thread failed:\n{self._writer_error}",
            )
        # The end-of-stream flush ran after the last quiescent boundary and
        # collecting the report ingests the Calculators' end-of-stream
        # drain: only then is the table final, so collect first and publish
        # second.  The writer is gone, so reading the tracker here is
        # single-threaded again.
        report = self.system.collect_report(self._cluster)
        self._publish_snapshot()
        self._final_report = report
        self._shutdown_complete.set()
        return ok_response(
            "shutdown",
            round=self._snapshot.round_index,
            final={
                "documents_processed": report.documents_processed,
                "coefficients_reported": report.coefficients_reported,
                "duplicate_reports": report.duplicate_reports,
                "n_repartitions": report.n_repartitions,
                "communication_avg": report.communication_avg,
                "notification_messages": report.notification_messages,
            },
        )


# --------------------------------------------------------------------- #
# Socket layer
# --------------------------------------------------------------------- #
class _Handler(socketserver.StreamRequestHandler):
    """One thread per connection; many requests per connection.

    A vanished client (EOF, reset, a half-written line) just ends the
    connection — ingest is atomic per request, so a disconnect mid-batch
    leaves no partial state behind.
    """

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        daemon: ServiceDaemon = self.server.daemon  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline(protocol.MAX_LINE_BYTES + 2)
            except (ConnectionError, OSError):
                return
            if not line:
                return  # client closed the connection
            if not line.endswith(b"\n"):
                if len(line) > protocol.MAX_LINE_BYTES:
                    # The line kept going past the cap: refuse and drop the
                    # connection (the rest of the oversize line is garbage).
                    self._reply(
                        error_response(
                            protocol.ERROR_OVERSIZE,
                            f"request line exceeds {protocol.MAX_LINE_BYTES} bytes",
                        )
                    )
                return  # EOF mid-line: client died mid-request
            response = daemon.dispatch_line(line)
            if not self._reply(response):
                return

    def _reply(self, response: dict) -> bool:
        try:
            self.wfile.write(protocol.encode(response))
            self.wfile.flush()
            return True
        except (ConnectionError, OSError):
            return False


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], handler: type, daemon: ServiceDaemon):
        self.daemon = daemon
        super().__init__(address, handler)


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True

    def __init__(self, path: str, handler: type, daemon: ServiceDaemon):
        self.daemon = daemon
        super().__init__(path, handler)

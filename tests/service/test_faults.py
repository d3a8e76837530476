"""Fault injection against the service daemon: pinned errors, no corruption.

Every fault the wire surface can see — a client that dies mid-request, a
garbage line, an oversize line, a wrong protocol version, a semantically
broken request, ingest after the drain started, a duplicate shutdown, a full
ingest queue — must produce its *pinned* error code (the contract from
``repro.service.protocol``) and must leave the run's state untouched: a
served run that absorbed every fault still drains to the exact same Tracker
table as a clean batch run over the same documents.

A writer thread that *dies* is a fault too: it must be visible at once —
ingest refused with a pinned non-retryable code, ``stats`` saying so — not
only in the reply to ``shutdown``.
"""

import gc
import json
import socket
import time

import pytest

from repro.operators import TrackerBolt, streams
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.service import (
    MAX_LINE_BYTES,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
)
from repro.service.protocol import document_to_wire
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

CONFIG = SystemConfig(
    algorithm="DS",
    k=3,
    n_partitioners=2,
    window_mode="count",
    window_size=300,
    bootstrap_documents=100,
    quality_check_interval=80,
    report_interval_seconds=30.0,
)


@pytest.fixture(scope="module")
def documents():
    config = WorkloadConfig(
        seed=7,
        n_topics=40,
        tags_per_topic=10,
        tweets_per_second=50.0,
        new_topic_rate=3.0,
        intra_topic_probability=0.9,
    )
    return TwitterLikeGenerator(config).generate(800)


@pytest.fixture(scope="module")
def clean_digest(documents):
    """Tracker digest of an untouched batch run — the corruption oracle."""
    system = TagCorrelationSystem(CONFIG)
    system.run(documents)
    tracker = next(
        bolt
        for bolt in system.cluster.instances_of(streams.TRACKER)
        if isinstance(bolt, TrackerBolt)
    )
    return tracker.snapshot(0).digest()


def _raw_exchange(address, payload: bytes) -> bytes:
    """Send raw bytes on a fresh connection; return the first response line."""
    host, port = address
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(payload)
        reader = sock.makefile("rb")
        return reader.readline()


class TestFaultsLeaveNoTrace:
    """One daemon absorbs every wire-level fault mid-run, then must drain
    to the clean batch digest."""

    def test_faulted_run_drains_clean(self, documents, clean_digest):
        with ServiceDaemon(CONFIG) as daemon:
            address = daemon.address
            with ServiceClient(*address) as client:
                half = len(documents) // 2
                client.ingest(documents[:half], block=True, timeout=60.0)

                # --- client disconnect mid-batch: half a line, then gone.
                partial = json.dumps(
                    {"v": 1, "op": "ingest", "documents": [{"tags": ["a"]}]}
                ).encode()[:40]
                host, port = address
                with socket.create_connection((host, port), timeout=10.0) as sock:
                    sock.sendall(partial)  # no newline, then close

                # --- malformed line.
                response = json.loads(_raw_exchange(address, b"{not json\n"))
                assert response == {
                    "ok": False,
                    "code": "malformed",
                    "error": response["error"],
                }

                # --- not-an-object line.
                response = json.loads(_raw_exchange(address, b"[1,2,3]\n"))
                assert response["code"] == "malformed"

                # --- oversize line: refused, connection dropped.  Sized to
                # exactly the daemon's read cap so no unread bytes linger
                # (a close with unread data would RST the response away).
                prefix = b'{"v":1,"op":"ping","pad":"'
                big = prefix + b"x" * (MAX_LINE_BYTES + 2 - len(prefix))
                host, port = address
                with socket.create_connection((host, port), timeout=10.0) as sock:
                    sock.sendall(big)
                    reader = sock.makefile("rb")
                    response = json.loads(reader.readline())
                    assert response["code"] == "oversize"
                    assert reader.readline() == b""  # daemon hung up

                # --- wrong protocol version.
                response = json.loads(
                    _raw_exchange(address, b'{"v":99,"op":"ping"}\n')
                )
                assert response["code"] == "unsupported-version"

                # --- missing version.
                response = json.loads(_raw_exchange(address, b'{"op":"ping"}\n'))
                assert response["code"] == "unsupported-version"

                # --- unknown op.
                response = json.loads(
                    _raw_exchange(address, b'{"v":1,"op":"explode"}\n')
                )
                assert response["code"] == "unknown-op"

                # --- semantically broken requests, all pinned bad-request.
                for request in (
                    {"op": "ingest", "documents": [{"timestamp": 1.0}]},
                    {"op": "ingest", "documents": [{"tags": [1], "timestamp": 0}]},
                    {"op": "ingest", "documents": "nope"},
                    {"op": "ingest", "documents": [], "timeout": -1},
                    {"op": "ingest", "documents": [], "timeout": True},
                    {"op": "query", "what": "top_k", "k": 0},
                    {"op": "query", "what": "top_k", "k": True},
                    {"op": "query", "what": "top_k", "min_support": -1},
                    {"op": "query", "what": "top_k", "min_support": True},
                    {"op": "query", "what": "nope"},
                    {"op": "query", "what": "coefficient", "tags": []},
                    {"op": "track", "tagsets": []},
                    {"op": "track", "tagsets": [["ok"], [2]]},
                ):
                    with pytest.raises(ServiceError) as excinfo:
                        client.request(**request)
                    assert excinfo.value.code == "bad-request", request

                # --- the live connection survived every client-side error.
                assert client.ping()["ok"] is True

                # --- second half of the workload, then drain.
                client.ingest(documents[half:], block=True, timeout=60.0)
                final = client.shutdown()
                assert final["final"]["documents_processed"] == len(documents)

                # --- ingest while draining / after drain.
                with pytest.raises(ServiceError) as excinfo:
                    client.ingest(documents[:1])
                assert excinfo.value.code == "draining"

                # --- double shutdown.
                with pytest.raises(ServiceError) as excinfo:
                    client.shutdown()
                assert excinfo.value.code == "shutdown"

            tracker = next(
                bolt
                for bolt in daemon.system.cluster.instances_of(streams.TRACKER)
                if isinstance(bolt, TrackerBolt)
            )
            assert tracker.snapshot(0).digest() == clean_digest


class TestBackpressure:
    """A full bounded queue is a pinned error, never silent buffering."""

    def _stalled_daemon(self) -> ServiceDaemon:
        # Never started: the writer thread does not run, so submitted
        # batches pile up against the configured queue limit.
        return ServiceDaemon(CONFIG.with_overrides(service_queue_limit=2))

    def test_nonblocking_ingest_hits_backpressure(self):
        daemon = self._stalled_daemon()
        docs = [{"tags": ["a", "b"], "timestamp": 0.0, "doc_id": 1}]
        for _ in range(2):
            response = daemon.handle_request(
                {"v": 1, "op": "ingest", "documents": docs}
            )
            assert response["ok"] is True
        response = daemon.handle_request({"v": 1, "op": "ingest", "documents": docs})
        assert response["ok"] is False
        assert response["code"] == "backpressure"
        assert daemon.executor.pending_batches == 2

    def test_blocking_ingest_times_out_with_backpressure(self):
        daemon = self._stalled_daemon()
        docs = [{"tags": ["a"], "timestamp": 0.0, "doc_id": 1}]
        for _ in range(2):
            daemon.handle_request({"v": 1, "op": "ingest", "documents": docs})
        response = daemon.handle_request(
            {"v": 1, "op": "ingest", "documents": docs, "block": True,
             "timeout": 0.05}
        )
        assert response["code"] == "backpressure"

    def test_queue_drains_after_backpressure(self):
        """Backpressure is transient: once the writer catches up, ingest
        succeeds and nothing submitted before the fault was lost."""
        daemon = ServiceDaemon(CONFIG.with_overrides(service_queue_limit=1))
        docs = [
            {"tags": ["a", "b"], "timestamp": float(i), "doc_id": i}
            for i in range(10)
        ]
        daemon.handle_request({"v": 1, "op": "ingest", "documents": docs})
        refused = daemon.handle_request({"v": 1, "op": "ingest", "documents": docs})
        assert refused["code"] == "backpressure"
        daemon.start()
        try:
            response = daemon.handle_request(
                {"v": 1, "op": "ingest", "documents": docs, "block": True,
                 "timeout": 30.0}
            )
            assert response["ok"] is True
            shutdown = daemon.handle_request({"v": 1, "op": "shutdown"})
            assert shutdown["ok"] is True
            # The refused batch vanished; both accepted batches processed.
            assert shutdown["final"]["documents_processed"] == 20
        finally:
            daemon.close()


class TestPublicationStats:
    """``stats`` prices snapshot publication on a live daemon."""

    def test_publication_counters_are_monotone_across_rounds(self, documents):
        names = (
            "snapshot_layers", "snapshot_entries_copied", "snapshot_publish_ms"
        )
        seen = []
        # A report round every 100 documents, so coefficients reach the
        # Tracker (and the published layers) while the stream runs.
        config = CONFIG.with_overrides(report_interval_seconds=2.0)
        with ServiceDaemon(config) as daemon:
            with ServiceClient(*daemon.address) as client:
                seen.append(client.stats())
                assert [seen[0][name] for name in names] == [0, 0, 0.0]
                for start in range(0, len(documents), 100):
                    client.ingest(
                        documents[start:start + 100], block=True, timeout=60.0
                    )
                    seen.append(client.stats())
                client.shutdown()
                seen.append(client.stats())
        rounds = [stats["round"] for stats in seen]
        assert rounds == sorted(rounds) and rounds[-1] > rounds[0]
        # The collector's figures only ever grow, generation by generation.
        for generation in range(3):
            values = [stats["gc_passes"][generation] for stats in seen]
            assert values == sorted(values), generation
        pauses = [stats["gc_pause_ms"] for stats in seen]
        assert pauses == sorted(pauses)
        assert [stats["writer_alive"] for stats in seen] == (
            [True] * (len(seen) - 1) + [False]
        )
        for name in ("snapshot_entries_copied", "snapshot_publish_ms"):
            values = [stats[name] for stats in seen]
            assert values == sorted(values), name
            assert values[-1] > 0, name
        final = seen[-1]
        assert final["snapshot_layers"] >= 1
        # Every coefficient was written into a layer at least once, and the
        # size-tiered merges re-wrote each only a few times — not once per
        # published round, which is what a full copy per round would cost.
        assert final["coefficients"] <= final["snapshot_entries_copied"]
        assert final["snapshot_entries_copied"] < (
            final["coefficients"] * final["round"] / 2
        )


def _wait_until(condition, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


class TestShutdownPublishesTheDrain:
    """Queries answered after ``shutdown`` see what ``final_report`` saw:
    the snapshot is published after the Calculators' end-of-stream drain
    has reached the Tracker, not before."""

    def test_post_shutdown_snapshot_equals_the_batch_table(
        self, documents, clean_digest
    ):
        batch = TagCorrelationSystem(CONFIG).run(documents)
        with ServiceDaemon(CONFIG) as daemon:
            with ServiceClient(*daemon.address) as client:
                client.ingest(documents, block=True, timeout=60.0)
                _wait_until(
                    lambda: client.stats()["documents_processed"]
                    == len(documents)
                )
                before = daemon.retained_snapshots()[-1]
                final = client.shutdown()
                after = daemon.retained_snapshots()[-1]
                assert after.round_index == final["round"]
                assert after.digest() == clean_digest
                assert len(after) == batch.coefficients_reported
                assert client.stats()["coefficients"] == len(after)

                drain_only = sorted(
                    (tagset for tagset in after.entries
                     if before.coefficient(tagset) is None),
                    key=sorted,
                )
                assert drain_only, "the drain added no coefficient"
                answer = client.coefficient(sorted(drain_only[0]))
                assert answer["found"] is True
                assert answer["round"] == final["round"]


class TestDeadWriter:
    """Once the writer thread has died nothing will ever drain the queue:
    ingest is refused with the pinned ``shutdown`` code (not the retryable
    ``backpressure``), ``stats`` says the writer is gone, the traceback is
    the reply to ``shutdown`` and the process's GC thresholds are back at
    the host's values."""

    QUEUE_LIMIT = 2

    def test_dead_writer_is_visible(self, documents, monkeypatch):
        def broken_ingest(self, triples):
            raise RuntimeError("tracker store exploded")

        monkeypatch.setattr(TrackerBolt, "ingest", broken_ingest)
        host_threshold = gc.get_threshold()
        # A report round every 100 documents reaches the broken Tracker.
        config = CONFIG.with_overrides(
            report_interval_seconds=2.0, service_queue_limit=self.QUEUE_LIMIT
        )
        replies = []
        with ServiceDaemon(config) as daemon:
            # The writer thread holds the run's GC policy while it lives.
            _wait_until(lambda: gc.get_threshold() != host_threshold)
            for start in range(0, len(documents), 20):
                replies.append(daemon.handle_request({
                    "v": 1, "op": "ingest", "block": True, "timeout": 30.0,
                    "documents": [
                        document_to_wire(document)
                        for document in documents[start:start + 20]
                    ],
                }))
            daemon._writer.join(timeout=30.0)
            assert not daemon._writer.is_alive()
            assert gc.get_threshold() == host_threshold

            # Accepted up to the failure, refused — never "retry" — after.
            accepted = [reply["ok"] for reply in replies]
            n_accepted = accepted.index(False)
            assert 0 < n_accepted < len(replies)
            assert accepted == [True] * n_accepted + [False] * (
                len(replies) - n_accepted
            )
            for reply in replies[n_accepted:]:
                assert reply["code"] == "shutdown"
                assert reply["error"] == (
                    "writer thread failed: RuntimeError: tracker store exploded"
                )

            stats = daemon.handle_request(
                {"v": 1, "op": "query", "what": "stats"}
            )
            assert stats["writer_alive"] is False
            # Accepted-then-lost batches: what sat in the bounded queue.
            assert stats["pending_batches"] <= self.QUEUE_LIMIT
            assert stats["batches_ingested"] == n_accepted

            shutdown = daemon.handle_request({"v": 1, "op": "shutdown"})
            assert shutdown["ok"] is False
            assert "Traceback" in shutdown["error"]
            assert "tracker store exploded" in shutdown["error"]
        assert gc.get_threshold() == host_threshold

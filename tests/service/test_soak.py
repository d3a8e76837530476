"""Soak: concurrent query clients against live ingest, no torn reads.

A feeder thread streams a few thousand documents through the ingest API
while several query clients hammer the daemon over their own connections.
The consistency oracle is the daemon's snapshot ring: every answer carries
the round it was served from, and must equal — exactly — what the retained
round-consistent :class:`~repro.operators.TrackerSnapshot` of that round
answers.  A torn read (a query observing a half-applied report round) cannot
satisfy that, because live Tracker state between rounds differs from every
published snapshot.  Rounds observed by each client must also advance
monotonically, and the drained run must still match a clean batch run.

Marked ``slow``: the CI tier-1 step deselects it with ``-m "not slow"``;
the CI hash-salt step, which runs ``tests/service`` unfiltered, runs it.
"""

import threading

import pytest

from repro.operators import TrackerBolt, streams
from repro.pipeline import SystemConfig, TagCorrelationSystem
from repro.service import ServiceClient, ServiceDaemon
from repro.workloads import TwitterLikeGenerator, WorkloadConfig

N_DOCUMENTS = 3000
INGEST_BATCH = 100
N_QUERY_CLIENTS = 4

CONFIG = SystemConfig(
    algorithm="DS",
    k=4,
    n_partitioners=3,
    window_mode="count",
    window_size=400,
    bootstrap_documents=150,
    quality_check_interval=100,
    report_interval_seconds=30.0,
)


@pytest.fixture(scope="module")
def documents():
    config = WorkloadConfig(
        seed=11,
        n_topics=60,
        tags_per_topic=12,
        tweets_per_second=50.0,
        new_topic_rate=4.0,
        intra_topic_probability=0.9,
    )
    return TwitterLikeGenerator(config).generate(N_DOCUMENTS)


@pytest.fixture(scope="module")
def clean_digest(documents):
    system = TagCorrelationSystem(CONFIG)
    system.run(documents)
    tracker = next(
        bolt
        for bolt in system.cluster.instances_of(streams.TRACKER)
        if isinstance(bolt, TrackerBolt)
    )
    return tracker.snapshot(0).digest()


class _QueryClient(threading.Thread):
    """Hammers one connection with queries until ingest finishes.

    Records every (round, k, results) top-k answer and every
    (round, coefficients, reports_received) stats answer for post-hoc
    verification against the snapshot ring.
    """

    def __init__(self, address, stop: threading.Event, index: int) -> None:
        super().__init__(name=f"soak-query-{index}", daemon=True)
        self._address = address
        self._halt = stop
        self.top_k_answers: list[tuple[int, int, list]] = []
        self.stats_answers: list[tuple[int, int, int]] = []
        self.rounds_seen: list[int] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            host, port = self._address
            with ServiceClient(host=host, port=port) as client:
                k = 5
                while not self._halt.is_set():
                    answer = client.top_k(k=k)
                    self.top_k_answers.append(
                        (answer["round"], k, answer["results"])
                    )
                    self.rounds_seen.append(answer["round"])
                    stats = client.stats()
                    self.stats_answers.append(
                        (
                            stats["round"],
                            stats["coefficients"],
                            stats["reports_received"],
                        )
                    )
                    self.rounds_seen.append(stats["round"])
        except BaseException as exc:  # noqa: BLE001 - reraised by the test
            self.error = exc


@pytest.mark.slow
class TestSoak:
    def test_concurrent_queries_see_only_round_consistent_state(
        self, documents, clean_digest
    ):
        # Retain every snapshot the run can publish: one per ingest batch
        # plus the final post-drain round.
        n_batches = -(-len(documents) // INGEST_BATCH)
        daemon = ServiceDaemon(CONFIG, retain_snapshots=n_batches + 2)
        stop = threading.Event()
        with daemon:
            clients = [
                _QueryClient(daemon.address, stop, index)
                for index in range(N_QUERY_CLIENTS)
            ]
            for client in clients:
                client.start()

            host, port = daemon.address
            with ServiceClient(host=host, port=port) as feeder:
                for start in range(0, len(documents), INGEST_BATCH):
                    batch = documents[start : start + INGEST_BATCH]
                    response = feeder.ingest(batch, block=True, timeout=60.0)
                    assert response["accepted"] == len(batch)
                stop.set()
                for client in clients:
                    client.join(timeout=60.0)
                    assert not client.is_alive()
                final = feeder.shutdown()

            assert final["final"]["documents_processed"] == len(documents)

            snapshots = {
                snapshot.round_index: snapshot
                for snapshot in daemon.retained_snapshots()
            }
            # Every published round was retained (the oracle is complete).
            assert set(snapshots) == set(range(daemon.current_round + 1))

            total_answers = 0
            for client in clients:
                if client.error is not None:
                    raise client.error
                # Rounds advance monotonically per connection.
                assert client.rounds_seen == sorted(client.rounds_seen)
                for round_index, k, results in client.top_k_answers:
                    snapshot = snapshots[round_index]
                    expected = [
                        [sorted(tags), jaccard, support]
                        for tags, jaccard, support in snapshot.top_k(k)
                    ]
                    assert results == expected
                for round_index, coefficients, reports in client.stats_answers:
                    snapshot = snapshots[round_index]
                    assert coefficients == len(snapshot)
                    assert reports == snapshot.reports_received
                total_answers += len(client.top_k_answers) + len(
                    client.stats_answers
                )
            # The retained rounds share their layers: together they hold
            # a small multiple of one table, not one table per round.
            distinct_layers = {
                id(layer): len(layer)
                for snapshot in snapshots.values()
                for layer in snapshot.layers
            }
            final_size = len(snapshots[daemon.current_round])
            assert len(snapshots) > 20 and final_size > 0
            assert sum(distinct_layers.values()) <= 3 * final_size

            # The soak actually soaked: clients answered while ingest ran.
            assert total_answers >= 4 * N_QUERY_CLIENTS

            # And the drained table is still the clean batch table.
            tracker = next(
                bolt
                for bolt in daemon.system.cluster.instances_of(streams.TRACKER)
                if isinstance(bolt, TrackerBolt)
            )
            assert tracker.snapshot(0).digest() == clean_digest

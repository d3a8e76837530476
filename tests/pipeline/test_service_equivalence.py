"""Batch ≡ served: the ingest API reproduces the recorded fixture exactly.

Service mode changes *how* documents arrive (a socket ingest API feeding the
single-writer :class:`~repro.streamsim.executors.AsyncServiceExecutor`) but
must never change *what* the system computes.  These tests feed the pinned
wire-equivalence workload through a live :class:`~repro.service.ServiceDaemon`
— real TCP sockets, JSON wire round-trip of every document, chunked blocking
ingest — and assert that every logical ``RunReport`` metric and every final
coefficient/support digest is **bit-identical** to the recorded batch fixture
(``fixtures/wire_equivalence.json``), in both calculator modes, including
the forced mid-stream repartition cells.

The recorded fixture is the same one ``test_wire_equivalence.py`` pins, so a
served run is transitively proven equal to every batch executor cell.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.operators import TrackerBolt, streams
from repro.pipeline import SystemConfig
from repro.service import ServiceClient, ServiceDaemon

_REPO_ROOT = Path(__file__).resolve().parents[2]
_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "wire_equivalence.json"

_spec = importlib.util.spec_from_file_location(
    "record_equivalence_fixture",
    _REPO_ROOT / "tools" / "record_equivalence_fixture.py",
)
_recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_recorder)

FIXTURE = json.loads(_FIXTURE_PATH.read_text(encoding="utf-8"))

#: Documents per ingest request — small enough that a served run crosses
#: many quiescent snapshot boundaries, large enough to stay fast.
INGEST_BATCH = 250

#: Served cell -> (config overrides, recorded batch cell it must equal).
#: Spans both calculator modes and the forced mid-stream repartition
#: handoff.
SERVED_CELLS = {
    "served-exact": (dict(calculator="exact"), "exact-incremental-inline"),
    "served-sketch": (dict(calculator="sketch"), "sketch-inline"),
    "served-exact-repartition": (
        dict(
            calculator="exact",
            repartition_policy="fixed",
            repartition_at=(700, 1400),
            repartition_handoff="migrate",
        ),
        "exact-incremental-inline-repartition",
    ),
    "served-sketch-repartition": (
        dict(
            calculator="sketch",
            repartition_policy="fixed",
            repartition_at=(700, 1400),
            repartition_handoff="migrate",
        ),
        "sketch-inline-repartition",
    ),
}


def serve_cell(documents, overrides) -> dict:
    """Run one grid cell through the socket ingest API, batch-record format.

    Every document round-trips through its JSON wire form (tags become
    sorted lists, timestamps go through ``repr`` float serialisation), so
    this also proves the wire encoding is lossless for equivalence.
    """
    config = SystemConfig(**{**_recorder.BASE_CONFIG, **overrides})
    rounds_seen = []
    with ServiceDaemon(config) as daemon:
        host, port = daemon.address
        with ServiceClient(host=host, port=port) as client:
            for start in range(0, len(documents), INGEST_BATCH):
                batch = documents[start : start + INGEST_BATCH]
                response = client.ingest(batch, block=True, timeout=60.0)
                assert response["accepted"] == len(batch)
                rounds_seen.append(client.stats()["round"])
            final = client.shutdown()
    report = daemon.final_report
    assert report is not None
    assert final["final"]["documents_processed"] == len(documents)
    # Rounds advance monotonically while batches flow in.
    assert rounds_seen == sorted(rounds_seen)
    tracker = next(
        bolt
        for bolt in daemon.system.cluster.instances_of(streams.TRACKER)
        if isinstance(bolt, TrackerBolt)
    )
    record = {field: getattr(report, field) for field in _recorder.PINNED_FIELDS}
    record["jaccard_coverage"] = report.jaccard_coverage
    record["jaccard_mean_error"] = report.jaccard_mean_error
    record["coefficients_sha256"] = _recorder.coefficient_digest(
        tracker.coefficients().items()
    )
    record["supports_sha256"] = _recorder.coefficient_digest(
        tracker.supports().items()
    )
    if report.migrations:
        record["migrations"] = [
            [m.epoch, m.documents_processed, m.migrated_triples, m.aborted]
            for m in report.migrations
        ]
    return record


@pytest.fixture(scope="module")
def documents():
    return _recorder.generate_documents()


@pytest.fixture(scope="module")
def served_cells(documents):
    return {
        name: serve_cell(documents, overrides)
        for name, (overrides, _batch_cell) in SERVED_CELLS.items()
    }


class TestServedEqualsBatch:
    @pytest.mark.parametrize("cell", sorted(SERVED_CELLS))
    def test_logical_metrics_bit_identical(self, served_cells, cell):
        recorded = FIXTURE["cells"][SERVED_CELLS[cell][1]]
        served = served_cells[cell]
        for field in _recorder.PINNED_FIELDS:
            assert served[field] == recorded[field], field
        assert served["jaccard_coverage"] == recorded["jaccard_coverage"]
        assert served["jaccard_mean_error"] == recorded["jaccard_mean_error"]
        assert served.get("migrations") == recorded.get("migrations")

    @pytest.mark.parametrize("cell", sorted(SERVED_CELLS))
    def test_coefficient_digests_bit_identical(self, served_cells, cell):
        """Every final coefficient and support, hashed at full precision."""
        recorded = FIXTURE["cells"][SERVED_CELLS[cell][1]]
        served = served_cells[cell]
        assert served["coefficients_sha256"] == recorded["coefficients_sha256"]
        assert served["supports_sha256"] == recorded["supports_sha256"]

    def test_grid_spans_modes_and_repartition(self):
        batch_cells = {batch for _, batch in SERVED_CELLS.values()}
        assert batch_cells <= set(FIXTURE["cells"])
        assert any("sketch" in name for name in SERVED_CELLS)
        assert any("repartition" in name for name in SERVED_CELLS)

    def test_wire_round_trip_is_lossless(self, documents):
        """Document -> wire JSON -> Document is exact (id, tags, time, text)."""
        from repro.service import protocol as wire

        for document in documents[:200]:
            encoded = json.loads(json.dumps(wire.document_to_wire(document)))
            decoded = wire.document_from_wire(encoded)
            assert decoded == document

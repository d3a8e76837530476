"""Wire-format equivalence: the slot-tuple substrate reproduces PR 3 exactly.

The substrate's wire API was redesigned around schema-declared slot tuples
and batched links (interned ``StreamSchema`` layouts, positional ``emit``,
per-edge ``EmissionBatch`` routing/delivery/IPC).  All of that is physical:
every logical metric and every reported coefficient must be **bit-identical**
to the dict-backed wire format.  The fixture
``fixtures/wire_equivalence.json`` was recorded at PR 3, immediately before
the redesign, over the full (executor × calculator mode) grid — these tests
replay the same grid and compare against it, including content digests of the Tracker's final coefficients and supports.

Regenerate the fixture (only when logical behaviour changes intentionally)
with ``PYTHONPATH=src python tools/record_equivalence_fixture.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[2]
_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "wire_equivalence.json"

_spec = importlib.util.spec_from_file_location(
    "record_equivalence_fixture",
    _REPO_ROOT / "tools" / "record_equivalence_fixture.py",
)
_recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_recorder)

FIXTURE = json.loads(_FIXTURE_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def documents():
    return _recorder.generate_documents()


@pytest.fixture(scope="module")
def captured_cells(documents):
    """One live capture per grid cell, in fixture-recording format."""
    return {
        name: _recorder.capture_cell(documents, overrides)
        for name, overrides in _recorder.CELLS.items()
    }


class TestGridPinnedAgainstPR3:
    @pytest.mark.parametrize("cell", sorted(_recorder.CELLS))
    def test_logical_metrics_bit_identical(self, captured_cells, cell):
        recorded = FIXTURE["cells"][cell]
        captured = captured_cells[cell]
        for field in _recorder.PINNED_FIELDS:
            assert captured[field] == recorded[field], field
        assert captured["jaccard_coverage"] == recorded["jaccard_coverage"]
        assert captured["jaccard_mean_error"] == recorded["jaccard_mean_error"]
        # The repartition cells additionally pin their migration records
        # (epoch, document position, migrated triples, aborted flag).
        assert captured.get("migrations") == recorded.get("migrations")

    @pytest.mark.parametrize("cell", sorted(_recorder.CELLS))
    def test_coefficient_digests_bit_identical(self, captured_cells, cell):
        """Every tracked coefficient and support, not just the aggregates."""
        recorded = FIXTURE["cells"][cell]
        captured = captured_cells[cell]
        assert captured["coefficients_sha256"] == recorded["coefficients_sha256"]
        assert captured["supports_sha256"] == recorded["supports_sha256"]

    def test_fixture_covers_the_full_grid(self):
        assert set(FIXTURE["cells"]) == set(_recorder.CELLS)
        # The grid spans both executors.
        assert any("process" in name for name in _recorder.CELLS)
        assert any("inline" in name for name in _recorder.CELLS)

    def test_repartition_cells_cover_the_migration_handoff(self):
        """The ``-repartition`` cells force two mid-stream swaps with the
        coordinated state-migration handoff, and record non-trivial,
        committed migrations."""
        repartition_cells = [
            name for name in _recorder.CELLS if name.endswith("-repartition")
        ]
        assert repartition_cells
        for name in repartition_cells:
            migrations = FIXTURE["cells"][name]["migrations"]
            assert len(migrations) == 2, name
            for _epoch, _documents, migrated, aborted in migrations:
                assert migrated > 0, name
                assert aborted is False, name


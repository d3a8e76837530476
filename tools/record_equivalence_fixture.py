#!/usr/bin/env python3
"""Record the logical-equivalence fixture pinned by the wire-API tests.

The substrate's wire format is an implementation detail: redesigning it (slot
tuples, batched links, executor IPC units) must never move a logical metric
or a reported coefficient.  This tool runs the full (executor × calculator
mode) grid over a deterministic workload and records, per cell, every
logical ``RunReport`` field plus content hashes of the Tracker's final
coefficients and supports.  ``tests/pipeline/test_wire_equivalence.py``
replays the same grid and asserts bit-identical results against the recorded
snapshot, so any wire-level change that perturbs observable behaviour fails
loudly.

The committed fixture was recorded at PR 3 (the dict-backed wire format),
immediately before the slot-tuple redesign.  Regenerate only when a PR
*intentionally* changes logical behaviour::

    PYTHONPATH=src python tools/record_equivalence_fixture.py

which rewrites ``tests/pipeline/fixtures/wire_equivalence.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

FIXTURE_PATH = _REPO_ROOT / "tests" / "pipeline" / "fixtures" / "wire_equivalence.json"

#: Workload of the pinned grid (shared with the replaying test).
WORKLOAD = dict(
    n_documents=2000,
    seed=11,
    tweets_per_second=50.0,
    n_topics=100,
    tags_per_topic=14,
    new_topic_rate=5.0,
    intra_topic_probability=0.9,
)

#: System configuration shared by every cell (mirrors the equivalence suites).
BASE_CONFIG = dict(
    algorithm="DS",
    k=4,
    n_partitioners=3,
    window_mode="count",
    window_size=500,
    bootstrap_documents=200,
    quality_check_interval=120,
    repartition_threshold=0.5,
    report_interval_seconds=30.0,
)

#: Overrides of the ``-repartition`` cells: two forced mid-stream swaps
#: with the coordinated state-migration handoff.  These cells pin the
#: handoff protocol itself — the quiesce, the Calculator drains and the
#: migration records all have to replay bit-identically.
_REPARTITION = dict(
    repartition_policy="fixed",
    repartition_at=(700, 1400),
    repartition_handoff="migrate",
)

#: The grid: cell name -> config overrides.  The ``exact-incremental-*``
#: names date from when exact mode had three report engines; the
#: ``exact-scratch-*`` / ``exact-delta-*`` cells (byte-for-byte copies of
#: these records) left with the other two engines, and the survivors keep
#: their recorded names and values.  The ``-repartition`` cells were
#: appended with the live-repartitioning PR.
CELLS = {
    "exact-incremental-inline": dict(calculator="exact"),
    "exact-incremental-process": dict(
        calculator="exact", executor="process", workers=2
    ),
    "sketch-inline": dict(calculator="sketch"),
    "sketch-process": dict(calculator="sketch", executor="process", workers=2),
    "exact-incremental-inline-repartition": dict(calculator="exact", **_REPARTITION),
    "exact-incremental-process-repartition": dict(
        calculator="exact", executor="process", workers=2, **_REPARTITION,
    ),
    "sketch-inline-repartition": dict(calculator="sketch", **_REPARTITION),
}

#: RunReport fields pinned bit-identically per cell.
PINNED_FIELDS = (
    "documents_processed",
    "tagged_documents",
    "communication_avg",
    "calculator_loads",
    "load_gini",
    "load_max_share",
    "n_repartitions",
    "repartition_reasons",
    "single_addition_requests",
    "single_additions_applied",
    "coefficients_reported",
    "duplicate_reports",
    "notification_messages",
    "batch_amortization",
)


def generate_documents():
    """The deterministic workload every cell replays."""
    from repro.workloads import TwitterLikeGenerator, WorkloadConfig

    spec = dict(WORKLOAD)
    n_documents = spec.pop("n_documents")
    return TwitterLikeGenerator(WorkloadConfig(**spec)).generate(n_documents)


def coefficient_digest(pairs) -> str:
    """Content hash of ``(tagset, float)`` pairs, canonically ordered.

    ``repr`` of the float keeps full precision, so two runs only share a
    digest when every coefficient is bit-identical.
    """
    lines = sorted(
        ",".join(sorted(tagset)) + "=" + repr(value) for tagset, value in pairs
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def capture_cell(documents, overrides) -> dict:
    """Run one grid cell and flatten it to a JSON-stable record."""
    from repro.operators import TrackerBolt, streams
    from repro.pipeline import SystemConfig, TagCorrelationSystem

    config = SystemConfig(**{**BASE_CONFIG, **overrides})
    system = TagCorrelationSystem(config)
    report = system.run(documents)
    tracker = next(
        bolt
        for bolt in system.cluster.instances_of(streams.TRACKER)
        if isinstance(bolt, TrackerBolt)
    )
    record = {field: getattr(report, field) for field in PINNED_FIELDS}
    record["jaccard_coverage"] = report.jaccard_coverage
    record["jaccard_mean_error"] = report.jaccard_mean_error
    record["coefficients_sha256"] = coefficient_digest(
        tracker.coefficients().items()
    )
    record["supports_sha256"] = coefficient_digest(tracker.supports().items())
    if report.migrations:
        # Only the repartition cells migrate; omitting the key elsewhere
        # keeps the original records byte-identical to the PR 3 fixture.
        record["migrations"] = [
            [m.epoch, m.documents_processed, m.migrated_triples, m.aborted]
            for m in report.migrations
        ]
    return record


def capture() -> dict:
    documents = generate_documents()
    return {
        "description": (
            "Logical metrics + coefficient digests of the executor x mode x "
            "engine grid; recorded at the dict-backed wire format (PR 3)."
        ),
        "workload": WORKLOAD,
        "base_config": BASE_CONFIG,
        "cells": {
            name: capture_cell(documents, overrides)
            for name, overrides in CELLS.items()
        },
    }


def main() -> int:
    fixture = capture()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps(fixture, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {FIXTURE_PATH}")
    for name, cell in fixture["cells"].items():
        print(f"  {name}: {cell['coefficients_reported']} coefficients, "
              f"digest {cell['coefficients_sha256'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

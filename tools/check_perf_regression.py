#!/usr/bin/env python3
"""Throughput regression gate: diff a fresh BENCH_throughput.json against
the committed snapshot and fail on large docs/sec regressions.

Usage::

    python tools/check_perf_regression.py BASELINE.json CANDIDATE.json \
        [--tolerance 0.2]

Cells are matched by ``(workload, scenario, repartition_handoff, executor,
requested_workers)``; only the intersection of the two files is compared,
so a CI smoke run (a subset of the full matrix) checks cleanly against a
full committed snapshot.  Snapshots recorded before the scenario matrix
default to the ``legacy`` scenario and ``none`` handoff keys.

Enforcement is **host-aware**: docs/sec is only comparable between runs of
the same machine class, so the gate is binding only when the two files'
``host`` blocks agree on platform and CPU count (e.g. a snapshot
regenerated on the machine that produced the committed one).  On a
different host — the usual CI case — every comparison is reported but
never fails the job; the numbers still land in the job log and the
uploaded artifact for eyeballing trends on a stable runner pool.

Within a matching host, ``inline`` cells are binding and ``process`` cells
are report-only: the sharded executor's figures on few-core machines are
IPC-bound and noisier than the tolerance (see docs/PERFORMANCE.md).

Besides overall docs/sec, the gate checks the **per-phase breakdown**
(schema 2's ``phase_seconds``): the ``stream`` phase of binding cells is
compared as stream-phase docs/sec (documents / stream seconds) under the
same tolerance, so a regression in the substrate hot path cannot hide
behind an improvement in the reporting phase (or vice versa).  Cells
carrying the ``report_rounds`` attribution additionally gate the
**report-round share** of the stream phase (in-stream report seconds /
stream seconds; the share may grow by at most ``tolerance`` *relative to
the baseline share*, with a 5-share-point noise floor): a creeping
in-stream report cost fails even while total stream docs/sec still
squeaks past.  Cells that record a ``migration_stall`` phase (runs with
live-repartitioning handoffs) gate the **migration-stall share** the same
way, and the stall is subtracted from the stream seconds first so stream
docs/sec stays a pure hot-path number.  The phase gates only *bind* when the baseline phase
lasted at least ``MIN_BINDING_PHASE_SECONDS`` (0.5 s): shorter phases —
the small workload's ~0.13 s stream phase — swing beyond any usable
tolerance between a best-of-N snapshot and a single smoke run on a
shared host, so they are reported without failing the job.  Cells
missing ``phase_seconds`` or ``report_rounds`` on either side (older
snapshots) skip the respective check.

The gate also understands ``BENCH_service_latency.json`` snapshots
(``generated_by: benchmarks/perf/service_latency.py``): service cells are
matched by ``(cell, ingest_batch, queue_limit, query_clients)`` and gate
served docs/sec downward like an inline cell, plus the ingest-ack and
under-load query p95 latencies *upward* (each may grow by at most
``tolerance`` relative to the baseline, with a 2 ms noise floor) — again
binding only on matching hosts.

And it understands ``BENCH_spill.json`` snapshots (``generated_by:
benchmarks/perf/spill.py``, the out-of-core store bench): spill cells
are matched by ``(workload, counter_store, tracker_store)`` and gate
docs/sec *downward* like a throughput cell, while ``rss_total_mb``,
``peak_resident_counter_entries`` and (on cells that record it)
``peak_resident_coefficient_entries`` bind *upward* — each may grow by
at most ``tolerance`` relative to the baseline, with a 64 MB /
2048-entry noise floor — because the bench's whole point is that those
figures stay flat.  Snapshots recorded before the tracker-contrast
round default to the ``dict`` tracker key.  RSS comparisons, like
docs/sec, only bind on matching hosts.

Both files must be the same kind of snapshot.

Exit codes: 0 = no binding regression, 1 = binding regression found,
2 = usage or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _usage_error(message: str) -> SystemExit:
    """Exit code 2 (usage/schema), distinct from 1 (binding regression)."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _load(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise _usage_error(f"cannot read {path}: {exc}")
    if "runs" not in data or "host" not in data:
        raise _usage_error(f"{path} is not a BENCH_throughput.json "
                           "(missing 'runs'/'host')")
    return data


def _cells(data: dict) -> dict[tuple, dict]:
    cells = {}
    for run in data["runs"]:
        key = (
            run["workload"],
            # Scenario + handoff key the workload-shape cells: a trending
            # cell must never be compared against a legacy cell of the
            # same name, and a live-repartition cell (which pays migration
            # stalls) must never be compared against its plain twin.
            # Snapshots recorded before the scenario matrix carry neither
            # field and default to the legacy/no-handoff key.
            run.get("scenario", "legacy"),
            run.get("repartition_handoff", "none"),
            run["executor"],
            run.get("requested_workers", 0),
        )
        cells[key] = run
    return cells


def hosts_comparable(baseline: dict, candidate: dict) -> bool:
    """Same platform string and CPU count — the docs/sec-comparability bar."""
    base_host, cand_host = baseline["host"], candidate["host"]
    return (
        base_host.get("platform") == cand_host.get("platform")
        and base_host.get("cpu_count") == cand_host.get("cpu_count")
    )


#: Phase gates only bind when the baseline phase lasted at least this long:
#: on a shared host, a sub-half-second phase swings well beyond any usable
#: tolerance between a best-of-N snapshot and a single smoke run (the small
#: workload's ~0.13 s stream phase reads ±30% across minutes), so shorter
#: phases are reported without ever failing the job.
MIN_BINDING_PHASE_SECONDS = 0.5


def _stream_seconds(cell: dict) -> float | None:
    """Net stream seconds: the stream phase minus migration stall time.

    Repartition handoffs stall the stream while Calculator state migrates;
    that time is gated separately (as the stall share below), so it is
    subtracted here to keep stream docs/sec a pure substrate-hot-path
    number.  Cells recorded before the live-repartitioning PR have no
    ``migration_stall`` key and default to zero stall.
    """
    phases = cell.get("phase_seconds")
    if not phases:
        return None
    stream = phases.get("stream")
    if stream is None:
        return None
    return stream - phases.get("migration_stall", 0.0)


def _stream_docs_per_second(cell: dict) -> float | None:
    """Stream-phase throughput of one cell; None when unavailable."""
    stream = _stream_seconds(cell)
    documents = cell.get("documents")
    if not stream or not documents:
        return None
    return documents / stream


def _report_share(cell: dict) -> float | None:
    """In-stream report rounds' share of the stream phase; None when the
    cell lacks the ``report_rounds`` attribution or a stream time."""
    rounds = cell.get("report_rounds")
    if not rounds:
        return None
    report_seconds = rounds.get("report_seconds")
    stream = _stream_seconds(cell)
    if report_seconds is None or not stream:
        return None
    return report_seconds / stream


def _stall_share(cell: dict) -> float | None:
    """Migration stall time as a share of the (net) stream phase.

    ``None`` when the cell predates the stall attribution — distinguishing
    "recorded as zero" from "not recorded", so the gate only compares cells
    that actually carry the phase on both sides.
    """
    phases = cell.get("phase_seconds")
    if not phases or "migration_stall" not in phases:
        return None
    stream = _stream_seconds(cell)
    if not stream:
        return None
    return phases["migration_stall"] / stream


def compare(baseline: dict, candidate: dict, tolerance: float) -> int:
    """Print the per-cell diff; return the number of binding regressions."""
    binding = hosts_comparable(baseline, candidate)
    if not binding:
        print("note: hosts differ "
              f"({baseline['host'].get('platform')}/{baseline['host'].get('cpu_count')}cpu "
              f"vs {candidate['host'].get('platform')}/{candidate['host'].get('cpu_count')}cpu) "
              "- reporting only, nothing can fail")
    base_cells = _cells(baseline)
    cand_cells = _cells(candidate)
    shared = sorted(set(base_cells) & set(cand_cells))
    if not shared:
        raise _usage_error("the two files share no benchmark cells")
    regressions = 0
    for key in shared:
        workload, scenario, handoff, executor, workers = key
        old = base_cells[key]["docs_per_second"]
        new = cand_cells[key]["docs_per_second"]
        ratio = new / old if old else float("inf")
        enforced = binding and executor == "inline"
        regressed = ratio < 1.0 - tolerance
        status = "ok"
        if regressed:
            status = "REGRESSION" if enforced else "regression (report-only)"
            if enforced:
                regressions += 1
        label = executor if executor == "inline" else f"{executor}({workers}w)"
        if handoff != "none":
            label = f"{label}+{handoff}"
        if scenario != "legacy" and scenario != workload:
            label = f"{label} [{scenario}]"
        print(f"[perf-diff] {workload:>6} / {label:<24} "
              f"{old:>9.1f} -> {new:>9.1f} docs/s  ({ratio:5.2f}x)  {status}")
        # Per-phase breakdown: the stream phase binds like the overall
        # rate, but only when the baseline phase clears the noise floor.
        base_seconds = _stream_seconds(base_cells[key])
        phase_binding = (
            enforced
            and base_seconds is not None
            and base_seconds >= MIN_BINDING_PHASE_SECONDS
        )
        old_stream = _stream_docs_per_second(base_cells[key])
        new_stream = _stream_docs_per_second(cand_cells[key])
        if old_stream is not None and new_stream is not None:
            stream_ratio = new_stream / old_stream if old_stream else float("inf")
            stream_regressed = stream_ratio < 1.0 - tolerance
            stream_status = "ok"
            if stream_regressed:
                if phase_binding:
                    stream_status = "REGRESSION"
                    regressions += 1
                elif enforced:
                    stream_status = "regression (below noise floor)"
                else:
                    stream_status = "regression (report-only)"
            print(f"[perf-diff] {workload:>6} / {label:<24} "
                  f"{old_stream:>9.1f} -> {new_stream:>9.1f} docs/s "
                  f"({stream_ratio:5.2f}x)  [stream phase]  {stream_status}")
        # Report-round share of the stream phase: a creeping in-stream
        # report cost must not hide inside an otherwise-passing stream
        # phase.  The share is a ratio of two same-run wall-clocks, so it
        # is steadier than docs/sec — but still only binding on a matching
        # host.  The tolerance is read as absolute share points.
        old_share = _report_share(base_cells[key])
        new_share = _report_share(cand_cells[key])
        if old_share is not None and new_share is not None:
            # Relative tolerance with a 5-share-point noise floor: a small
            # baseline share (say 10%) must not be allowed to triple just
            # because the absolute growth stays under the tolerance.
            share_regressed = (
                new_share - old_share > max(0.05, tolerance * old_share)
            )
            share_status = "ok"
            if share_regressed:
                if phase_binding:
                    share_status = "REGRESSION"
                    regressions += 1
                elif enforced:
                    share_status = "regression (below noise floor)"
                else:
                    share_status = "regression (report-only)"
            print(f"[perf-diff] {workload:>6} / {label:<24} "
                  f"{old_share:>8.1%} -> {new_share:>8.1%} of stream "
                  f"[report-round share]  {share_status}")
        # Migration stall share: repartition handoffs are allowed to stall
        # the stream, but the stall must not creep — same relative
        # tolerance and noise floor as the report-round share.
        old_stall = _stall_share(base_cells[key])
        new_stall = _stall_share(cand_cells[key])
        if old_stall is not None and new_stall is not None:
            stall_regressed = (
                new_stall - old_stall > max(0.05, tolerance * old_stall)
            )
            stall_status = "ok"
            if stall_regressed:
                if phase_binding:
                    stall_status = "REGRESSION"
                    regressions += 1
                elif enforced:
                    stall_status = "regression (below noise floor)"
                else:
                    stall_status = "regression (report-only)"
            print(f"[perf-diff] {workload:>6} / {label:<24} "
                  f"{old_stall:>8.1%} -> {new_stall:>8.1%} of stream "
                  f"[migration-stall share]  {stall_status}")
    return regressions


#: Latency growth below this many milliseconds never fails the job: sub-ms
#: p95 swings on a shared host are scheduler noise, not regressions.
LATENCY_NOISE_FLOOR_MS = 2.0

#: ``generated_by`` marker of service-latency snapshots.
SERVICE_GENERATOR = "benchmarks/perf/service_latency.py"


def _service_cells(data: dict) -> dict[tuple, dict]:
    cells = {}
    for run in data["runs"]:
        key = (
            run["cell"],
            run.get("ingest_batch", 0),
            run.get("queue_limit", 0),
            run.get("query_clients", 0),
        )
        cells[key] = run
    return cells


def compare_service(baseline: dict, candidate: dict, tolerance: float) -> int:
    """Service-latency diff: throughput binds down, p95 latencies bind up."""
    binding = hosts_comparable(baseline, candidate)
    if not binding:
        print("note: hosts differ "
              f"({baseline['host'].get('platform')}/{baseline['host'].get('cpu_count')}cpu "
              f"vs {candidate['host'].get('platform')}/{candidate['host'].get('cpu_count')}cpu) "
              "- reporting only, nothing can fail")
    base_cells = _service_cells(baseline)
    cand_cells = _service_cells(candidate)
    shared = sorted(set(base_cells) & set(cand_cells))
    if not shared:
        raise _usage_error("the two files share no benchmark cells")
    regressions = 0
    for key in shared:
        cell = key[0]
        old_cell, new_cell = base_cells[key], cand_cells[key]
        old = old_cell["docs_per_second"]
        new = new_cell["docs_per_second"]
        ratio = new / old if old else float("inf")
        regressed = ratio < 1.0 - tolerance
        status = "ok"
        if regressed:
            status = "REGRESSION" if binding else "regression (report-only)"
            if binding:
                regressions += 1
        print(f"[perf-diff] {cell:<20} {old:>9.1f} -> {new:>9.1f} docs/s  "
              f"({ratio:5.2f}x)  {status}")
        for metric in ("ingest_ack", "query_under_load"):
            old_p95 = (old_cell.get(metric) or {}).get("p95_ms")
            new_p95 = (new_cell.get(metric) or {}).get("p95_ms")
            if old_p95 is None or new_p95 is None:
                continue
            grew = (
                new_p95 - old_p95
                > max(LATENCY_NOISE_FLOOR_MS, tolerance * old_p95)
            )
            metric_status = "ok"
            if grew:
                metric_status = (
                    "REGRESSION" if binding else "regression (report-only)"
                )
                if binding:
                    regressions += 1
            print(f"[perf-diff] {cell:<20} {old_p95:>9.3f} -> "
                  f"{new_p95:>9.3f} ms p95  [{metric}]  {metric_status}")
    return regressions


#: ``generated_by`` marker of spill-store snapshots.
SPILL_GENERATOR = "benchmarks/perf/spill.py"

#: Upward-binding spill metrics below these absolute growths never fail
#: the job: allocator jitter moves whole-process RSS by tens of MB between
#: runs, and the resident-entries figure wobbles by the hot tail's fill
#: level at the moment the last spill fired.
RSS_NOISE_FLOOR_MB = 64.0
ENTRIES_NOISE_FLOOR = 2048


def _snapshot_kind(data: dict) -> str:
    generator = data.get("generated_by")
    if generator == SERVICE_GENERATOR:
        return "service"
    if generator == SPILL_GENERATOR:
        return "spill"
    return "throughput"


def _spill_cells(data: dict) -> dict[tuple, dict]:
    return {
        (
            run["workload"],
            run.get("counter_store", "dict"),
            # Snapshots recorded before the tracker-contrast round carry
            # no tracker_store field and default to the dict tracker.
            run.get("tracker_store", "dict"),
        ): run
        for run in data["runs"]
    }


def compare_spill(baseline: dict, candidate: dict, tolerance: float) -> int:
    """Spill-bench diff: docs/sec binds down, RSS and resident entries up."""
    binding = hosts_comparable(baseline, candidate)
    if not binding:
        print("note: hosts differ "
              f"({baseline['host'].get('platform')}/{baseline['host'].get('cpu_count')}cpu "
              f"vs {candidate['host'].get('platform')}/{candidate['host'].get('cpu_count')}cpu) "
              "- reporting only, nothing can fail")
    base_cells = _spill_cells(baseline)
    cand_cells = _spill_cells(candidate)
    shared = sorted(set(base_cells) & set(cand_cells))
    if not shared:
        raise _usage_error("the two files share no benchmark cells")
    regressions = 0
    for key in shared:
        workload, store, tracker_store = key
        label = f"{workload}/{store}"
        if tracker_store != "dict":
            label = f"{label}+tracker={tracker_store}"
        old_cell, new_cell = base_cells[key], cand_cells[key]
        old = old_cell["docs_per_second"]
        new = new_cell["docs_per_second"]
        ratio = new / old if old else float("inf")
        regressed = ratio < 1.0 - tolerance
        status = "ok"
        if regressed:
            status = "REGRESSION" if binding else "regression (report-only)"
            if binding:
                regressions += 1
        print(f"[perf-diff] {label:<30} {old:>9.1f} -> {new:>9.1f} docs/s  "
              f"({ratio:5.2f}x)  {status}")
        # The memory figures regress by *growing*.  Relative tolerance with
        # absolute noise floors: whole-process RSS wobbles tens of MB run
        # to run, and the resident-entries peak by the hot tail's fill
        # level at the last spill.
        upward = (
            ("rss_total_mb", RSS_NOISE_FLOOR_MB, "MB rss"),
            ("peak_resident_counter_entries", ENTRIES_NOISE_FLOOR,
             "resident entries"),
            ("peak_resident_coefficient_entries", ENTRIES_NOISE_FLOOR,
             "resident coefficients"),
        )
        for metric, floor, unit in upward:
            old_value = old_cell.get(metric)
            new_value = new_cell.get(metric)
            if old_value is None or new_value is None:
                continue
            grew = new_value - old_value > max(floor, tolerance * old_value)
            metric_status = "ok"
            if grew:
                metric_status = (
                    "REGRESSION" if binding else "regression (report-only)"
                )
                if binding:
                    regressions += 1
            print(f"[perf-diff] {label:<30} {old_value:>9.1f} -> "
                  f"{new_value:>9.1f} {unit}  {metric_status}")
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a fresh throughput snapshot regresses the "
                    "committed one beyond the tolerance (same-host runs only)."
    )
    parser.add_argument("baseline", type=Path,
                        help="committed BENCH_throughput.json")
    parser.add_argument("candidate", type=Path,
                        help="freshly generated BENCH_throughput.json")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional drop before failing "
                             "(default 0.2 = 20%%)")
    args = parser.parse_args(argv)
    if not 0.0 < args.tolerance < 1.0:
        parser.error("--tolerance must be in (0, 1)")

    baseline = _load(args.baseline)
    candidate = _load(args.candidate)
    base_kind = _snapshot_kind(baseline)
    cand_kind = _snapshot_kind(candidate)
    if base_kind != cand_kind:
        raise _usage_error(
            f"cannot diff a {base_kind} snapshot against a {cand_kind} one"
        )
    comparator = {
        "service": compare_service,
        "spill": compare_spill,
        "throughput": compare,
    }[base_kind]
    regressions = comparator(baseline, candidate, args.tolerance)
    if regressions:
        print(f"[perf-diff] {regressions} binding regression(s) beyond "
              f"{args.tolerance:.0%}")
        return 1
    print("[perf-diff] no binding regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())

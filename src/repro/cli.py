"""Command-line interface of the reproduction.

Provides the handful of workflows a user needs without writing Python:

* ``repro record`` — write a synthetic workload (``--scenario legacy`` or
  ``trending``) as a replayable stream file (repro-trace JSONL),
* ``repro run`` — run the distributed tag-correlation system over a stream
  file (``--trace``) or a freshly generated stream and print the run report.
  ``--subset-cache`` sizes the Calculators' subset-enumeration LRU;
  ``--no-baseline`` skips the centralized ground truth (measurement runs
  that need no error metrics); ``--executor process`` shards the Calculator layer across ``--workers``
  multiprocessing workers (identical logical metrics, see
  docs/PERFORMANCE.md; not with ``--repartition-handoff migrate``, whose
  handoff needs the Calculators in the driver); ``--counter-store spill``
  keeps the window counters out of core in sorted on-disk run files
  merged at report time
  (bit-identical coefficients, flat RSS; ``--spill-dir`` /
  ``--spill-threshold`` tune it, see docs/ARCHITECTURE.md "Counter
  store"); ``--tracker-store spill`` spills the Tracker's dedup
  coefficient table the same way,
* ``repro compare`` — run several partitioning algorithms over the same
  trace and print the evaluation metrics side by side,
* ``repro connectivity`` — the Figure-7 connectivity analysis of a trace,
* ``repro theory`` — print the Section-5 analytic tables,
* ``repro serve`` — start the always-on service daemon: a long-lived
  process owning the cluster, ingesting document batches over a TCP or
  Unix socket and answering concurrent queries between rounds (see
  docs/ARCHITECTURE.md "Service mode"),
* ``repro client`` — talk to a running daemon: ``ping``, ``ingest`` a
  stream file, ``top-k`` / ``coefficient`` / ``tracked`` / ``stats``
  queries, ``track`` standing tagsets, and graceful ``shutdown``.

Invoke as ``python -m repro.cli <command> ...`` (or wire the ``repro``
entry point in your environment); ``--help`` on the top level and on every
subcommand documents the options, and the top-level epilog carries
copy-paste examples.  An invalid combination of options exits non-zero
with one line on stderr.

Examples::

    python -m repro.cli run --documents 8000 --k 8 --algorithm DS
    python -m repro.cli run --documents 8000 --executor process --workers 4
    python -m repro.cli run --documents 8000 --scenario trending
    python -m repro.cli run --documents 50000 --counter-store spill --no-baseline
    python -m repro.cli record --documents 6000 --scenario trending --output trending.trace.jsonl
    python -m repro.cli run --trace trending.trace.jsonl
    python -m repro.cli compare --documents 6000 --algorithms DS,SCL
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis.connectivity import connectivity_by_window_size
from .core.documents import Document
from .core.jaccard import DEFAULT_SUBSET_CACHE_SIZE
from .operators.controller import REPARTITION_POLICIES
from .pipeline import RunReport, SystemConfig, TagCorrelationSystem
from .store import COUNTER_STORES, DEFAULT_SPILL_THRESHOLD, TRACKER_STORES
from .streamsim import EXECUTOR_NAMES
from .theory import WindowModel, communication_sweep, paper_np_table
from .workloads import (
    SCENARIO_NAMES,
    WorkloadConfig,
    load_trace,
    make_generator,
    scenario_preset,
    write_trace,
)


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--documents", type=int, default=8000,
                        help="number of documents to generate (default 8000)")
    parser.add_argument("--tps", type=float, default=50.0,
                        help="tweets per second of the simulated stream")
    parser.add_argument("--topics", type=int, default=200,
                        help="number of topics in the synthetic workload")
    parser.add_argument("--tags-per-topic", type=int, default=18)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scenario", choices=SCENARIO_NAMES, default="legacy",
                        help="workload scenario preset: legacy (the original "
                             "churny synthetic point) or trending (persistent "
                             "topics with rise/plateau/decay trends); "
                             "see docs/ARCHITECTURE.md \"Workload "
                             "scenarios\"")


def _add_system_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", default="DS",
                        help="partitioning algorithm (DS, SCC, SCL, SCI, ...)")
    parser.add_argument("--k", type=int, default=10, help="number of Calculators")
    parser.add_argument("--partitioners", type=int, default=10,
                        help="number of Partitioner instances")
    parser.add_argument("--threshold", "--repartition-threshold",
                        dest="threshold", type=float, default=0.5,
                        help="repartition threshold thr")
    parser.add_argument("--repartition-policy", choices=REPARTITION_POLICIES,
                        default="threshold",
                        help="when the Disseminator requests a full swap: "
                             "threshold (the paper's either-or quality "
                             "rule, the default), fixed (swap at the "
                             "--repartition-at document counts) or never "
                             "(Single Additions only)")
    parser.add_argument("--repartition-at", default="",
                        help="comma-separated document counts at which the "
                             "fixed policy forces a swap, e.g. 2000,5000")
    parser.add_argument("--repartition-handoff", choices=("none", "migrate"),
                        default="none",
                        help="Calculator state on a mid-stream swap: none "
                             "(install immediately, keep counters) or "
                             "migrate (coordinated quiesce -> drain "
                             "counters to the Tracker -> install; not with "
                             "--executor process)")
    parser.add_argument("--window", type=int, default=1500,
                        help="partitioning window size in documents")
    parser.add_argument("--bootstrap", type=int, default=600,
                        help="documents observed before the first partitioning")
    parser.add_argument("--subset-cache", type=int, default=DEFAULT_SUBSET_CACHE_SIZE,
                        help="capacity of each Calculator's LRU cache "
                             "of tagset subset enumerations (default "
                             f"{DEFAULT_SUBSET_CACHE_SIZE})")
    parser.add_argument("--counter-store", choices=COUNTER_STORES,
                        default="dict",
                        help="backing table of the Calculators: dict "
                             "(all-RAM, the default) or spill (freeze cold "
                             "counter segments to sorted on-disk run files "
                             "and read them back once per report fold — "
                             "bounded resident memory between reports, "
                             "identical coefficients; see "
                             "docs/ARCHITECTURE.md \"Counter store\")")
    parser.add_argument("--spill-dir", default=None,
                        help="root directory for spilled run files "
                             "(default: the system temp dir); each "
                             "Calculator gets a private subdirectory")
    parser.add_argument("--spill-threshold", type=int,
                        default=DEFAULT_SPILL_THRESHOLD,
                        help="distinct hot keys per Calculator at which a "
                             "counter segment is frozen to disk (default "
                             f"{DEFAULT_SPILL_THRESHOLD})")
    parser.add_argument("--tracker-store", choices=TRACKER_STORES,
                        default="dict",
                        help="backing table of the Tracker's dedup "
                             "coefficients: dict (all-RAM, the default) or "
                             "spill (freeze cold coefficient segments to "
                             "sorted run files and answer queries from a "
                             "merged view — bounded resident memory, "
                             "identical coefficients; see "
                             "docs/ARCHITECTURE.md \"Counter store\")")
    parser.add_argument("--tracker-spill-threshold", type=int, default=None,
                        help="resident coefficient entries at which the "
                             "Tracker's hot segment is frozen to disk "
                             "(default: the --spill-threshold value)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the centralized exact baseline entirely "
                             "(no ground truth, no error metrics; the "
                             "baseline bolt is never constructed)")
    parser.add_argument("--executor", choices=EXECUTOR_NAMES, default="inline",
                        help="execution engine: inline (single-process "
                             "depth-first loop) or process (Calculator "
                             "layer sharded over worker processes)")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes of the process executor "
                             "(0 = one per CPU core, capped at 4)")


def _workload_config_from_args(args: argparse.Namespace) -> WorkloadConfig:
    # Explicit CLI knobs override the scenario preset's values; the
    # shape-critical preset fields (topic churn, intra-topic mix, ...)
    # have no CLI flag and always come from the preset.
    return scenario_preset(
        getattr(args, "scenario", "legacy"),
        tweets_per_second=args.tps,
        n_topics=args.topics,
        tags_per_topic=args.tags_per_topic,
        seed=args.seed,
    )


def _workload_from_args(args: argparse.Namespace) -> list[Document]:
    config = _workload_config_from_args(args)
    return make_generator(config).generate(args.documents)


def _repartition_points(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise SystemExit(
            f"--repartition-at expects comma-separated integers, got {raw!r}"
        ) from None


def _system_config_from_args(args: argparse.Namespace, algorithm: str | None = None) -> SystemConfig:
    config = SystemConfig(
        algorithm=algorithm or args.algorithm,
        k=args.k,
        n_partitioners=args.partitioners,
        repartition_threshold=args.threshold,
        repartition_policy=getattr(args, "repartition_policy", "threshold"),
        repartition_at=_repartition_points(getattr(args, "repartition_at", "")),
        repartition_handoff=getattr(args, "repartition_handoff", "none"),
        window_mode="count",
        window_size=args.window,
        bootstrap_documents=args.bootstrap,
        quality_check_interval=max(50, args.window // 6),
        report_interval_seconds=60.0,
        subset_cache_size=getattr(args, "subset_cache", DEFAULT_SUBSET_CACHE_SIZE),
        counter_store=getattr(args, "counter_store", "dict"),
        spill_dir=getattr(args, "spill_dir", None),
        spill_threshold=getattr(args, "spill_threshold", DEFAULT_SPILL_THRESHOLD),
        tracker_store=getattr(args, "tracker_store", "dict"),
        tracker_spill_threshold=getattr(args, "tracker_spill_threshold", None),
        include_centralized_baseline=not getattr(args, "no_baseline", False),
        executor=getattr(args, "executor", "inline"),
        workers=getattr(args, "workers", 0),
    )
    try:
        config.validate()
    except ValueError as exc:
        raise SystemExit(f"invalid configuration: {exc}") from None
    return config


def _load_or_generate(args: argparse.Namespace) -> tuple[list[Document], str | None]:
    """The document stream plus its scenario provenance (None = unknown).

    ``--trace`` replays a stream file (scenario read from its header, if
    it has one), otherwise the stream is generated live from the workload
    arguments.
    """
    if args.trace:
        header, documents = load_trace(args.trace)
        scenario = header.get("scenario") if header else None
        return documents, scenario if scenario in SCENARIO_NAMES else None
    return _workload_from_args(args), getattr(args, "scenario", "legacy")


def _print_scenario(scenario: str | None) -> None:
    if scenario is not None:
        print(f"workload scenario         : {scenario}")


def _print_report(report: RunReport, scenario: str | None = None) -> None:
    config = report.config
    print(f"algorithm                 : {report.algorithm}")
    _print_scenario(scenario)
    if report.subset_cache_stats is not None:
        stats = report.subset_cache_stats
        lookups = stats["hits"] + stats["misses"]
        hit_rate = stats["hits"] / lookups if lookups else 0.0
        print(f"subset cache              : {hit_rate:.1%} hit rate "
              f"({stats['hits']} hits, {stats['misses']} misses, "
              f"{stats['evictions']} evictions)")
    if config.counter_store != "dict":
        print(f"counter store             : {config.counter_store}")
        if report.store_stats is not None:
            stats = report.store_stats
            lookups = stats["block_cache_hits"] + stats["block_cache_misses"]
            hit_rate = stats["block_cache_hits"] / lookups if lookups else 0.0
            print(f"spill store               : "
                  f"{int(stats['runs_written'])} runs written "
                  f"({stats['run_bytes_written'] / 1e6:.1f} MB), "
                  f"{int(stats['window_reads'])} window reads "
                  f"({stats['window_read_seconds']:.2f} s, largest "
                  f"{int(stats['window_entries_max'])} entries)")
            if lookups:  # point lookups only; folds read runs uncached
                print(f"block cache               : {hit_rate:.1%} hit rate "
                      f"({int(stats['block_cache_hits'])} hits, "
                      f"{int(stats['block_cache_misses'])} misses, "
                      f"{int(stats['block_cache_evictions'])} evictions)")
    if config.tracker_store != "dict":
        print(f"tracker store             : {config.tracker_store}")
        if report.tracker_store_stats is not None:
            stats = report.tracker_store_stats
            lookups = stats["block_cache_hits"] + stats["block_cache_misses"]
            hit_rate = stats["block_cache_hits"] / lookups if lookups else 0.0
            print(f"tracker spill             : "
                  f"{int(stats['runs_written'])} runs written "
                  f"({stats['run_bytes_written'] / 1e6:.1f} MB), "
                  f"{int(stats['merges'])} merges "
                  f"({stats['merge_seconds']:.2f} s), "
                  f"{int(stats['membership_probes'])} keys resolved "
                  f"against runs")
            print(f"tracker residency         : "
                  f"{int(stats['hot_entries'])} hot entries, "
                  f"{int(stats['runs_live'])} live runs, "
                  f"{hit_rate:.1%} block-cache hit rate")
    print(f"execution engine          : {config.executor}"
          + (f" ({report.executor_workers} workers)"
             if config.executor == "process" else ""))
    if config.executor == "process":
        timings = report.timings
        print(f"remote layer              : workers busy "
              f"{timings['workers_busy']:.2f} s (summed), end-of-stream tail "
              f"{timings['remote_tail']:.2f} s of a "
              f"{timings['stream']:.2f} s stream phase")
    print(f"documents processed       : {report.documents_processed}")
    print(f"tagged documents          : {report.tagged_documents}")
    print(f"average communication     : {report.communication_avg:.3f}")
    print(f"notification messages     : {report.notification_messages}")
    print(f"batch amortization        : {report.batch_amortization:.2f}x")
    print(f"load Gini coefficient     : {report.load_gini:.3f}")
    print(f"max Calculator load share : {report.load_max_share:.3f}")
    print(f"repartitions              : {report.n_repartitions} {report.repartition_reasons}")
    if report.migration_stats is not None:
        stats = report.migration_stats
        print(f"state migrations          : {int(stats['handoffs'])} handoffs "
              f"({int(stats['aborted'])} aborted), "
              f"{int(stats['migrated_triples'])} triples migrated, "
              f"{stats['stall_seconds']*1000:.1f} ms stalled")
    for failure in report.migration_failures:
        print(f"migration failure         : {failure.splitlines()[0]}")
    print(f"single additions          : {report.single_additions_applied}")
    print(f"coefficients reported     : {report.coefficients_reported}")
    if report.jaccard is not None:
        print(f"jaccard coverage          : {report.jaccard_coverage:.3f}")
        print(f"jaccard mean error        : {report.jaccard_mean_error:.4f}")


# --------------------------------------------------------------------- #
# Sub-commands
# --------------------------------------------------------------------- #
def cmd_record(args: argparse.Namespace) -> int:
    config = _workload_config_from_args(args)
    documents = make_generator(config).generate(args.documents)
    written = write_trace(documents, args.output, config)
    print(f"recorded {written} {config.scenario} documents to {args.output}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _system_config_from_args(args)
    documents, scenario = _load_or_generate(args)
    report = TagCorrelationSystem(config).run(documents)
    _print_report(report, scenario)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    algorithms = [name.strip().upper() for name in args.algorithms.split(",") if name.strip()]
    configs = [_system_config_from_args(args, algorithm=name) for name in algorithms]
    documents, scenario = _load_or_generate(args)
    _print_scenario(scenario)
    print(f"{'algorithm':>10} {'comm':>8} {'gini':>8} {'maxload':>9} "
          f"{'repart':>8} {'error':>8} {'coverage':>10}")
    for algorithm, config in zip(algorithms, configs):
        report = TagCorrelationSystem(config).run(documents)
        print(
            f"{algorithm:>10} {report.communication_avg:>8.3f} {report.load_gini:>8.3f} "
            f"{report.load_max_share:>9.3f} {report.n_repartitions:>8} "
            f"{report.jaccard_mean_error:>8.4f} {report.jaccard_coverage:>10.3f}"
        )
    return 0


def cmd_connectivity(args: argparse.Namespace) -> int:
    documents, _ = _load_or_generate(args)
    window_minutes = [float(value) for value in args.windows.split(",")]
    reports = connectivity_by_window_size(documents, window_minutes)
    print(f"{'window (min)':>14} {'max tags %':>12} {'max load %':>12} {'#components':>14}")
    for minutes in window_minutes:
        report = reports[minutes]
        print(
            f"{minutes:>14} {report.max_tag_percentage():>12.1f} "
            f"{report.max_load_percentage():>12.1f} {report.mean_components():>14.1f}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceDaemon

    config = _system_config_from_args(args).with_overrides(
        executor="service", service_queue_limit=args.queue_limit
    )
    daemon = ServiceDaemon(
        config,
        host=args.host,
        port=args.port,
        socket_path=args.socket or None,
    ).start()
    address = daemon.address
    if isinstance(address, tuple):
        print(f"serving on {address[0]}:{address[1]}", flush=True)
    else:
        print(f"serving on unix socket {address}", flush=True)
    try:
        # Run until a client's shutdown request drains the cluster.
        while not daemon.wait_for_shutdown(timeout=0.5):
            pass
    except KeyboardInterrupt:
        print("interrupted; draining...", flush=True)
        daemon.executor.request_drain()
    finally:
        daemon.close()
    report = daemon.final_report
    if report is not None:
        print()
        _print_report(report)
    return 0


def _client_from_args(args: argparse.Namespace):
    from .service import ServiceClient

    if args.socket:
        return ServiceClient(socket_path=args.socket)
    return ServiceClient(host=args.host, port=args.port)


def _parse_tags(raw: str) -> list[str]:
    tags = [tag.strip() for tag in raw.split(",") if tag.strip()]
    if not tags:
        raise SystemExit("--tags expects a comma-separated tag list")
    return tags


def cmd_client(args: argparse.Namespace) -> int:
    from .service import ServiceError

    if args.operation == "ingest":
        if not args.trace:
            raise SystemExit("ingest requires --trace <stream file>")
        if args.ingest_batch < 1:
            raise SystemExit("--ingest-batch must be at least 1")
    try:
        client = _client_from_args(args)
    except (ConnectionError, OSError) as exc:
        print(f"cannot connect to the service: {exc}", file=sys.stderr)
        return 1
    try:
        op = args.operation
        if op == "ping":
            response = client.ping()
        elif op == "ingest":
            documents = load_trace(args.trace)[1]
            if not documents:
                print("ingested 0 documents")
                return 0
            total = 0
            for start in range(0, len(documents), args.ingest_batch):
                response = client.ingest(
                    documents[start : start + args.ingest_batch], block=True
                )
                total += response["accepted"]
            print(f"ingested {total} documents "
                  f"({response['pending_batches']} batches pending)")
            return 0
        elif op == "top-k":
            response = client.top_k(k=args.k, min_support=args.min_support)
            print(f"round {response['round']}:")
            for tags, jaccard, support in response["results"]:
                print(f"  {','.join(tags):<40} jaccard={jaccard:.4f} "
                      f"support={support}")
            return 0
        elif op == "coefficient":
            response = client.coefficient(_parse_tags(args.tags or ""))
        elif op == "tracked":
            response = client.tracked()
        elif op == "stats":
            response = client.stats()
        elif op == "track":
            response = client.track([_parse_tags(args.tags or "")])
        else:  # shutdown
            response = client.shutdown()
        print(response)
        return 0
    except ServiceError as exc:
        print(f"service error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 1
    finally:
        client.close()


def cmd_theory(args: argparse.Namespace) -> int:
    print("Section 5.1 - Erdos-Renyi n*p of the tag co-occurrence graph")
    for (window, mmax), np_value in paper_np_table().items():
        model = WindowModel(window_minutes=window, mmax=mmax)
        print(f"  window={window:>2} min, mmax={mmax}: np={np_value:.2f} "
              f"(giant component: {model.predicts_giant_component()})")
    print()
    print("Section 5.2 - expected communication of random equal partitions")
    vocabularies = [20, 100, 1000, 10_000, 100_000, 600_000]
    sweep = communication_sweep(vocabularies, args.tweets, args.k, args.tags_per_tweet)
    for vocabulary in vocabularies:
        print(f"  vocabulary={vocabulary:>7}: E[communication]={sweep[vocabulary]:.3f}")
    return 0


# --------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------- #
_EPILOG = """\
subcommands:
  record        record a synthetic workload as a replayable stream file
                (header with scenario + workload config, then document
                records; replay with run/compare/connectivity --trace)
  run           run the distributed tag-correlation system over a stream
                (use --subset-cache to size the Calculators'
                subset-enumeration LRU, --no-baseline to skip the
                centralized ground truth, --executor process --workers N to shard the
                Calculator layer over worker processes,
                --counter-store spill to keep window counters out of
                core in sorted on-disk run files)
  compare       run several partitioning algorithms over the same trace and
                print the evaluation metrics side by side
  connectivity  Figure-7 connectivity analysis of a trace
  theory        print the Section-5 analytic tables
  serve         start the always-on service daemon (socket ingest API +
                concurrent queries; runs until a client sends shutdown)
  client        talk to a running daemon: ping, ingest, top-k, coefficient,
                tracked, stats, track, shutdown

examples:
  # Record a 10k-document stream, then replay it through the system
  # (--trace also reads foreign data: one document record per line):
  python -m repro.cli record --documents 10000 --output trace.jsonl
  python -m repro.cli run --trace trace.jsonl --algorithm DS --k 10

  # Shard the Calculator layer over 4 worker processes:
  python -m repro.cli run --documents 8000 --executor process --workers 4

  # Fastest measurement run: no centralized baseline:
  python -m repro.cli run --documents 8000 --no-baseline

  # Live repartitioning with state migration: force swaps at two points
  # and drain the Calculators' counters through a coordinated handoff
  # (quiesce -> migrate -> install; see docs/ARCHITECTURE.md "Live
  # repartitioning"; the handoff needs the Calculators in the driver, so
  # it runs with the inline executor, not --executor process):
  python -m repro.cli run --documents 8000 --repartition-policy fixed \\
      --repartition-at 3000,6000 --repartition-handoff migrate

  # Trending workload scenario (persistent rise/plateau/decay trends):
  python -m repro.cli run --documents 8000 --scenario trending

  # Out-of-core window state: spill cold counter segments to sorted run
  # files on disk and read them back once per report fold (bit-identical
  # to the default in-RAM dict store; see docs/ARCHITECTURE.md "Counter
  # store"). Keeps the stream phase's resident counters at the threshold:
  python -m repro.cli run --documents 50000 --counter-store spill \\
      --spill-dir /tmp/repro-spill --no-baseline

  # Out-of-core Tracker: the dedup coefficient table spills too
  # (identical coefficients; the max-support dedup rule becomes the merge
  # combiner):
  python -m repro.cli run --documents 50000 --counter-store spill \\
      --tracker-store spill --no-baseline

  # Record a trending-scenario trace, then replay it bit-for-bit:
  python -m repro.cli record --documents 6000 --scenario trending \\
      --output trending.trace.jsonl
  python -m repro.cli run --trace trending.trace.jsonl --k 8

  # Paper-style algorithm comparison (Figures 3-6):
  python -m repro.cli compare --documents 8000 --algorithms DS,SCI,SCC,SCL

  # Always-on service mode: start the daemon, ingest a trace through the
  # socket API, query it, then drain to a final report (batch==served,
  # pinned by tests/pipeline/test_service_equivalence.py):
  python -m repro.cli serve --port 7341 --k 8 &
  python -m repro.cli record --documents 5000 --output feed.jsonl
  python -m repro.cli client --port 7341 ingest --trace feed.jsonl
  python -m repro.cli client --port 7341 top-k --k 10
  python -m repro.cli client --port 7341 stats
  python -m repro.cli client --port 7341 shutdown

Use "python -m repro.cli <subcommand> --help" for per-command options.
"""


_TRACE_HELP = ("stream file to replay instead of generating one: recorded "
               "with `repro record` (scenario provenance is read from its "
               "header) or one document record per line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tracking Set Correlations at Large Scale - reproduction CLI",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    record = subparsers.add_parser(
        "record", help="record a synthetic workload as a replayable stream file"
    )
    _add_workload_arguments(record)
    record.add_argument("--output", required=True,
                        help="output trace file (repro-trace JSONL: header "
                             "line with scenario + workload config, then "
                             "one document record per line)")
    record.set_defaults(handler=cmd_record)

    run = subparsers.add_parser("run", help="run the distributed system")
    _add_workload_arguments(run)
    _add_system_arguments(run)
    run.add_argument("--trace", help=_TRACE_HELP)
    run.set_defaults(handler=cmd_run)

    compare = subparsers.add_parser("compare", help="compare algorithms on one trace")
    _add_workload_arguments(compare)
    _add_system_arguments(compare)
    compare.add_argument("--trace", help=_TRACE_HELP)
    compare.add_argument(
        "--algorithms", default="DS,SCI,SCC,SCL", help="comma-separated algorithm names"
    )
    compare.set_defaults(handler=cmd_compare)

    connectivity = subparsers.add_parser(
        "connectivity", help="Figure-7 connectivity analysis of a trace"
    )
    _add_workload_arguments(connectivity)
    connectivity.add_argument("--trace", help=_TRACE_HELP)
    connectivity.add_argument(
        "--windows", default="2,5,10,20", help="comma-separated window sizes in minutes"
    )
    connectivity.set_defaults(handler=cmd_connectivity)

    serve = subparsers.add_parser(
        "serve", help="start the always-on service daemon"
    )
    _add_system_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument("--port", type=int, default=7341,
                       help="TCP bind port (0 = pick a free port)")
    serve.add_argument("--socket", default="",
                       help="serve on this Unix socket path instead of TCP")
    serve.add_argument("--queue-limit", type=int, default=8,
                       help="bounded ingest queue depth in batches; a full "
                            "queue refuses non-blocking ingest with a "
                            "backpressure error (default 8)")
    serve.set_defaults(handler=cmd_serve, executor="service")

    client = subparsers.add_parser(
        "client", help="talk to a running service daemon"
    )
    client.add_argument("operation",
                        choices=("ping", "ingest", "top-k", "coefficient",
                                 "tracked", "stats", "track", "shutdown"),
                        help="operation to perform against the daemon")
    client.add_argument("--host", default="127.0.0.1", help="daemon TCP host")
    client.add_argument("--port", type=int, default=7341, help="daemon TCP port")
    client.add_argument("--socket", default="",
                        help="connect to this Unix socket path instead of TCP")
    client.add_argument("--trace", help="stream file to ingest (recorded "
                                        "with `repro record`, or one "
                                        "document record per line)")
    client.add_argument("--ingest-batch", type=int, default=500,
                        help="documents per ingest request (default 500)")
    client.add_argument("--k", type=int, default=10, help="top-k size")
    client.add_argument("--min-support", type=int, default=0,
                        help="minimum support of top-k results")
    client.add_argument("--tags", default="",
                        help="comma-separated tagset for coefficient/track")
    client.set_defaults(handler=cmd_client)

    theory = subparsers.add_parser("theory", help="print the Section-5 analytic tables")
    theory.add_argument("--tweets", type=int, default=10_000)
    theory.add_argument("--k", type=int, default=10)
    theory.add_argument("--tags-per-tweet", type=int, default=3)
    theory.set_defaults(handler=cmd_theory)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

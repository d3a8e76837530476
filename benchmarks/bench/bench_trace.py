"""Outside-in tracing: timing wrappers around the layers' public methods.

The traced run of a workload installs, from this file, a wrapper around
each call into a layer — the bolts' ``execute_batch`` / ``tick`` /
``flush``, the Calculator's ``drain_payload``, the Tracker's ``ingest`` and
``snapshot``, the baseline's ``ground_truth``, ``Cluster.run``, the process
executor's remote hooks, the service executor's ``next_document``, the wire
protocol's encode/decode functions and ``ServiceClient.request`` — and
removes them afterwards.  Nothing inside the program changes.

A span is ``(layer, name, start, end, parent, size)``; the parent is the
span that was open on the same thread when this one began, so a layer's
*self* time is its span's duration minus the part its child spans cover.
The inline drive loop is a FIFO, so operator spans never nest in each other
and the substrate's share of the stream phase is the self time of the
``cluster.run`` span.  Spans stay in memory and are written as JSON lines
when the run ends.

Wrappers are pass-through in forked children (the process executor's
workers inherit the patched classes): tracing inside the program is a later
change, so worker time is reported as CPU seconds, not as spans.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable

from repro.operators import (
    CalculatorBolt,
    CentralizedCalculatorBolt,
    DisseminatorBolt,
    MergerBolt,
    ParserBolt,
    PartitionerBolt,
    TrackerBolt,
)
from repro.service import ServiceClient, protocol
from repro.streamsim import AsyncServiceExecutor, Cluster, ShardedProcessExecutor

_BOLT_METHODS = ("execute_batch", "tick", "flush")

#: (layer, owner, method names).  An owner is a class or a module.
TARGETS: tuple[tuple[str, Any, tuple[str, ...]], ...] = (
    ("parser", ParserBolt, _BOLT_METHODS),
    ("partitioner", PartitionerBolt, _BOLT_METHODS),
    ("merger", MergerBolt, _BOLT_METHODS),
    ("disseminator", DisseminatorBolt, _BOLT_METHODS),
    ("calculator", CalculatorBolt, _BOLT_METHODS + ("drain_payload",)),
    ("tracker", TrackerBolt,
     _BOLT_METHODS + ("ingest", "ingest_repeated", "snapshot")),
    ("centralized", CentralizedCalculatorBolt,
     _BOLT_METHODS + ("ground_truth",)),
    ("cluster", Cluster, ("run",)),
    ("executors", ShardedProcessExecutor,
     ("deliver_remote", "tick_remote", "flush_remote", "drained_results")),
    ("service", AsyncServiceExecutor, ("next_document",)),
    ("service", protocol, ("encode", "decode_request", "decode_response")),
    ("service", ServiceClient, ("request",)),
)

#: Calls whose work has a size — messages of a delivery, bytes of a wire
#: line — and where it sits in the positional arguments (methods: 0 is self).
_SIZED_ARG = {
    "execute_batch": 1, "deliver_remote": 2,
    "decode_request": 0, "decode_response": 0,
}


class SpanRecorder:
    """Collects spans per thread.  A context manager: the wrappers are
    installed on entry and removed on exit."""

    def __init__(self) -> None:
        self._owner_pid = os.getpid()
        #: thread id -> (open-span stack, that thread's spans).
        self._threads: dict[int, tuple[list[int], list]] = {}
        self._undo: list[tuple[Any, str, bool, Any]] = []

    # ------------------------------------------------------------------ #
    # Installing and removing the wrappers
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "SpanRecorder":
        for layer, owner, names in TARGETS:
            for name in names:
                own = name in vars(owner)
                original = getattr(owner, name)
                self._undo.append((owner, name, own, original))
                setattr(owner, name, self.wrap(layer, name, original))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._undo:
            owner, name, own, original = self._undo.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)  # fall back to the inherited method

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        threads = self._threads
        owner_pid = self._owner_pid
        sized_arg = _SIZED_ARG.get(name)
        clock = time.perf_counter
        get_ident = threading.get_ident
        getpid = os.getpid

        def traced(*args, **kwargs):
            if getpid() != owner_pid:
                return fn(*args, **kwargs)
            state = threads.get(get_ident())
            if state is None:
                state = threads[get_ident()] = ([], [])
            stack, spans = state
            index = len(spans)
            spans.append(None)  # reserve the slot: children record it as parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size = len(args[sized_arg]) if sized_arg is not None else 0
                spans[index] = (layer, name, start, end, parent, size)

        return traced

    # ------------------------------------------------------------------ #
    # Reading the spans
    # ------------------------------------------------------------------ #
    def thread_spans(self) -> list[list]:
        """Completed spans, one list per thread (parents index that list)."""
        return [spans for _stack, spans in self._threads.values()]

    def span_count(self) -> int:
        return sum(len(spans) for spans in self.thread_spans())

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Totals per ``layer.name``: ``total_s``, ``self_s``, ``count``,
        ``size``, and ``stream_self_s`` — the self time spent under a
        ``cluster.run`` span, i.e. inside the stream phase."""
        totals: dict[str, dict[str, float]] = {}
        for spans in self.thread_spans():
            self_time = [span[3] - span[2] for span in spans]
            in_stream = [False] * len(spans)
            for index, (layer, name, start, end, parent, _n) in enumerate(spans):
                if parent >= 0:
                    self_time[parent] -= end - start
                    in_stream[index] = in_stream[parent]
                if layer == "cluster" and name == "run":
                    in_stream[index] = True
            for index, (layer, name, start, end, _parent, size) in enumerate(spans):
                entry = totals.setdefault(f"{layer}.{name}", {
                    "total_s": 0.0, "self_s": 0.0, "stream_self_s": 0.0,
                    "count": 0, "size": 0,
                })
                entry["total_s"] += end - start
                entry["self_s"] += self_time[index]
                if in_stream[index]:
                    entry["stream_self_s"] += self_time[index]
                entry["count"] += 1
                entry["size"] += size
        return totals

    def write_jsonl(self, path: str, run_id: str) -> None:
        """One JSON object per span; ``id``/``parent`` are unique per file."""
        with open(path, "w", encoding="utf-8") as out:
            offset = 0
            for thread, spans in enumerate(self.thread_spans()):
                for index, (layer, name, start, end, parent, size) in enumerate(spans):
                    out.write(json.dumps({
                        "run": run_id, "thread": thread,
                        "id": offset + index,
                        "parent": offset + parent if parent >= 0 else None,
                        "layer": layer, "name": name,
                        "start": start, "end": end, "size": size,
                    }) + "\n")
                offset += len(spans)

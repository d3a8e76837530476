"""The scoped policy for CPython's cyclic garbage collector.

A run's state is large tables of long-lived, acyclic containers — counter
keys, tagset frozensets, one ``TrackedCoefficient`` per reported tagset.
With CPython's default thresholds the cyclic collector re-walks those tables
over and over (a full pass whenever the old generation has grown 25 %, a
young pass every 700 net container allocations) and frees nothing: work
proportional to the state, not to the update.  :func:`gc_policy` takes it
off the hot path for exactly as long as a run is active in the process:

* the young-generation threshold is raised to :data:`YOUNG_THRESHOLD`; the
  collector stays **enabled**, so cyclic garbage (tracebacks, handler
  threads) is still reclaimed and a full pass still happens — amortised, at
  most once per ``YOUNG_THRESHOLD × 10 × 10`` net allocations *and* 25 %
  growth;
* scopes are depth-counted under a lock: the first entrant saves the host's
  thresholds, the last leaver restores them (also on exceptions), so
  overlapping runs on several threads can neither drop the policy early nor
  leak it;
* the collector is never switched on or off here — a host that disabled it
  keeps it disabled;
* while any scope is active one ``gc.callbacks`` hook accumulates passes per
  generation and pause seconds into every active scope's :class:`GcTally`
  (a pause stops the whole process, so overlapping scopes each see it).

The thresholds are process-wide interpreter state, which is why the depth
counter is module state rather than an object callers pass around.  Forked
shard workers own their process and enter their own scope.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: Young-generation threshold while a run is active (the host's own value
#: when that is higher).  10 000 and 100 000 measured the same on every
#: benchmark workload (docs/PERFORMANCE.md "The cyclic GC"), so this is a
#: constant, not a setting.
YOUNG_THRESHOLD = 50_000


@dataclass(slots=True, eq=False)
class GcTally:
    """Cyclic-GC passes per generation (young, middle, full) and the
    wall-clock the process spent paused in them.

    Informational only, like ``RunReport.timings``.
    """

    passes: list[int] = field(default_factory=lambda: [0, 0, 0])
    pause_seconds: float = 0.0

    def merge(self, other: "GcTally") -> None:
        """Fold another tally (e.g. one worker shard's) into this one."""
        for generation, count in enumerate(other.passes):
            self.passes[generation] += count
        self.pause_seconds += other.pause_seconds


_lock = threading.Lock()
#: The tallies of the active scopes; its length is the depth.  Replaced, not
#: mutated, so the ``gc.callbacks`` hook reads it without taking the lock (the hook
#: can fire on a thread that already holds it).
_scopes: tuple[GcTally, ...] = ()
_host_threshold: tuple[int, int, int] = gc.get_threshold()
#: ``perf_counter`` at the "start" of the pass in progress.  Passes never
#: nest or overlap (the interpreter runs one collection at a time); ``None``
#: between passes, so a "stop" whose "start" predates the hook is skipped.
_pass_started: float | None = None


def _on_gc(phase: str, info: dict) -> None:
    global _pass_started
    if phase == "start":
        _pass_started = time.perf_counter()
        return
    if _pass_started is None:
        return
    elapsed = time.perf_counter() - _pass_started
    _pass_started = None
    generation = info["generation"]
    for tally in _scopes:
        tally.passes[generation] += 1
        tally.pause_seconds += elapsed


@contextmanager
def gc_policy(tally: GcTally | None = None) -> Iterator[GcTally]:
    """Hold the run-time GC policy for the duration of the ``with`` block.

    ``tally`` receives every GC pass that happens while the block is
    active (a fresh one is created when omitted) and is what the block
    yields; it may be read live from other threads.  Give each scope its
    own tally, or re-use one only in scopes that do not overlap.
    """
    global _scopes, _host_threshold
    if tally is None:
        tally = GcTally()
    with _lock:
        if not _scopes:
            _host_threshold = gc.get_threshold()
            young = _host_threshold[0]
            # Threshold 0 is the host's other way of switching collection
            # off; like a disabled collector, it is left alone.
            if 0 < young < YOUNG_THRESHOLD:
                gc.set_threshold(YOUNG_THRESHOLD, *_host_threshold[1:])
            gc.callbacks.append(_on_gc)
        _scopes += (tally,)
    try:
        yield tally
    finally:
        with _lock:
            remaining = list(_scopes)
            remaining.remove(tally)
            _scopes = tuple(remaining)
            if not _scopes:
                gc.callbacks.remove(_on_gc)
                gc.set_threshold(*_host_threshold)

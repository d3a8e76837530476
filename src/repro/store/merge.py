"""K-way run merges, layered past the fan-in.

When more than ``fan_in`` runs accumulate, they are grouped into
fan-in-sized batches and each batch is merged (sorted runs → layered k-way
merges, the SNIPPETS.md search-engine schedule), layer after layer, until
one run remains.  Merges run one after another in the calling process, on
purpose: the last layer is always a single merge over every entry, so a
pool over a layer's groups can win at most 1.33× on two cores, measured
1.25× at 16 × 65 536 entries and nothing at benchmark size, and costs a
fork of the caller per worker (docs/PERFORMANCE.md "Spill cost: before /
after").

Every individual merge is itself crash-safe: it streams through
:func:`repro.store.format.write_run`, so a failed merge leaves only its
inputs behind and a killed process leaves at most a ``.tmp`` sibling that
the owning store sweeps on ``clear()``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .format import DEFAULT_BLOCK_SIZE, RunReader, merged_entries, write_run

#: Largest number of runs one merge consumes; beyond it merges are layered.
DEFAULT_MERGE_FAN_IN = 8


@dataclass(frozen=True)
class MergeResult:
    """Outcome of one (possibly layered) merge."""

    path: str
    entries: int
    merges: int
    seconds: float


def merge_runs(
    sources: Sequence[str],
    destination,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    combine=None,
) -> str:
    """Merge ``sources`` into a single run at ``destination``.

    Streams block-by-block — peak memory is one decoded block per source
    plus one output block, regardless of run sizes.  Sources are left in
    place; the caller deletes them once the merged run is published.

    ``combine`` is handed to :func:`merged_entries` (``None`` sums counts);
    sources must be passed oldest first so a non-commutative combiner sees
    equal keys in the order the segments spilled.  The output inherits the
    sources' value layout (raw values stay raw).
    """
    readers = [RunReader(path) for path in sources]
    try:
        raw = readers[0].raw_values if readers else False
        if any(reader.raw_values != raw for reader in readers):
            raise ValueError("cannot merge raw-value runs with count runs")
        write_run(
            destination,
            merged_entries(
                [reader.entries() for reader in readers], combine=combine
            ),
            block_size=block_size,
            raw_values=raw,
        )
    finally:
        for reader in readers:
            reader.close()
    return os.fspath(destination)


def compact_runs(
    sources: Sequence[str],
    make_path: Callable[[int, int], str],
    *,
    fan_in: int = DEFAULT_MERGE_FAN_IN,
    block_size: int = DEFAULT_BLOCK_SIZE,
    combine=None,
) -> MergeResult:
    """Merge ``sources`` down to one run, in layers of ``fan_in``.

    ``make_path(layer, index)`` names intermediate and final outputs.
    Consumed inputs (including intermediates) are deleted as soon as the
    merge that read them is published; on failure the surviving inputs are
    left for the owning store's abort sweep.

    Grouping is order-preserving (``sources[i:i+fan_in]``) and each group
    merges oldest-first, so across any number of layers equal keys still
    fold left-to-right in original source order — the property that lets a
    non-commutative ``combine`` (tracker max-support) produce the same
    winner regardless of layering.
    """
    if fan_in < 2:
        raise ValueError("fan_in must be at least 2")
    paths = [os.fspath(path) for path in sources]
    if len(paths) < 2:
        raise ValueError("compact_runs needs at least two source runs")
    started = time.perf_counter()
    merges = 0
    layer = 0
    while len(paths) > 1:
        groups = [paths[i:i + fan_in] for i in range(0, len(paths), fan_in)]
        outputs: list[str] = []
        for index, group in enumerate(groups):
            if len(group) == 1:
                # A straggler group passes through to the next layer as-is.
                outputs.append(group[0])
                continue
            destination = make_path(layer, index)
            merge_runs(
                group, destination, block_size=block_size, combine=combine
            )
            for path in group:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            outputs.append(destination)
            merges += 1
        paths = outputs
        layer += 1
    final_reader = RunReader(paths[0])
    entries = final_reader.n_entries
    final_reader.close()
    return MergeResult(
        path=paths[0],
        entries=entries,
        merges=merges,
        seconds=time.perf_counter() - started,
    )

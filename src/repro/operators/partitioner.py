"""The Partitioner bolt: turns a window of tagsets into tag partitions.

Each Partitioner instance receives parsed tagsets via fields grouping on the
tagset (so identical tagsets always hit the same instance), maintains a
sliding window over them and — whenever the Disseminator requests a
repartition — runs the configured partitioning algorithm on the window
contents and ships the result to the Merger.

Following Section 6.2, the behaviour depends on the algorithm:

* for DS, Partitioners run only phase 1 (they emit the disjoint sets of
  their window, not ``k`` packed partitions) so the Merger can recombine
  components that are split across Partitioner instances;
* for the set-cover algorithms, Partitioners emit ``k`` partitions which the
  Merger treats as input tagsets for another run of the same algorithm.

Every emission also carries the window's tagset counts so the Merger can
compute the reference quality values (``avgCom`` and ``maxLoad``) of the
final partitions.
"""

from __future__ import annotations

from collections import deque

from ..core.cooccurrence import CooccurrenceStatistics
from ..partitioning import DisjointSetsPartitioner, Partitioner, find_disjoint_sets
from ..streamsim.components import Bolt
from ..streamsim.tuples import TupleMessage
from .streams import PARTIAL_PARTITIONS, REPARTITION_REQUESTS, TAGSETS


class SlidingWindow:
    """Count- or time-based sliding window over ``(timestamp, tagset)`` pairs."""

    def __init__(self, mode: str = "count", size: float = 5000) -> None:
        if mode not in ("count", "time"):
            raise ValueError("window mode must be 'count' or 'time'")
        if size <= 0:
            raise ValueError("window size must be positive")
        self.mode = mode
        self.size = size
        self._items: deque[tuple[float, frozenset[str]]] = deque()

    def add(self, timestamp: float, tagset: frozenset[str]) -> None:
        self._items.append((timestamp, tagset))
        self._evict(timestamp)

    def _evict(self, now: float) -> None:
        if self.mode == "count":
            while len(self._items) > self.size:
                self._items.popleft()
        else:
            horizon = now - self.size
            while self._items and self._items[0][0] < horizon:
                self._items.popleft()

    def tagsets(self) -> list[frozenset[str]]:
        return [tagset for _, tagset in self._items]

    def statistics(self) -> CooccurrenceStatistics:
        """Co-occurrence statistics of the current window contents."""
        statistics = CooccurrenceStatistics()
        for position, (timestamp, tagset) in enumerate(self._items):
            # Window positions serve as synthetic document identifiers.
            statistics.add_document(
                _WindowDocument(doc_id=position, tags=tagset, timestamp=timestamp)
            )
        return statistics

    def __len__(self) -> int:
        return len(self._items)


class _WindowDocument:
    """Lightweight Document stand-in to avoid re-validating frozen sets."""

    __slots__ = ("doc_id", "tags", "timestamp")

    def __init__(self, doc_id: int, tags: frozenset[str], timestamp: float) -> None:
        self.doc_id = doc_id
        self.tags = tags
        self.timestamp = timestamp


class PartitionerBolt(Bolt):
    """Computes tag partitions over its sliding window on request."""

    def __init__(
        self,
        algorithm: Partitioner,
        k: int,
        window_mode: str = "count",
        window_size: float = 5000,
    ) -> None:
        super().__init__()
        self.algorithm = algorithm
        self.k = k
        self.window = SlidingWindow(mode=window_mode, size=window_size)
        self.partitions_created = 0
        self._served_epochs: set[int] = set()

    def execute(self, message: TupleMessage) -> None:
        schema = message.schema
        if schema is TAGSETS:
            # TAGSETS slot layout: (doc_id, timestamp, tagset).
            _, timestamp, tagset = message.values
            self.window.add(0.0 if timestamp is None else timestamp, tagset)
        elif schema is REPARTITION_REQUESTS:
            self._create_partitions(message)

    def _create_partitions(self, message: TupleMessage) -> None:
        epoch, _reason, timestamp = message.values
        epoch = 0 if epoch is None else epoch
        if epoch in self._served_epochs:
            # Every Disseminator instance broadcasts its request; serve each
            # epoch once.
            return
        self._served_epochs.add(epoch)
        statistics = self.window.statistics()
        tag_sets, loads = self._partition(statistics)
        window_counts = {
            tuple(sorted(tagset)): count
            for tagset, count in statistics.tagset_counts.items()
        }
        self.partitions_created += 1
        self.emit(
            PARTIAL_PARTITIONS,
            epoch,
            self.task_index,
            tag_sets,
            loads,
            window_counts,
            0.0 if timestamp is None else timestamp,
        )

    def _partition(
        self, statistics: CooccurrenceStatistics
    ) -> tuple[list[frozenset[str]], list[int]]:
        """Run the algorithm; DS emits raw disjoint sets (phase 1 only)."""
        if isinstance(self.algorithm, DisjointSetsPartitioner):
            disjoint_sets = find_disjoint_sets(statistics)
            return (
                [ds.tags for ds in disjoint_sets],
                [ds.load for ds in disjoint_sets],
            )
        assignment = self.algorithm.partition(statistics, self.k)
        tag_sets = []
        loads = []
        for partition in assignment:
            if not partition.tags:
                continue
            tag_sets.append(frozenset(partition.tags))
            loads.append(partition.load)
        return tag_sets, loads

"""Tag partitions and the tag-to-calculator assignment.

A *partition* ``pr_i`` is a set of tags assigned to one Calculator node.  A
:class:`PartitionAssignment` is the full output of a partitioning algorithm:
``k`` partitions, possibly overlapping (overlap is replication and causes
communication overhead), together with the inverted index from tags to the
partitions containing them that the Disseminator uses for routing
(Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence


@dataclass(frozen=True, slots=True)
class PartitionSeed:
    """A serialisable snapshot of an installed assignment plus its quality.

    Captures everything the runtime needs to resume under a known map: the
    tag sets and bookkeeping loads of every partition, and the reference
    quality (average communication, maximum load) the Disseminator compares
    rolling statistics against.  Produced from a recorded
    ``PartitionInstall`` and consumed by ``SystemConfig.initial_partitions``
    — the splice-equivalence suites use it to start a fresh run exactly
    where a live repartition left off.
    """

    tag_sets: tuple[frozenset[str], ...]
    loads: tuple[int, ...]
    avg_com: float
    max_load: float

    def __post_init__(self) -> None:
        if len(self.tag_sets) != len(self.loads):
            raise ValueError("tag_sets and loads must have the same length")

    @property
    def k(self) -> int:
        return len(self.tag_sets)

    def build_assignment(self) -> "PartitionAssignment":
        """Materialise the assignment, restoring per-partition loads."""
        assignment = PartitionAssignment.from_tag_sets(self.tag_sets)
        for partition, load in zip(assignment.partitions, self.loads):
            partition.load = load
        return assignment


@dataclass(slots=True)
class Partition:
    """A single tag partition ``pr_i`` together with its bookkeeping load.

    Attributes
    ----------
    index:
        Position of the partition within its assignment; also the identity
        of the Calculator that will own it.
    tags:
        The set of tags assigned to the partition.
    load:
        The load accumulated while the partition was built: the number of
        window documents annotated with any of the partition's tags (the
        ``l_i`` of the problem statement).
    """

    index: int
    tags: set[str] = field(default_factory=set)
    load: int = 0

    def covers(self, tagset: Iterable[str]) -> bool:
        """Whether every tag of ``tagset`` is assigned to this partition."""
        return set(tagset) <= self.tags

    def add_tags(self, tags: Iterable[str], load: int = 0) -> None:
        """Add tags (e.g. a tagset or a disjoint set) and account its load."""
        self.tags.update(tags)
        self.load += load

    def shared_tags(self, tagset: Iterable[str]) -> int:
        """Number of tags of ``tagset`` already present in the partition."""
        return len(self.tags & set(tagset))

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags

    def __len__(self) -> int:
        return len(self.tags)


class PartitionAssignment:
    """A complete assignment of tags to ``k`` partitions.

    Provides the queries the rest of the system needs:

    * routing — which partitions (Calculators) must receive a document,
    * coverage — is a tagset fully contained in some partition,
    * quality — replication factor and load distribution.
    """

    def __init__(self, partitions: Sequence[Partition]) -> None:
        self._partitions = list(partitions)
        self._index: dict[str, set[int]] = {}
        for partition in self._partitions:
            for tag in partition.tags:
                self._index.setdefault(tag, set()).add(partition.index)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, k: int) -> "PartitionAssignment":
        """``k`` empty partitions."""
        return cls([Partition(index=i) for i in range(k)])

    @classmethod
    def from_tag_sets(cls, tag_sets: Sequence[Iterable[str]]) -> "PartitionAssignment":
        """Build an assignment from plain tag collections (loads unknown)."""
        return cls(
            [Partition(index=i, tags=set(tags)) for i, tags in enumerate(tag_sets)]
        )

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def partitions(self) -> list[Partition]:
        return self._partitions

    @property
    def k(self) -> int:
        """Number of partitions (Calculators)."""
        return len(self._partitions)

    def partition(self, index: int) -> Partition:
        return self._partitions[index]

    def __iter__(self) -> Iterator[Partition]:
        return iter(self._partitions)

    def __len__(self) -> int:
        return len(self._partitions)

    def all_tags(self) -> set[str]:
        """Union of all partitions' tags."""
        return set(self._index)

    # ------------------------------------------------------------------ #
    # Routing (Disseminator queries)
    # ------------------------------------------------------------------ #
    def partitions_for_tag(self, tag: str) -> set[int]:
        """Indices of the partitions that were assigned ``tag``."""
        return set(self._index.get(tag, ()))

    def route(self, tagset: Iterable[str]) -> dict[int, frozenset[str]]:
        """Which Calculators receive a document and which sub-tagset each gets.

        This mirrors the Disseminator: for a document annotated with
        ``tagset`` each Calculator ``j`` owning at least one of its tags is
        notified with the subset ``s_i^j`` of tags it owns (Section 6.2).
        A partition owning every tag of a frozenset ``tagset`` receives
        that object itself.
        """
        return self.route_and_covered(tagset)[0]

    def route_and_covered(
        self, tagset: Iterable[str]
    ) -> tuple[dict[int, frozenset[str]], bool]:
        """:meth:`route` plus whether some partition covers the whole tagset.

        The Disseminator needs both answers for every routed tagset; one
        pass over the inverted index replaces the separate
        :meth:`covering_partitions` walk on the hot path; the flag is what
        :meth:`covers` answers.
        """
        index_get = self._index.get
        per_partition: dict[int, set[str]] = {}
        covering: set[int] | None = None
        for tag in tagset:
            owners = index_get(tag)
            if owners is None:
                covering = set()
                continue
            for index in owners:
                bucket = per_partition.get(index)
                if bucket is None:
                    per_partition[index] = {tag}
                else:
                    bucket.add(tag)
            if covering is None:
                covering = set(owners)
            elif covering:
                covering &= owners
        whole = len(tagset) if isinstance(tagset, frozenset) else -1
        routes = {
            index: tagset if len(tags) == whole else frozenset(tags)
            for index, tags in per_partition.items()
        }
        return routes, bool(covering)

    def covering_partitions(self, tagset: Iterable[str]) -> list[int]:
        """Indices of partitions containing *all* tags of ``tagset``."""
        tags = list(tagset)
        if not tags:
            return []
        candidates = set(self._index.get(tags[0], ()))
        for tag in tags[1:]:
            candidates &= self._index.get(tag, set())
            if not candidates:
                break
        return sorted(candidates)

    def covers(self, tagset: Iterable[str]) -> bool:
        """Whether some partition contains all tags of ``tagset``."""
        return bool(self.covering_partitions(tagset))

    # ------------------------------------------------------------------ #
    # Mutation (Single Additions, Section 7.1)
    # ------------------------------------------------------------------ #
    def add_tagset(self, index: int, tagset: Iterable[str], load: int = 0) -> None:
        """Add a tagset to partition ``index`` and refresh the inverted index."""
        partition = self._partitions[index]
        new_tags = set(tagset)
        partition.add_tags(new_tags, load=load)
        for tag in new_tags:
            self._index.setdefault(tag, set()).add(index)

    # ------------------------------------------------------------------ #
    # Quality measures
    # ------------------------------------------------------------------ #
    def coverage(self, tagsets: Iterable[Iterable[str]]) -> float:
        """Fraction of the given tagsets fully covered by some partition."""
        tagset_list = [frozenset(s) for s in tagsets]
        if not tagset_list:
            return 1.0
        covered = sum(1 for tagset in tagset_list if self.covers(tagset))
        return covered / len(tagset_list)

    def replication_factor(self) -> float:
        """Average number of partitions a tag is assigned to.

        Equals 1.0 for perfectly disjoint partitions; larger values mean
        replicated tags and therefore communication overhead (criterion 2 of
        the problem statement).
        """
        if not self._index:
            return 0.0
        return sum(len(indices) for indices in self._index.values()) / len(self._index)

    def replicated_tags(self) -> set[str]:
        """Tags assigned to more than one partition."""
        return {tag for tag, indices in self._index.items() if len(indices) > 1}

    def loads(self) -> list[int]:
        """Bookkeeping load of every partition, by index."""
        return [partition.load for partition in self._partitions]

    def tag_counts(self) -> list[int]:
        """Number of tags in every partition, by index."""
        return [len(partition) for partition in self._partitions]

    def as_tag_sets(self) -> list[set[str]]:
        """The raw tag sets, useful for serialisation and tests."""
        return [set(partition.tags) for partition in self._partitions]

    def communication_load(self, tagsets: Iterable[Iterable[str]]) -> float:
        """Average number of partitions notified per tagset.

        This is the paper's *Communication* metric (Section 8.2.1): tagsets
        that do not reach any partition are excluded from the average.
        """
        total = 0
        counted = 0
        for tagset in tagsets:
            routes = self.route(tagset)
            if not routes:
                continue
            total += len(routes)
            counted += 1
        if counted == 0:
            return 0.0
        return total / counted

    def expected_calculator_loads(
        self, tagsets: Iterable[Iterable[str]]
    ) -> list[int]:
        """Notifications each Calculator would receive for the given tagsets."""
        loads = [0] * self.k
        for tagset in tagsets:
            for index in self.route(tagset):
                loads[index] += 1
        return loads

    def summary(self) -> Mapping[str, float]:
        """A compact quality summary used in logs and examples."""
        loads = self.loads()
        total_load = sum(loads) or 1
        return {
            "k": float(self.k),
            "tags": float(len(self._index)),
            "replication_factor": self.replication_factor(),
            "max_load_share": max(loads) / total_load if loads else 0.0,
        }

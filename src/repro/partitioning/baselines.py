"""Baseline partitioners used for comparison and ablation.

The paper's related-work section (Section 2) discusses classic graph
partitioning — Kernighan–Lin [12] and spectral methods [6] — as an
alternative to its online algorithms, and Section 5.2 analyses random
equal-sized partitions.  This module implements those baselines so the
benchmarks can quantify the comparison:

* :class:`HashPartitioner` — the strawman every stream system offers for
  free: route each tag to ``hash(tag) mod k``.  It balances load well but
  breaks coverage, since a co-occurring tagset is usually split across
  partitions; callers can optionally repair coverage by replicating each
  tagset into one partition, which reveals the communication cost.
* :class:`RandomPartitioner` — random equal-sized tag partitions, the model
  analysed in Section 5.2.
* :class:`KernighanLinPartitioner` — recursive bisection of the tagset graph
  with the Kernighan–Lin heuristic (via networkx), then tags are collected
  from the tagset vertices of each side.
* :class:`SpectralPartitioner` — spectral clustering of the tagset graph
  using the Fiedler vector / k-means on the Laplacian eigenvectors.

All baselines repair coverage the same way (each observed tagset is added to
the partition holding most of its tags) so that their Jaccard coverage is
comparable with the paper's algorithms.
"""

from __future__ import annotations

import random
import zlib
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..core.cooccurrence import CooccurrenceStatistics
from ..core.partition import Partition, PartitionAssignment
from .base import Partitioner, validate_k

if TYPE_CHECKING:
    import networkx as nx


def repair_coverage(
    assignment: PartitionAssignment, statistics: CooccurrenceStatistics
) -> int:
    """Ensure every observed tagset is fully contained in some partition.

    Each uncovered tagset is added to the partition already holding most of
    its tags (ties towards the least loaded).  Returns the number of tagsets
    that had to be repaired — a measure of how badly the base partitioning
    violates the coverage requirement.
    """
    repaired = 0
    for tagset in statistics.tagset_counts:
        if assignment.covers(tagset):
            continue
        target = min(
            assignment.partitions,
            key=lambda p: (-p.shared_tags(tagset), p.load, p.index),
        )
        assignment.add_tagset(target.index, tagset, load=statistics.load(tagset))
        repaired += 1
    return repaired


class HashPartitioner(Partitioner):
    """Assign each tag to ``hash(tag) mod k``; optionally repair coverage."""

    name = "HASH"

    def __init__(self, repair: bool = True, seed: int = 0) -> None:
        self._repair = repair
        self._seed = seed

    def partition(
        self, statistics: CooccurrenceStatistics, k: int
    ) -> PartitionAssignment:
        validate_k(k)
        partitions = [Partition(index=i) for i in range(k)]
        for tag in sorted(statistics.tags):
            index = zlib.crc32(f"{self._seed}:{tag}".encode("utf-8")) % k
            partitions[index].add_tags(
                [tag], load=statistics.tag_document_count(tag)
            )
        assignment = PartitionAssignment(partitions)
        if self._repair:
            repair_coverage(assignment, statistics)
        return assignment


class RandomPartitioner(Partitioner):
    """Random equal-sized tag partitions (the Section 5.2 model)."""

    name = "RANDOM"

    def __init__(self, repair: bool = True, seed: int | None = 0) -> None:
        self._repair = repair
        self._rng = random.Random(seed)

    def partition(
        self, statistics: CooccurrenceStatistics, k: int
    ) -> PartitionAssignment:
        validate_k(k)
        tags = sorted(statistics.tags)
        self._rng.shuffle(tags)
        partitions = [Partition(index=i) for i in range(k)]
        for position, tag in enumerate(tags):
            index = position % k
            partitions[index].add_tags(
                [tag], load=statistics.tag_document_count(tag)
            )
        assignment = PartitionAssignment(partitions)
        if self._repair:
            repair_coverage(assignment, statistics)
        return assignment


def _tags_from_tagset_groups(
    groups: Sequence[Iterable[frozenset[str]]],
    statistics: CooccurrenceStatistics,
) -> PartitionAssignment:
    """Turn groups of tagset vertices into tag partitions with loads."""
    partitions = []
    for index, group in enumerate(groups):
        tags: set[str] = set()
        for tagset in group:
            tags |= tagset
        partitions.append(
            Partition(index=index, tags=tags, load=statistics.load(tags))
        )
    return PartitionAssignment(partitions)


class KernighanLinPartitioner(Partitioner):
    """Recursive Kernighan–Lin bisection of the tagset graph."""

    name = "KL"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def partition(
        self, statistics: CooccurrenceStatistics, k: int
    ) -> PartitionAssignment:
        validate_k(k)
        graph = statistics.tagset_graph()
        groups = self._recursive_bisection(graph, k)
        # Pad with empty groups when the graph had too few vertices.
        while len(groups) < k:
            groups.append([])
        assignment = _tags_from_tagset_groups(groups[:k], statistics)
        repair_coverage(assignment, statistics)
        return assignment

    def _recursive_bisection(
        self, graph: nx.Graph, k: int
    ) -> list[list[frozenset[str]]]:
        nodes = list(graph.nodes)
        if k <= 1 or len(nodes) <= 1:
            return [nodes]
        half_k = k // 2
        if graph.number_of_edges() == 0:
            midpoint = max(1, len(nodes) * half_k // k)
            left_nodes, right_nodes = nodes[:midpoint], nodes[midpoint:]
        else:
            import networkx as nx

            left, right = nx.algorithms.community.kernighan_lin_bisection(
                graph, weight="weight", seed=self._seed
            )
            left_nodes, right_nodes = list(left), list(right)
        left_groups = self._recursive_bisection(graph.subgraph(left_nodes), half_k)
        right_groups = self._recursive_bisection(
            graph.subgraph(right_nodes), k - half_k
        )
        return left_groups + right_groups


class SpectralPartitioner(Partitioner):
    """Spectral clustering of the tagset graph into ``k`` groups.

    Uses the eigenvectors of the graph Laplacian (Donath & Hoffman style)
    followed by a lightweight k-means on the spectral embedding.
    """

    name = "SPECTRAL"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def partition(
        self, statistics: CooccurrenceStatistics, k: int
    ) -> PartitionAssignment:
        validate_k(k)
        graph = statistics.tagset_graph()
        nodes = list(graph.nodes)
        if not nodes:
            return PartitionAssignment.empty(k)
        if len(nodes) <= k:
            groups: list[list[frozenset[str]]] = [[] for _ in range(k)]
            for index, node in enumerate(nodes):
                groups[index % k].append(node)
            assignment = _tags_from_tagset_groups(groups, statistics)
            repair_coverage(assignment, statistics)
            return assignment
        labels = self._spectral_labels(graph, nodes, k)
        groups = [[] for _ in range(k)]
        for node, label in zip(nodes, labels):
            groups[label].append(node)
        assignment = _tags_from_tagset_groups(groups, statistics)
        repair_coverage(assignment, statistics)
        return assignment

    def _spectral_labels(
        self, graph: nx.Graph, nodes: list[frozenset[str]], k: int
    ) -> list[int]:
        import networkx as nx

        laplacian = nx.laplacian_matrix(graph, nodelist=nodes, weight="weight")
        dense = laplacian.toarray().astype(float)
        eigenvalues, eigenvectors = np.linalg.eigh(dense)
        order = np.argsort(eigenvalues)
        n_vectors = min(max(k, 2), len(nodes))
        embedding = eigenvectors[:, order[1:n_vectors]]
        if embedding.shape[1] == 0:
            embedding = eigenvectors[:, order[:1]]
        return _kmeans_labels(embedding, k, seed=self._seed)


def _kmeans_labels(points: np.ndarray, k: int, seed: int, iterations: int = 50) -> list[int]:
    """Small dependency-free k-means used by the spectral baseline."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    k = min(k, n)
    centroid_indices = rng.choice(n, size=k, replace=False)
    centroids = points[centroid_indices].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(iterations):
        distances = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for index in range(k):
            members = points[labels == index]
            if len(members):
                centroids[index] = members.mean(axis=0)
    return labels.tolist()

"""Multilevel graph partitioner (Hendrickson–Leland style, reference [11]).

The related-work section points at multilevel partitioning — coarsen the
graph by collapsing heavy edges, partition the small graph, then project the
partition back while refining with Kernighan–Lin — as the strongest classic
alternative to the paper's online algorithms.  This implementation works on
the tagset graph of Section 4:

1. **Coarsening**: repeated heavy-edge matching merges tagset vertices that
   share many tags until the graph is small enough.
2. **Initial partitioning**: greedy balanced assignment of the coarsest
   vertices (by weight) to ``k`` parts.
3. **Uncoarsening + refinement**: the assignment is projected back level by
   level; at each level a boundary-refinement pass moves vertices to the
   neighbouring part that reduces the edge cut, subject to a balance
   constraint.

Like the other offline baselines it repairs coverage at the end so its
output is directly comparable with DS/SCC/SCL/SCI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.cooccurrence import CooccurrenceStatistics
from ..core.partition import Partition, PartitionAssignment
from .base import Partitioner, validate_k
from .baselines import repair_coverage

if TYPE_CHECKING:
    import networkx as nx


@dataclass(slots=True)
class _Level:
    """One level of the coarsening hierarchy."""

    graph: nx.Graph
    #: Mapping from a vertex of this level to its parent vertex one level up
    #: (i.e. in the coarser graph).
    parent: dict = field(default_factory=dict)


def _heavy_edge_matching(graph: nx.Graph) -> dict:
    """Greedy heavy-edge matching; returns vertex -> merged representative."""
    matched: set = set()
    mapping: dict = {}
    # Visit vertices from heaviest to lightest so popular tagsets merge first.
    vertices = sorted(
        graph.nodes, key=lambda v: -graph.nodes[v].get("weight", 1)
    )
    for vertex in vertices:
        if vertex in matched:
            continue
        best = None
        best_weight = 0
        for neighbour in graph.neighbors(vertex):
            if neighbour in matched:
                continue
            weight = graph[vertex][neighbour].get("weight", 1)
            if weight > best_weight:
                best = neighbour
                best_weight = weight
        matched.add(vertex)
        if best is None:
            mapping[vertex] = (vertex,)
        else:
            matched.add(best)
            mapping[vertex] = (vertex, best)
            mapping[best] = (vertex, best)
    # Deduplicate: each merged group is represented by a tuple key.
    return mapping


def _coarsen(graph: nx.Graph) -> tuple[nx.Graph, dict]:
    """One coarsening step; returns the coarser graph and the parent map."""
    import networkx as nx

    mapping = _heavy_edge_matching(graph)
    coarse = nx.Graph()
    parent: dict = {}
    for vertex, group in mapping.items():
        parent[vertex] = group
        if group not in coarse:
            weight = sum(graph.nodes[v].get("weight", 1) for v in set(group))
            coarse.add_node(group, weight=weight)
    for first, second, data in graph.edges(data=True):
        group_a, group_b = parent[first], parent[second]
        if group_a == group_b:
            continue
        weight = data.get("weight", 1)
        if coarse.has_edge(group_a, group_b):
            coarse[group_a][group_b]["weight"] += weight
        else:
            coarse.add_edge(group_a, group_b, weight=weight)
    return coarse, parent


def _initial_partition(graph: nx.Graph, k: int) -> dict:
    """Greedy balanced assignment of the coarsest vertices to k parts."""
    assignment: dict = {}
    loads = [0.0] * k
    vertices = sorted(
        graph.nodes, key=lambda v: -graph.nodes[v].get("weight", 1)
    )
    for vertex in vertices:
        part = min(range(k), key=lambda index: loads[index])
        assignment[vertex] = part
        loads[part] += graph.nodes[vertex].get("weight", 1)
    return assignment


def _refine(graph: nx.Graph, assignment: dict, k: int, passes: int = 2) -> None:
    """Boundary refinement: move vertices to reduce the weighted edge cut."""
    loads = [0.0] * k
    for vertex, part in assignment.items():
        loads[part] += graph.nodes[vertex].get("weight", 1)
    total = sum(loads) or 1.0
    max_load = 1.3 * total / k
    for _ in range(passes):
        moved = False
        for vertex in graph.nodes:
            current = assignment[vertex]
            weight = graph.nodes[vertex].get("weight", 1)
            # Gain of moving to each neighbouring part.
            connectivity = [0.0] * k
            for neighbour in graph.neighbors(vertex):
                connectivity[assignment[neighbour]] += graph[vertex][neighbour].get(
                    "weight", 1
                )
            best_part = current
            best_gain = 0.0
            for part in range(k):
                if part == current:
                    continue
                if loads[part] + weight > max_load:
                    continue
                gain = connectivity[part] - connectivity[current]
                if gain > best_gain:
                    best_gain = gain
                    best_part = part
            if best_part != current:
                assignment[vertex] = best_part
                loads[current] -= weight
                loads[best_part] += weight
                moved = True
        if not moved:
            break


class MultilevelPartitioner(Partitioner):
    """Multilevel (coarsen / partition / refine) tagset-graph partitioner."""

    name = "MULTILEVEL"

    def __init__(self, coarsest_size: int = 64, refinement_passes: int = 2) -> None:
        if coarsest_size < 2:
            raise ValueError("coarsest_size must be at least 2")
        self._coarsest_size = coarsest_size
        self._passes = refinement_passes

    def partition(
        self, statistics: CooccurrenceStatistics, k: int
    ) -> PartitionAssignment:
        validate_k(k)
        graph = statistics.tagset_graph()
        if graph.number_of_nodes() == 0:
            return PartitionAssignment.empty(k)

        # Coarsening phase.
        levels: list[_Level] = []
        current = graph
        while current.number_of_nodes() > max(self._coarsest_size, 2 * k):
            coarse, parent = _coarsen(current)
            if coarse.number_of_nodes() >= current.number_of_nodes():
                break
            levels.append(_Level(graph=current, parent=parent))
            current = coarse

        # Initial partitioning of the coarsest graph.
        assignment = _initial_partition(current, k)
        _refine(current, assignment, k, self._passes)

        # Uncoarsening with refinement.
        for level in reversed(levels):
            projected = {
                vertex: assignment[level.parent[vertex]] for vertex in level.graph.nodes
            }
            _refine(level.graph, projected, k, self._passes)
            assignment = projected

        partitions = [Partition(index=i) for i in range(k)]
        for tagset, part in assignment.items():
            partitions[part].add_tags(tagset)
        result = PartitionAssignment(partitions)
        for partition in result:
            partition.load = statistics.load(partition.tags)
        repair_coverage(result, statistics)
        return result

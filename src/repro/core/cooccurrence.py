"""Co-occurrence statistics over a window of tagged documents.

This module collects the statistics every partitioning algorithm consumes:

* the set ``S`` of distinct tagsets seen in the window together with their
  occurrence counts,
* for every tag ``t_i`` the set ``T_i`` of documents annotated with it,
* the load ``l_j`` of a tagset ``s_j``, i.e. the number of documents
  annotated with *any* tag of ``s_j`` (these are the documents a Calculator
  that owns ``s_j`` would receive),
* the tagset graph of Section 4 (vertices = tagsets, edges between tagsets
  sharing a tag) and the tag co-occurrence graph used by the theory in
  Section 5.1.

Load queries are answered from per-tag document *bitmasks* (arbitrary-size
Python integers), because the partitioning algorithms issue thousands of
them per window and repeated ``set`` unions dominate the runtime otherwise.
The per-tag document-id sets are still kept for exact membership queries
(``documents_with_all`` / ``documents_with_any``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .documents import Document
from .union_find import UnionFind

if TYPE_CHECKING:
    import networkx as nx


@dataclass(slots=True)
class CooccurrenceStatistics:
    """Accumulates tagset and tag statistics from a stream of documents.

    The structure is incremental: documents can be added one by one (as the
    Partitioner operator does while its window fills) and all derived
    quantities are available at any point.
    """

    tagset_counts: Counter = field(default_factory=Counter)
    tag_documents: dict[str, set[int]] = field(default_factory=dict)
    n_documents: int = 0
    n_tagged_documents: int = 0
    _tag_bits: dict[str, int] = field(default_factory=dict, repr=False)
    _doc_positions: dict[int, int] = field(default_factory=dict, repr=False)
    _next_position: int = field(default=0, repr=False)
    _load_cache: dict[frozenset, int] = field(default_factory=dict, repr=False)

    def add_document(self, document: Document) -> None:
        """Record one document."""
        self.n_documents += 1
        if not document.tags:
            return
        self.n_tagged_documents += 1
        self.tagset_counts[document.tags] += 1
        position = self._position_of(document.doc_id)
        bit = 1 << position
        for tag in document.tags:
            self.tag_documents.setdefault(tag, set()).add(document.doc_id)
            self._tag_bits[tag] = self._tag_bits.get(tag, 0) | bit
        if self._load_cache:
            self._load_cache.clear()

    def add_documents(self, documents: Iterable[Document]) -> None:
        for document in documents:
            self.add_document(document)

    def add_weighted_tagset(self, tagset: Iterable[str], count: int) -> None:
        """Record ``count`` synthetic documents all annotated with ``tagset``.

        Used when only (tagset, multiplicity) pairs are available — e.g. the
        Merger combining the windows of several Partitioners — without
        paying for ``count`` individual document insertions.  Synthetic
        document identifiers are consecutive and disjoint from any previous
        block, so load queries remain exact.
        """
        tags = frozenset(tagset)
        if not tags or count <= 0:
            return
        self.n_documents += count
        self.n_tagged_documents += count
        self.tagset_counts[tags] += count
        start = self._next_position
        self._next_position += count
        block = ((1 << count) - 1) << start
        for tag in tags:
            self._tag_bits[tag] = self._tag_bits.get(tag, 0) | block
        if self._load_cache:
            self._load_cache.clear()

    def _position_of(self, doc_id: int) -> int:
        position = self._doc_positions.get(doc_id)
        if position is None:
            position = self._next_position
            self._doc_positions[doc_id] = position
            self._next_position += 1
        return position

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def tagsets(self) -> list[frozenset[str]]:
        """Distinct tagsets ``S`` observed so far."""
        return list(self.tagset_counts)

    @property
    def tags(self) -> set[str]:
        """Global tag set ``TG`` observed so far."""
        return set(self._tag_bits)

    def tagset_count(self, tagset: frozenset[str]) -> int:
        """How many documents were annotated with exactly ``tagset``."""
        return self.tagset_counts.get(tagset, 0)

    def tag_document_count(self, tag: str) -> int:
        """``|T_i|``: the number of documents annotated with ``tag``."""
        return self._tag_bits.get(tag, 0).bit_count()

    def documents_with_any(self, tags: Iterable[str]) -> set[int]:
        """Documents annotated with any of ``tags`` (union of the ``T_i``).

        Only documents added via :meth:`add_document` carry identifiers;
        synthetic documents from :meth:`add_weighted_tagset` contribute to
        loads but not to these identifier sets.
        """
        documents: set[int] = set()
        for tag in tags:
            documents |= self.tag_documents.get(tag, set())
        return documents

    def documents_with_all(self, tags: Iterable[str]) -> set[int]:
        """Documents annotated with all of ``tags`` (intersection)."""
        tag_list = list(tags)
        if not tag_list:
            return set()
        result = set(self.tag_documents.get(tag_list[0], set()))
        for tag in tag_list[1:]:
            result &= self.tag_documents.get(tag, set())
            if not result:
                break
        return result

    def load(self, tags: Iterable[str]) -> int:
        """Load ``l_j`` of a tagset: documents annotated with any of its tags."""
        key = tags if isinstance(tags, frozenset) else frozenset(tags)
        cached = self._load_cache.get(key)
        if cached is not None:
            return cached
        mask = 0
        for tag in key:
            mask |= self._tag_bits.get(tag, 0)
        load = mask.bit_count()
        self._load_cache[key] = load
        return load

    def __len__(self) -> int:
        return len(self.tagset_counts)

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.tagset_counts)

    # ------------------------------------------------------------------ #
    # Graph views
    # ------------------------------------------------------------------ #
    def tag_components(self) -> dict[str, set[str]]:
        """Connected components of the tag co-occurrence graph.

        Two tags are connected when they co-occur in at least one tagset.
        Returns a mapping from a representative tag to its component.
        These are exactly the "disjoint sets" ``ds_j`` of Algorithm 1.
        """
        forest: UnionFind[str] = UnionFind(self._tag_bits)
        for tagset in self.tagset_counts:
            forest.union_all(tagset)
        return forest.components()

    def tagset_graph(self) -> nx.Graph:
        """The tagset graph of Section 4.

        Vertices are tagsets weighted by the number of documents annotated
        with them; an edge connects two tagsets that share at least one tag,
        weighted by the number of shared tags.
        """
        import networkx as nx

        graph = nx.Graph()
        for tagset, count in self.tagset_counts.items():
            graph.add_node(tagset, weight=count)
        by_tag: dict[str, list[frozenset[str]]] = {}
        for tagset in self.tagset_counts:
            for tag in tagset:
                by_tag.setdefault(tag, []).append(tagset)
        for tagsets in by_tag.values():
            for first, second in combinations(tagsets, 2):
                shared = len(first & second)
                if graph.has_edge(first, second):
                    graph[first][second]["weight"] = max(
                        graph[first][second]["weight"], shared
                    )
                else:
                    graph.add_edge(first, second, weight=shared)
        return graph

    def tag_graph(self) -> nx.Graph:
        """The tag co-occurrence graph of Section 5.1.

        Vertices are tags; an edge connects two tags that co-occur in at
        least one document, weighted by the number of such documents.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._tag_bits)
        for tagset, count in self.tagset_counts.items():
            for first, second in combinations(sorted(tagset), 2):
                if graph.has_edge(first, second):
                    graph[first][second]["weight"] += count
                else:
                    graph.add_edge(first, second, weight=count)
        return graph

    def distinct_tag_pairs(self) -> int:
        """Number of distinct co-occurring tag pairs (edges of the tag graph)."""
        pairs: set[tuple[str, str]] = set()
        for tagset in self.tagset_counts:
            for first, second in combinations(sorted(tagset), 2):
                pairs.add((first, second))
        return len(pairs)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_documents(cls, documents: Iterable[Document]) -> "CooccurrenceStatistics":
        statistics = cls()
        statistics.add_documents(documents)
        return statistics

    @classmethod
    def from_tagset_counts(
        cls, counts: Mapping[frozenset[str], int]
    ) -> "CooccurrenceStatistics":
        """Build statistics from (tagset -> occurrence count) pairs.

        Synthetic document identifiers are assigned in disjoint consecutive
        blocks per tagset.  Useful in tests and whenever only aggregated
        counts are available (e.g. the Merger).
        """
        statistics = cls()
        for tagset, count in counts.items():
            statistics.add_weighted_tagset(tagset, count)
        return statistics

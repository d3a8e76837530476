"""Core data model, statistics and metrics of the reproduction.

This package holds everything the partitioning algorithms and the stream
pipeline share: documents and tagsets, the union–find structure, the
co-occurrence statistics of a window, Jaccard computation, partitions and
the evaluation metrics (communication, Gini load, Jaccard error).
"""

from .cooccurrence import CooccurrenceStatistics
from .documents import Document, DocumentBatch, documents_from_tagsets, make_tagset
from .jaccard import (
    DEFAULT_SUBSET_CACHE_SIZE,
    JaccardCalculator,
    JaccardResult,
    SubsetCounter,
    SubsetTupleCache,
    all_nonempty_subsets,
    exact_jaccard,
    union_size_inclusion_exclusion,
)
from .metrics import (
    CommunicationTracker,
    JaccardErrorReport,
    LoadTracker,
    gini_coefficient,
    jaccard_error,
    load_shares,
    load_variance,
    lorenz_curve,
    max_load_share,
    replication_cost,
)
from .partition import Partition, PartitionAssignment
from .union_find import UnionFind

__all__ = [
    "CooccurrenceStatistics",
    "Document",
    "DocumentBatch",
    "documents_from_tagsets",
    "make_tagset",
    "DEFAULT_SUBSET_CACHE_SIZE",
    "SubsetTupleCache",
    "JaccardCalculator",
    "JaccardResult",
    "SubsetCounter",
    "all_nonempty_subsets",
    "exact_jaccard",
    "union_size_inclusion_exclusion",
    "CommunicationTracker",
    "JaccardErrorReport",
    "LoadTracker",
    "gini_coefficient",
    "jaccard_error",
    "load_shares",
    "load_variance",
    "lorenz_curve",
    "max_load_share",
    "replication_cost",
    "Partition",
    "PartitionAssignment",
    "UnionFind",
]

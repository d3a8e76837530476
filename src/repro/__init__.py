"""repro: a reproduction of "Tracking Set Correlations at Large Scale".

The library tracks Jaccard correlations between co-occurring tags in a
stream of short documents (tweets) by partitioning the tag universe across
multiple Calculator nodes, as described by Alvanaki and Michel (SIGMOD
2014).  It contains:

* the four partitioning algorithms of the paper (DS, SCC, SCL, SCI), a
  hybrid DS+SCL splitter and classic graph-partitioning baselines
  (``repro.partitioning``),
* exact Jaccard computation via subset counters and inclusion–exclusion
  (``repro.core``) and the probabilistic sketches Section 2 argues against
  (``repro.sketches``, imported on demand),
* a Storm-like single-process stream-processing substrate and the paper's
  operator topology (``repro.streamsim``, ``repro.operators``),
* the analytic models of Section 5 (``repro.theory``),
* a synthetic Twitter-like workload generator (``repro.workloads``),
* the end-to-end system and experiment sweeps (``repro.pipeline``) and
  offline analysis helpers (``repro.analysis``).

Quickstart
----------
>>> from repro import SystemConfig, TagCorrelationSystem, WorkloadConfig
>>> from repro.workloads import TwitterLikeGenerator
>>> docs = TwitterLikeGenerator(WorkloadConfig(seed=1)).generate(3000)
>>> config = SystemConfig.scaled_down("DS", scale=0.005)
>>> report = TagCorrelationSystem(config).run(docs)
>>> report.communication_avg >= 1.0
True

See ``README.md`` for the full quickstart and ``docs/ARCHITECTURE.md``
for the dataflow.
"""

from .core import (
    CooccurrenceStatistics,
    Document,
    JaccardCalculator,
    PartitionAssignment,
    gini_coefficient,
)
from .partitioning import (
    ALGORITHMS,
    PAPER_ALGORITHMS,
    DisjointSetsPartitioner,
    HybridDSPartitioner,
    SCCPartitioner,
    SCIPartitioner,
    SCLPartitioner,
    make_partitioner,
)
from .pipeline import RunReport, SystemConfig, TagCorrelationSystem, run_system
from .workloads import TwitterLikeGenerator, WorkloadConfig

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "CooccurrenceStatistics",
    "DisjointSetsPartitioner",
    "Document",
    "HybridDSPartitioner",
    "JaccardCalculator",
    "PAPER_ALGORITHMS",
    "PartitionAssignment",
    "RunReport",
    "SCCPartitioner",
    "SCIPartitioner",
    "SCLPartitioner",
    "SystemConfig",
    "TagCorrelationSystem",
    "TwitterLikeGenerator",
    "WorkloadConfig",
    "gini_coefficient",
    "make_partitioner",
    "run_system",
    "__version__",
]

"""A discrete-event stand-in for the Storm platform with pluggable engines.

The paper implements its operators on Apache Storm (Section 6).  This
package reproduces the Storm programming model — spouts, bolts, stream
groupings, multi-instance components, a topology builder and a cluster that
executes the topology — as a deterministic simulator with per-link message
accounting, which is what the paper's metrics are computed from.

The wire format is schema-declared (``tuples.py``): every stream's field
layout is interned once as a ``StreamSchema``, tuples are slot tuples (a
plain value tuple plus the schema and integer provenance), emission is
positional (``emit(schema, *values)``) and routing/delivery/IPC all operate
on per-link ``EmissionBatch`` lists — see docs/ARCHITECTURE.md "Wire
format".

Execution is pluggable (``executors.py``): the default ``InlineExecutor``
runs everything depth-first in one process, while the
``ShardedProcessExecutor`` shards one sink component (the Calculators in
the paper's topology) across ``multiprocessing`` workers, behind
driver-side proxy bolts, without changing any logical metric.
"""

from .cluster import Cluster, ClusterContext, MessageAccounting, iter_bolts, run_topology
from .components import Bolt, Component, Spout
from .executors import (
    EXECUTOR_NAMES,
    AsyncServiceExecutor,
    Executor,
    IngestBackpressure,
    IngestClosed,
    InlineExecutor,
    ShardedProcessExecutor,
    make_executor,
)
from .groupings import (
    AllGrouping,
    DirectGrouping,
    FieldsGrouping,
    Grouping,
    ShuffleGrouping,
)
from .topology import ComponentSpec, Subscription, Topology, TopologyBuilder
from .tuples import (
    DEFAULT_STREAM,
    EmissionBatch,
    OutputCollector,
    StreamSchema,
    TupleMessage,
    stream_schema,
)

__all__ = [
    "AllGrouping",
    "AsyncServiceExecutor",
    "Bolt",
    "Cluster",
    "ClusterContext",
    "Component",
    "ComponentSpec",
    "DEFAULT_STREAM",
    "DirectGrouping",
    "EXECUTOR_NAMES",
    "EmissionBatch",
    "Executor",
    "FieldsGrouping",
    "Grouping",
    "IngestBackpressure",
    "IngestClosed",
    "InlineExecutor",
    "MessageAccounting",
    "OutputCollector",
    "ShardedProcessExecutor",
    "ShuffleGrouping",
    "Spout",
    "StreamSchema",
    "Subscription",
    "Topology",
    "TopologyBuilder",
    "TupleMessage",
    "iter_bolts",
    "make_executor",
    "run_topology",
    "stream_schema",
]

"""Components and declared stream schemas of the Figure-2 topology.

Keeping the identifiers in one place avoids typo-induced routing bugs and
documents the dataflow:

* ``source`` emits raw tweets to ``parser`` (shuffle),
* ``parser`` emits parsed tagsets to ``disseminator`` (shuffle) and
  ``partitioner`` (fields grouping on the tagset),
* ``partitioner`` emits partial partitions to ``merger``,
* ``merger`` broadcasts final partitions and single-addition decisions to
  all ``disseminator`` instances,
* ``disseminator`` sends notifications to ``calculator`` tasks (direct
  grouping), missing-tagset reports to ``merger`` and repartition requests
  to all ``partitioner`` instances,
* ``calculator`` emits Jaccard coefficients to ``tracker``.

Each stream constant is an interned
:class:`~repro.streamsim.tuples.StreamSchema`: simultaneously the stream's
name (a ``str`` subclass, so subscriptions and accounting keys are
unchanged) and its declared slot layout.  Operators emit positionally in
the declared field order and unpack ``message.values`` the same way; the
pipeline registers these schemas with the topology builder so fields
groupings are validated against the layouts at build time.
"""

from repro.streamsim.tuples import stream_schema

# Component names -------------------------------------------------------- #
SOURCE = "source"
PARSER = "parser"
PARTITIONER = "partitioner"
MERGER = "merger"
DISSEMINATOR = "disseminator"
CALCULATOR = "calculator"
TRACKER = "tracker"
CENTRALIZED = "centralized"

# Stream schemas --------------------------------------------------------- #
#: Raw tweets replayed by the Source.
TWEETS = stream_schema("tweets", ("doc_id", "timestamp", "tags", "text"))
#: Parsed, normalised tagsets (the Parser's output).
TAGSETS = stream_schema("tagsets", ("doc_id", "timestamp", "tagset"))
#: Per-Partitioner partial partitions of one repartition epoch.
PARTIAL_PARTITIONS = stream_schema(
    "partial_partitions",
    ("epoch", "partitioner_task", "tag_sets", "loads", "window_counts", "timestamp"),
)
#: The Merger's final k partitions plus their reference quality values.
PARTITIONS = stream_schema(
    "partitions", ("epoch", "tag_sets", "loads", "avg_com", "max_load", "timestamp")
)
#: Single-addition decisions broadcast by the Merger (Section 7.1).
SINGLE_ADDITIONS = stream_schema(
    "single_additions", ("tagset", "partition_index", "timestamp")
)
#: Uncovered tagsets the Disseminator reports to the Merger.
MISSING_TAGSETS = stream_schema("missing_tagsets", ("tagset", "count", "timestamp"))
#: Repartition requests broadcast to all Partitioners (Section 7.2).
REPARTITION_REQUESTS = stream_schema(
    "repartition_requests", ("epoch", "reason", "timestamp")
)
#: Notification micro-batches shipped to Calculators: ``batch`` is the list
#: of routed tagsets of one Disseminator micro-batch.
NOTIFICATIONS = stream_schema("notifications", ("batch", "timestamp"))
#: One report round's ``(tagset, jaccard, support)`` wire triples.
COEFFICIENTS = stream_schema("coefficients", ("results", "timestamp"))

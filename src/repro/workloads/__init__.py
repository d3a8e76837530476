"""Synthetic Twitter-like workloads, scenarios, stream files and statistics."""

from .generator import (
    SCENARIO_NAMES,
    TwitterLikeGenerator,
    WorkloadConfig,
    generate_documents,
)
from .io import document_to_record, record_to_document
from .replay import load_trace, read_trace, read_trace_header, write_trace
from .scenarios import (
    SCENARIO_GENERATORS,
    TrendingGenerator,
    make_generator,
    scenario_preset,
)
from .stats import WorkloadStatistics, compute_statistics, tags_per_tweet_frequencies
from .topics import Topic, TopicModel, uniform_topics

__all__ = [
    "SCENARIO_GENERATORS",
    "SCENARIO_NAMES",
    "Topic",
    "TopicModel",
    "TrendingGenerator",
    "TwitterLikeGenerator",
    "WorkloadConfig",
    "WorkloadStatistics",
    "compute_statistics",
    "document_to_record",
    "generate_documents",
    "load_trace",
    "make_generator",
    "read_trace",
    "read_trace_header",
    "record_to_document",
    "scenario_preset",
    "tags_per_tweet_frequencies",
    "uniform_topics",
    "write_trace",
]

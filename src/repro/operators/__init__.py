"""The operators of the Figure-2 topology plus the centralised baseline."""

from .calculator import CalculatorBolt
from .centralized import CentralizedCalculatorBolt
from .controller import REPARTITION_POLICIES, RepartitionController
from .disseminator import (
    DisseminatorBolt,
    DisseminatorMetrics,
    MigrationRecord,
    PartitionInstall,
    QualitySnapshot,
    RepartitionEvent,
    REASON_BOOTSTRAP,
    REASON_BOTH,
    REASON_COMMUNICATION,
    REASON_FORCED,
    REASON_LOAD,
)
from .merger import MergerBolt
from .parser import ParserBolt, extract_hashtags
from .partitioner import PartitionerBolt, SlidingWindow
from .spouts import DocumentSpout, ServiceSpout
from .tracker import CoefficientView, TrackerBolt, TrackerSnapshot
from . import streams

__all__ = [
    "CoefficientView",
    "CalculatorBolt",
    "CentralizedCalculatorBolt",
    "DisseminatorBolt",
    "DisseminatorMetrics",
    "DocumentSpout",
    "MergerBolt",
    "MigrationRecord",
    "ParserBolt",
    "PartitionInstall",
    "PartitionerBolt",
    "QualitySnapshot",
    "REASON_BOOTSTRAP",
    "REASON_BOTH",
    "REASON_COMMUNICATION",
    "REASON_FORCED",
    "REASON_LOAD",
    "REPARTITION_POLICIES",
    "RepartitionController",
    "RepartitionEvent",
    "ServiceSpout",
    "SlidingWindow",
    "TrackerBolt",
    "TrackerSnapshot",
    "extract_hashtags",
    "streams",
]

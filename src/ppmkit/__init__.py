"""Toolkit for studying the process of process modeling.

Parse modeling-session event logs, replay them into BPMN-style models,
measure how the modeler worked (block discipline, movement, pace), decide
whether the finished model is perspicuous (normalizes to a sound workflow
net), draw session charts, and compare groups of sessions statistically.
"""

from .blocks import Block, detect_blocks, max_simul_block, perc_blocks_as_whole
from .chart import PPMChartSpec, render_ppmchart
from .classify import (
    PerspicuityVerdict,
    SessionReport,
    classify_model,
    classify_session,
)
from .eventlog import (
    EventClass,
    EventKind,
    EventLog,
    LogFormatError,
    ModelingEvent,
    ObjectType,
    expand_reconnect,
    parse_log,
    serialize_log,
)
from .metrics import METRIC_NAMES, SessionMetrics, compute_session_metrics
from .model import Edge, Node, ProcessModel
from .normalize import NormalizationOutcome, normalize
from .replay import replay, replay_until
from .simulate import PROFILES, SimulationProfile, simulate, simulate_cohort
from .soundness import SoundnessReport, check_soundness
from .stats import (
    BoxplotSummary,
    GroupComparison,
    TTestResult,
    boxplot_summary,
    compare_groups,
    t_test,
)
from .wfnet import WFNet, to_wfnet

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BoxplotSummary",
    "Edge",
    "EventClass",
    "EventKind",
    "EventLog",
    "GroupComparison",
    "LogFormatError",
    "METRIC_NAMES",
    "ModelingEvent",
    "Node",
    "NormalizationOutcome",
    "ObjectType",
    "PPMChartSpec",
    "PROFILES",
    "PerspicuityVerdict",
    "ProcessModel",
    "SessionMetrics",
    "SessionReport",
    "SimulationProfile",
    "SoundnessReport",
    "TTestResult",
    "WFNet",
    "boxplot_summary",
    "check_soundness",
    "classify_model",
    "classify_session",
    "compare_groups",
    "compute_session_metrics",
    "detect_blocks",
    "expand_reconnect",
    "max_simul_block",
    "normalize",
    "parse_log",
    "perc_blocks_as_whole",
    "render_ppmchart",
    "replay",
    "replay_until",
    "serialize_log",
    "simulate",
    "simulate_cohort",
    "t_test",
    "to_wfnet",
]

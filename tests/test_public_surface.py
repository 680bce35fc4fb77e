"""The package's public names are a reviewed list: adding or dropping one
edits this test."""

import ppmkit

PUBLIC = [
    "Block", "BoxplotSummary", "Edge", "EventClass", "EventKind", "EventLog",
    "GroupComparison", "LogFormatError", "METRIC_NAMES", "ModelingEvent", "Node",
    "NormalizationOutcome", "ObjectType", "PPMChartSpec", "PROFILES",
    "PerspicuityVerdict", "ProcessModel", "SessionMetrics", "SessionReport",
    "SimulationProfile", "SoundnessReport", "TTestResult", "WFNet",
    "boxplot_summary", "check_soundness", "classify_model", "classify_session",
    "compare_groups", "compute_session_metrics", "detect_blocks", "expand_reconnect",
    "max_simul_block", "normalize", "parse_log", "perc_blocks_as_whole",
    "render_ppmchart", "replay", "replay_until", "serialize_log", "simulate",
    "simulate_cohort", "t_test", "to_wfnet",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(ppmkit.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(ppmkit, name) is not None

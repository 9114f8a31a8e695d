"""Release-decision pipeline for robot-to-human object handover.

A torque-window action classifier (from-scratch 1D CNN), a geometric
fingertip release gate, a desk-scale multibox detection objective, and an
AND-fusion state machine, verified end to end on synthetic sensor streams
by a seeded simulation harness.
"""

from .core import (
    ActionClass,
    ActionScores,
    Decision,
    DetectionBlock,
    FingerType,
    FingertipDetection,
    ObjectSlab,
    ReleaseDecision,
    TorqueWindow,
    expected_decision,
)
from .classifier import (
    LabeledWindow,
    NormalizationStats,
    TorqueNetConfig,
    build_network,
    classify_window,
    torque_vote,
    train,
)
from .fusion import (
    FsmState,
    FusedSample,
    Pipeline,
    ReleaseFsm,
    SyncConfig,
    TorqueEvent,
    run_episode,
    synchronize,
)
from .harness import ExperimentConfig, ReportTable, render_report, run_experiment
from .synth import (
    FaultProfile,
    ScenarioScript,
    TorqueSignatureModel,
    default_signature_model,
    generate_dataset,
    generate_scenario,
    generate_window,
)
from .vision_gate import VisionVerdict, evaluate_grasp

__all__ = [
    "ActionClass",
    "ActionScores",
    "Decision",
    "DetectionBlock",
    "ExperimentConfig",
    "FaultProfile",
    "FingerType",
    "FingertipDetection",
    "FsmState",
    "FusedSample",
    "LabeledWindow",
    "NormalizationStats",
    "ObjectSlab",
    "Pipeline",
    "ReleaseDecision",
    "ReleaseFsm",
    "ReportTable",
    "ScenarioScript",
    "SyncConfig",
    "TorqueEvent",
    "TorqueNetConfig",
    "TorqueSignatureModel",
    "TorqueWindow",
    "VisionVerdict",
    "build_network",
    "classify_window",
    "default_signature_model",
    "evaluate_grasp",
    "expected_decision",
    "generate_dataset",
    "generate_scenario",
    "generate_window",
    "render_report",
    "run_episode",
    "run_experiment",
    "synchronize",
    "torque_vote",
    "train",
]

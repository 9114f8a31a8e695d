"""Every value a JSON-serialized type accepts survives dumps_canonical and
json.loads unchanged, as strict JSON (no NaN or Infinity tokens); a
document value of the wrong JSON type is refused, never cast."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, reject, strategies as st
from hypothesis.extra import numpy as hnp

from handover.classifier import LabeledWindow, NormalizationStats
from handover.core import (
    NUM_CLASSES,
    NUM_JOINTS,
    TORQUE_LIMIT_NM,
    WINDOW_SAMPLES,
    ActionClass,
    ActionScores,
    FingerType,
    FingertipDetection,
    ObjectSlab,
    ReleaseDecision,
    TorqueWindow,
    dumps_canonical,
    json_value,
)
from handover.fusion import FusedSample, SyncConfig, TorqueEvent
from handover.harness import TrialRecord
from handover.synth import FaultProfile
from handover.vision_gate import VisionVerdict
from oracles import scores

# infinities included: a type that accepts one must still write strict JSON
floats = st.floats(allow_nan=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
stamps = st.integers(-(2**63), 2**63)
actions = st.sampled_from(list(ActionClass))


def built(cls, *args, **kwargs):
    """cls(...) when its checks accept the drawn values, else a rejected example."""
    try:
        return cls(*args, **kwargs)
    except ValueError:
        reject()


def ordered_pair(values):
    return st.tuples(values, values).map(sorted)


@st.composite
def torque_windows(draw):
    samples = draw(hnp.arrays(np.float64, (NUM_JOINTS, WINDOW_SAMPLES),
                              elements=st.floats(-TORQUE_LIMIT_NM, TORQUE_LIMIT_NM)))
    return TorqueWindow(samples=samples, start_time=draw(stamps))


@st.composite
def action_scores(draw):
    weights = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=NUM_CLASSES, max_size=NUM_CLASSES)))
    if weights.sum() == 0.0:
        reject()
    return built(scores, weights / weights.sum())


@st.composite
def detections(draw):
    (x_min, x_max), (y_min, y_max) = draw(ordered_pair(floats)), draw(ordered_pair(floats))
    return built(
        FingertipDetection,
        box=(x_min, y_min, x_max, y_max),
        finger_type=draw(st.sampled_from(list(FingerType))),
        position_3d=(draw(floats), draw(floats), draw(st.floats(min_value=0.0))),
        confidence=draw(st.floats(0.0, 1.0)),
        timestamp=draw(stamps),
    )


@st.composite
def slabs(draw):
    z_front, z_back = draw(ordered_pair(st.floats(min_value=0.0, exclude_min=True)))
    return built(ObjectSlab, z_front=z_front, z_back=z_back)


sync_configs = st.builds(SyncConfig, pairing_window_ms=st.integers(1, 2**31),
                         debounce_frames=st.integers(1, 2**31))


@st.composite
def fused_samples(draw):
    scores = draw(action_scores())
    fingers, thumb = draw(st.integers(0, 5)), draw(st.booleans())
    vision = VisionVerdict(fingers_in_slab=fingers, thumb_in_slab=thumb, evaluated_at=draw(stamps))
    return FusedSample(torque=TorqueEvent(scores=scores, timestamp=draw(stamps)), vision=vision)


@st.composite
def fault_profiles(draw):
    tables = [draw(st.dictionaries(actions, st.floats(0.0, 1.0))) for _ in range(3)]
    return built(FaultProfile, *tables, torque_extra_noise=draw(st.floats()))


@st.composite
def normalization_stats(draw):
    mean = draw(hnp.arrays(np.float64, (NUM_JOINTS,), elements=finite))
    # a std must be positive: NormalizationStats rejects any other
    std = draw(hnp.arrays(np.float64, (NUM_JOINTS,),
                          elements=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))
    return NormalizationStats(mean=mean, std=std)


def assert_same(got, want):
    """Field-by-field equality, arrays compared by value and shape."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape and np.array_equal(got, want)
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name))
    else:
        assert got == want


def strict_loads(text):
    def refuse(token):
        raise AssertionError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


CASES = {
    "TorqueWindow": (TorqueWindow, torque_windows()),
    "LabeledWindow": (LabeledWindow, st.builds(LabeledWindow, window=torque_windows(), label=actions)),
    "ActionScores": (ActionScores, action_scores()),
    "FingertipDetection": (FingertipDetection, detections()),
    "ObjectSlab": (ObjectSlab, slabs()),
    "ReleaseDecision": (ReleaseDecision, st.builds(ReleaseDecision, action=actions, decided_at=stamps)),
    "SyncConfig": (SyncConfig, sync_configs),
    "FusedSample": (FusedSample, fused_samples()),
    "FaultProfile": (FaultProfile, fault_profiles()),
    "NormalizationStats": (NormalizationStats, normalization_stats()),
}


@pytest.mark.parametrize("name", CASES)
def test_canonical_json_round_trip(name):
    cls, values = CASES[name]

    @given(values)
    def check(value):
        text = dumps_canonical(value.to_json_dict())
        back = cls.from_json_dict(strict_loads(text))
        assert_same(back, value)
        assert dumps_canonical(back.to_json_dict()) == text

    check()


@pytest.mark.parametrize("tp, value", [
    (bool, 1), (bool, "true"), (bool, None),
    (int, True), (int, 2.9), (int, 3.0), (int, "100"), (int, float("inf")),
    (float, True), (float, "1.5"), (float, None),
    (str, 5), (str, None),
])
def test_value_of_another_json_type_is_refused(tp, value):
    with pytest.raises(TypeError, match="expected"):
        json_value(tp, value)


@pytest.mark.parametrize("tp, value, want", [
    (bool, False, False), (int, -3, -3), (float, 2, 2.0), (float, 0.5, 0.5), (str, "x", "x"),
])
def test_value_of_its_own_json_type_is_kept(tp, value, want):
    got = json_value(tp, value)
    assert got == want and type(got) is tp


PROBS = [0.1, 0.2, 0.05, 0.4, 0.15, 0.1]


@pytest.mark.parametrize("cls, doc", [
    (SyncConfig, {"pairing_window_ms": "100", "debounce_frames": 3}),
    (SyncConfig, {"pairing_window_ms": True, "debounce_frames": 3}),
    (SyncConfig, {"pairing_window_ms": 100, "debounce_frames": 2.9}),
    (ObjectSlab, {"z_front": "0.4", "z_back": 0.5}),
    (ActionScores, {"predicted": "3", "probabilities": PROBS}),
    (ActionScores, {"predicted": 3.0, "probabilities": PROBS}),
    (VisionVerdict, {"vote": 1, "fingers_in_slab": 4, "thumb_in_slab": True, "evaluated_at": 0}),
    (VisionVerdict, {"vote": True, "fingers_in_slab": 4, "thumb_in_slab": True, "evaluated_at": 0.5}),
    (FaultProfile, {"torque_extra_noise": "0.5"}),
    # IntEnum table keys are the digit strings they are written as
    (FaultProfile, {"torque_misread": {"+3": 0.5}}),
    (FaultProfile, {"torque_misread": {" 3": 0.5}}),
    (FaultProfile, {"torque_misread": {"3": True}}),
    # array and tuple elements are JSON values of their element type too
    (NormalizationStats, {"mean": ["1.5"] * NUM_JOINTS, "std": [1.0] * NUM_JOINTS}),
    (NormalizationStats, {"mean": [0.0] * NUM_JOINTS, "std": [True] + [1.0] * (NUM_JOINTS - 1)}),
    (ActionScores, {"predicted": 3, "probabilities": [None, *PROBS[1:]]}),
    (TorqueWindow, {"samples": [[0.0] * WINDOW_SAMPLES] * (NUM_JOINTS - 1) + [[False] * WINDOW_SAMPLES]}),
    (TrialRecord, {"pipeline": "fused", "action": 3, "trial_index": 0, "released": True, "success": True,
                   "release_time_ms": 500, "faults": [1], "episode_log": None}),
    (FingertipDetection, {"box": [0.0, "0.1", 0.5, 0.9], "finger_type": "thumb",
                          "position_3d": [0.0, 0.0, 0.5], "confidence": 0.9, "timestamp": 0}),
    # a string is not an array of its characters
    (TrialRecord, {"pipeline": "fused", "action": 3, "trial_index": 0, "released": True, "success": True,
                   "release_time_ms": 500, "faults": "ab", "episode_log": None}),
], ids=["sync-string", "sync-bool", "sync-float", "slab-string", "scores-string-code", "scores-float-code",
        "verdict-int-vote", "verdict-float-time", "profile-string-noise", "profile-signed-key",
        "profile-padded-key", "profile-bool-probability", "stats-string-mean", "stats-bool-std",
        "scores-null-probability", "window-bool-sample", "trial-int-fault", "detection-string-box",
        "trial-string-faults"])
def test_wrongly_typed_document_value_is_refused(cls, doc):
    with pytest.raises(TypeError, match="expected"):
        cls.from_json_dict(doc)


def test_int_enum_table_keys_read_back_from_digit_strings():
    profile = FaultProfile.from_json_dict({"torque_misread": {"3": 0.5, "0": 1}})
    assert profile.torque_misread == {ActionClass.HOLD: 0.5, ActionClass.NO_ACTION: 1.0}

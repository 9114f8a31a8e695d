"""The exact canonical JSON text of one hand-built value per serialized type.

The round-trip properties in test_json_roundtrip.py show that a document
reads back to the same value; these pins show that the bytes written to
trials.jsonl, report.json, episode logs, model files and datasets do not
drift (key names, int vs float, enum codes, optional nulls, table keys).
"""
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from handover import fusion
from handover.classifier import (
    LabeledWindow,
    NormalizationStats,
    TrainingReport,
    _stored_arrays,
    build_network,
    load_model,
    save_model,
)
from handover.core import (
    ActionClass,
    FingerType,
    FingertipDetection,
    ObjectSlab,
    ReleaseDecision,
    TorqueWindow,
    dumps_canonical,
)
from handover.fusion import (
    FusedSample,
    Pipeline,
    SyncConfig,
    TorqueEvent,
    replay_episode_log,
    run_episode,
    write_episode_log,
)
from handover.harness import ReportTable, TrialRecord
from handover.synth import FaultProfile
from handover.vision_gate import VisionVerdict
from oracles import scores

_samples = np.full((7, 40), 0.5)
_samples[3, 7] = -1.25
WINDOW = TorqueWindow(samples=_samples, start_time=1200)
_rows = [["0.5"] * 40 for _ in range(7)]
_rows[3][7] = "-1.25"
WINDOW_TEXT = (
    '{"sample_rate_hz":40,"samples":['
    + ",".join("[" + ",".join(row) + "]" for row in _rows)
    + '],"start_time":1200}'
)

SCORES = scores([0.1, 0.2, 0.05, 0.4, 0.15, 0.1])
VERDICT = VisionVerdict(fingers_in_slab=4, thumb_in_slab=True, evaluated_at=1340)

GOLDEN = {
    "TorqueWindow": (WINDOW, WINDOW_TEXT),
    "LabeledWindow": (
        LabeledWindow(window=WINDOW, label=ActionClass.PULL_UP),
        '{"label":5,"window":' + WINDOW_TEXT + "}",
    ),
    "ActionScores": (SCORES, '{"predicted":3,"probabilities":[0.1,0.2,0.05,0.4,0.15,0.1]}'),
    "FingertipDetection": (
        FingertipDetection(box=(0, 0.2, 1, 0.45), finger_type=FingerType.THUMB,
                           position_3d=(0.01, -0.02, 0.5), confidence=0.875, timestamp=250),
        '{"box":[0.0,0.2,1.0,0.45],"confidence":0.875,"finger_type":"thumb",'
        '"position_3d":[0.01,-0.02,0.5],"timestamp":250}',
    ),
    "ObjectSlab": (ObjectSlab(z_front=0.4, z_back=1), '{"z_back":1.0,"z_front":0.4}'),
    "ReleaseDecision": (
        ReleaseDecision(action=ActionClass.PULL, decided_at=1375),
        '{"action":4,"decided_at":1375}',
    ),
    "NormalizationStats": (
        NormalizationStats(mean=[0.5, -1.0, 2.25, 0.0, 3.0, -0.125, 1.5],
                           std=[1.0, 0.5, 2.0, 1e-6, 4.0, 0.25, 3.5]),
        '{"mean":[0.5,-1.0,2.25,0.0,3.0,-0.125,1.5],"std":[1.0,0.5,2.0,1e-06,4.0,0.25,3.5]}',
    ),
    "TrainingReport": (
        TrainingReport(epoch_losses=[1.5, 0.75], epoch_train_accuracy=[0.5, 0.875],
                       epoch_holdout_accuracy=[0.25, 0.75], confusion_matrix=np.array([[3, 1], [0, 4]]),
                       holdout_accuracy=0.875, n_train=12, n_holdout=8, wall_seconds=1.5),
        '{"confusion_matrix":[[3,1],[0,4]],"epoch_holdout_accuracy":[0.25,0.75],'
        '"epoch_losses":[1.5,0.75],"epoch_train_accuracy":[0.5,0.875],"holdout_accuracy":0.875,'
        '"n_holdout":8,"n_train":12,"wall_seconds":1.5}',
    ),
    "SyncConfig": (SyncConfig(pairing_window_ms=80, debounce_frames=2),
                   '{"debounce_frames":2,"pairing_window_ms":80}'),
    "VisionVerdict": (VERDICT, '{"evaluated_at":1340,"fingers_in_slab":4,"thumb_in_slab":true,"vote":true}'),
    "FusedSample": (
        FusedSample(torque=TorqueEvent(scores=SCORES, timestamp=1375), vision=VERDICT),
        '{"fused_vote":true,"skew_ms":35,"torque":{"predicted":3,'
        '"probabilities":[0.1,0.2,0.05,0.4,0.15,0.1],"timestamp":1375},'
        '"vision":{"evaluated_at":1340,"fingers_in_slab":4,"thumb_in_slab":true,"vote":true}}',
    ),
    "FaultProfile": (
        FaultProfile(torque_misread={ActionClass.PULL: 0.25, ActionClass.BUMP: 0.5},
                     vision_spurious_grasp={ActionClass.NO_ACTION: 0.125}, torque_extra_noise=0.3),
        '{"torque_extra_noise":0.3,"torque_misread":{"1":0.5,"4":0.25},"vision_dropout":{},'
        '"vision_spurious_grasp":{"0":0.125}}',
    ),
    "TrialRecord": (
        TrialRecord(pipeline=Pipeline.FUSED, action=ActionClass.PULL_UP, trial_index=7,
                    release_time_ms=1500, faults=("torque_misread",),
                    episode_log="episodes/fused_pull_up_007.jsonl"),
        '{"action":5,"action_name":"pull_up","episode_log":"episodes/fused_pull_up_007.jsonl",'
        '"faults":["torque_misread"],"pipeline":"fused","release_time_ms":1500,"released":true,'
        '"success":true,"trial_index":7}',
    ),
    "TrialRecord-unreleased": (
        TrialRecord(pipeline=Pipeline.TORQUE_ONLY, action=ActionClass.NO_ACTION, trial_index=0,
                    release_time_ms=None, faults=(), episode_log=None),
        '{"action":0,"action_name":"no_action","episode_log":null,"faults":[],"pipeline":"torque_only",'
        '"release_time_ms":null,"released":false,"success":true,"trial_index":0}',
    ),
    "ReportTable": (
        ReportTable(trials_per_action=2, seed=5, actions=(ActionClass.HOLD, ActionClass.BUMP),
                    pipelines=(Pipeline.VISION_ONLY,),
                    per_action={Pipeline.VISION_ONLY: {ActionClass.HOLD: (2, 0), ActionClass.BUMP: (1, 1)}},
                    overall={Pipeline.VISION_ONLY: (4, 3)}, gates={"fused_overall": False},
                    notes=("a note",)),
        '{"actions":["hold","bump"],"gates":{"fused_overall":false},"notes":["a note"],'
        '"overall":{"vision_only":{"rate":0.75,"rate_percent":75,"successes":3,"trials":4}},'
        '"per_action":{"vision_only":{"bump":{"failures":1,"successes":1},'
        '"hold":{"failures":0,"successes":2}}},"pipelines":["vision_only"],"seed":5,'
        '"trials_per_action":2}',
    ),
}

# the types whose documents are read back as well as written
READ_BACK = {
    "TorqueWindow", "LabeledWindow", "ActionScores", "FingertipDetection", "ObjectSlab",
    "ReleaseDecision", "NormalizationStats", "SyncConfig", "VisionVerdict", "FusedSample",
    "FaultProfile", "TrialRecord", "TrialRecord-unreleased",
}


@pytest.mark.parametrize("name", GOLDEN)
def test_canonical_text_is_pinned(name):
    value, text = GOLDEN[name]
    assert dumps_canonical(value.to_json_dict()) == text


@pytest.mark.parametrize("name", sorted(READ_BACK))
def test_pinned_text_reads_back_to_itself(name):
    value, text = GOLDEN[name]
    back = type(value).from_json_dict(json.loads(text))
    assert dumps_canonical(back.to_json_dict()) == text


# the preset's 17 stored arrays, in the model file's sorted key order
MODEL_ARRAYS = (
    "0.weight", "1.beta", "1.gamma", "1.running_mean", "1.running_var", "10.bias", "10.weight",
    "3.weight", "4.beta", "4.gamma", "4.running_mean", "4.running_var",
    "6.weight", "7.beta", "7.gamma", "7.running_mean", "7.running_var",
)
# save_model's text for the preset whose stored arrays count on, in layer
# order, in steps of 1/8 from 0 (exact in binary; no random draw), with
# the golden input statistics
MODEL_SHA256 = "769a1b8ff8f50a138ac63eccbd477e72e9cf9a4f698296f44edd8b1eb6b72d26"


def test_model_file_text_is_pinned(tmp_path):
    stats, _text = GOLDEN["NormalizationStats"]
    net = build_network()
    start = 0
    for arr in _stored_arrays(net).values():
        arr[...] = np.arange(start, start + arr.size).reshape(arr.shape) / 8
        start += arr.size
    assert start == 25926
    path = tmp_path / "model.json"
    save_model(path, net, stats)
    text = path.read_text(encoding="utf-8")
    assert text.startswith('{"arrays": {"0.weight": [[[0.0, 0.125, 0.25]], [[0.375, 0.5, 0.625]], ')
    assert list(json.loads(text)) == ["arrays", "format", "normalization"]
    assert tuple(json.loads(text)["arrays"]) == MODEL_ARRAYS
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MODEL_SHA256
    save_model(tmp_path / "again.json", *load_model(path))
    assert (tmp_path / "again.json").read_text(encoding="utf-8") == text


# One hand-built episode for every pipeline: torque votes at 125, 375 and
# 500 ms around a non-vote at 250 ms, which no verdict lies within 20 ms
# of, so the fused pipeline logs it as unpaired. Each pipeline arms,
# disarms, re-arms and releases at 500 ms.
NO_VOTE = scores([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
EPISODE_EVENTS = [TorqueEvent(scores=s, timestamp=t)
                  for t, s in [(125, SCORES), (250, NO_VOTE), (375, SCORES), (500, SCORES)]]
EPISODE_VERDICTS = [
    VisionVerdict(fingers_in_slab=fingers, thumb_in_slab=thumb, evaluated_at=t)
    for t, fingers, thumb in [(100, 2, True), (133, 3, True), (225, 0, False), (367, 4, True), (500, 4, True)]
]
# run_episode reads only these fields of a script once its two streams are given
EPISODE_SCRIPT = SimpleNamespace(action=ActionClass.HOLD, slab=ObjectSlab(z_front=0.4, z_back=0.55),
                                 frames=None, faults=("vision_dropout",))


def _header(pipeline):
    return ('{"action":3,"faults":["vision_dropout"],"pipeline":"' + pipeline + '",'
            '"slab":{"z_back":0.55,"z_front":0.4},"sync_config":{"debounce_frames":2,"pairing_window_ms":20},'
            '"type":"header"}')


def _move(t, old, new):
    return '{"from":"' + old + '","t":' + str(t) + ',"to":"' + new + '","type":"transition"}'


def _fused(t, skew, vision):
    return ('{"fused_vote":true,"skew_ms":' + str(skew) + ',"torque":{"predicted":3,'
            '"probabilities":[0.1,0.2,0.05,0.4,0.15,0.1],"timestamp":' + str(t) + '},'
            '"type":"fused_sample","vision":' + vision + '}')


EPISODE_LOGS = {
    Pipeline.TORQUE_ONLY: [
        _header("torque_only"),
        '{"predicted":3,"source":"torque","t":125,"type":"vote_sample","vote":true}',
        _move(125, "holding_idle", "release_armed"),
        '{"predicted":0,"source":"torque","t":250,"type":"vote_sample","vote":false}',
        _move(250, "release_armed", "holding_idle"),
        '{"predicted":3,"source":"torque","t":375,"type":"vote_sample","vote":true}',
        _move(375, "holding_idle", "release_armed"),
        '{"predicted":3,"source":"torque","t":500,"type":"vote_sample","vote":true}',
        _move(500, "release_armed", "released"),
        '{"dropped_torque_events":0,"n_samples":4,"release_time_ms":500,"released":true,"type":"summary"}',
    ],
    Pipeline.VISION_ONLY: [
        _header("vision_only"),
        '{"fingers_in_slab":2,"source":"vision","t":100,"thumb_in_slab":true,"type":"vote_sample","vote":false}',
        '{"fingers_in_slab":3,"source":"vision","t":133,"thumb_in_slab":true,"type":"vote_sample","vote":true}',
        _move(133, "holding_idle", "release_armed"),
        '{"fingers_in_slab":0,"source":"vision","t":225,"thumb_in_slab":false,"type":"vote_sample","vote":false}',
        _move(225, "release_armed", "holding_idle"),
        '{"fingers_in_slab":4,"source":"vision","t":367,"thumb_in_slab":true,"type":"vote_sample","vote":true}',
        _move(367, "holding_idle", "release_armed"),
        '{"fingers_in_slab":4,"source":"vision","t":500,"thumb_in_slab":true,"type":"vote_sample","vote":true}',
        _move(500, "release_armed", "released"),
        '{"dropped_torque_events":0,"n_samples":5,"release_time_ms":500,"released":true,"type":"summary"}',
    ],
    Pipeline.FUSED: [
        _header("fused"),
        _fused(125, -8, '{"evaluated_at":133,"fingers_in_slab":3,"thumb_in_slab":true,"vote":true}'),
        _move(125, "holding_idle", "release_armed"),
        '{"t":250,"type":"unpaired_torque"}',
        _move(250, "release_armed", "holding_idle"),
        _fused(375, 8, '{"evaluated_at":367,"fingers_in_slab":4,"thumb_in_slab":true,"vote":true}'),
        _move(375, "holding_idle", "release_armed"),
        _fused(500, 0, '{"evaluated_at":500,"fingers_in_slab":4,"thumb_in_slab":true,"vote":true}'),
        _move(500, "release_armed", "released"),
        '{"action":3,"decided_at":500,"type":"decision"}',
        '{"dropped_torque_events":1,"n_samples":3,"release_time_ms":500,"released":true,"type":"summary"}',
    ],
}


@pytest.mark.parametrize("pipeline", list(Pipeline))
def test_episode_log_text_is_pinned(monkeypatch, tmp_path, pipeline):
    monkeypatch.setattr(fusion, "torque_event_stream", lambda script, net, stats: EPISODE_EVENTS)
    monkeypatch.setattr(fusion, "grasp_verdicts", lambda frames, slab: EPISODE_VERDICTS)
    outcome = run_episode(EPISODE_SCRIPT, None, None, SyncConfig(pairing_window_ms=20, debounce_frames=2),
                          pipeline)
    path = tmp_path / "episode.jsonl"
    write_episode_log(path, outcome)
    assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in EPISODE_LOGS[pipeline])
    result = replay_episode_log(path)
    assert result.matched, result.mismatches
    assert (result.released, result.release_time_ms) == (True, 500)

import json

import numpy as np
import pytest

from handover.core import (
    ActionClass,
    ActionScores,
    Decision,
    DetectionBlock,
    DetectionFrame,
    FingerType,
    FingertipDetection,
    ObjectSlab,
    ReleaseDecision,
    TorqueWindow,
    dumps_canonical,
    expected_decision,
)


class TestExpectedDecision:
    def test_table_rows(self):
        assert expected_decision(ActionClass.PULL) is Decision.RELEASE
        assert expected_decision(ActionClass.BUMP) is Decision.DO_NOT_RELEASE
        assert expected_decision(ActionClass.NO_ACTION) is Decision.DO_NOT_RELEASE
        assert expected_decision(ActionClass.PUSH) is Decision.DO_NOT_RELEASE
        assert expected_decision(ActionClass.HOLD) is Decision.RELEASE
        assert expected_decision(ActionClass.PULL_UP) is Decision.RELEASE

    def test_total_over_enumeration(self):
        decisions = {expected_decision(a) for a in ActionClass}
        assert decisions == {Decision.RELEASE, Decision.DO_NOT_RELEASE}
        assert len(list(ActionClass)) == 6

    def test_class_codes_stable(self):
        assert [int(a) for a in ActionClass] == [0, 1, 2, 3, 4, 5]
        assert ActionClass.NO_ACTION == 0
        assert ActionClass.PULL_UP == 5


class TestTorqueWindow:
    @pytest.mark.parametrize("shape", [(7, 39), (6, 40), (280,), (40, 7)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            TorqueWindow(samples=np.zeros(shape), start_time=0)

    def test_rejects_out_of_range(self):
        samples = np.zeros((7, 40))
        samples[3, 10] = 36.0
        with pytest.raises(ValueError, match="out of range"):
            TorqueWindow(samples=samples, start_time=0)

    def test_rejects_non_finite(self):
        samples = np.zeros((7, 40))
        samples[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            TorqueWindow(samples=samples, start_time=0)

    def test_samples_are_immutable(self):
        w = TorqueWindow(samples=np.zeros((7, 40)), start_time=0)
        with pytest.raises(ValueError):
            w.samples[0, 0] = 1.0

    def test_json_roundtrip(self, rng):
        w = TorqueWindow(samples=rng.uniform(-5, 5, (7, 40)), start_time=77)
        back = TorqueWindow.from_json_dict(json.loads(dumps_canonical(w.to_json_dict())))
        assert np.array_equal(back.samples, w.samples)
        assert back.start_time == 77


class TestActionScores:
    def test_from_probabilities_picks_argmax(self):
        probs = np.array([0.1, 0.1, 0.5, 0.1, 0.1, 0.1])
        assert ActionScores.from_probabilities(probs).predicted is ActionClass.PUSH

    def test_tie_breaks_to_lowest_code(self):
        probs = np.array([0.25, 0.25, 0.2, 0.1, 0.1, 0.1])
        assert ActionScores.from_probabilities(probs).predicted is ActionClass.NO_ACTION

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            ActionScores(probabilities=np.full(6, 0.2), predicted=ActionClass.NO_ACTION)

    def test_rejects_wrong_argmax(self):
        probs = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="argmax"):
            ActionScores(probabilities=probs, predicted=ActionClass.PULL)

    def test_rejects_negative(self):
        probs = np.array([1.2, -0.2, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-negative"):
            ActionScores(probabilities=probs, predicted=ActionClass.NO_ACTION)

    def test_json_roundtrip(self):
        scores = ActionScores.from_probabilities(np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]))
        back = ActionScores.from_json_dict(scores.to_json_dict())
        assert back.predicted is ActionClass.PULL
        assert np.allclose(back.probabilities, scores.probabilities)

    @pytest.mark.parametrize("probs", [
        [np.nan, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, np.nan],
        [np.inf, 0.0, 0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0, -np.inf, 0.0],
    ])
    def test_rejects_non_finite(self, probs):
        with pytest.raises(ValueError, match="finite"):
            ActionScores.from_probabilities(np.array(probs))

    def test_json_with_nan_rejected(self):
        doc = json.loads('{"probabilities": [NaN, 0, 0, 0, 0, 1], "predicted": 0}')
        with pytest.raises(ValueError, match="finite"):
            ActionScores.from_json_dict(doc)


BAD_PROBABILITY_ROWS = [
    [np.nan, 0.0, 0.0, 0.0, 0.0, 1.0],
    [0.5, 0.5, np.inf, 0.0, 0.0, 0.0],
    [1.2, -0.2, 0.0, 0.0, 0.0, 0.0],
    [0.2] * 6,
]


class TestProbabilityRows:
    def test_rows_equal_per_row_construction(self, rng):
        logits = rng.normal(0.0, 3.0, (17, 6))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        probs[3] = [0.25, 0.25, 0.2, 0.1, 0.1, 0.1]  # a tie goes to the lowest code
        rows = ActionScores.from_probability_rows(probs)
        assert len(rows) == 17
        for row, scores in zip(probs, rows):
            want = ActionScores.from_probabilities(row)
            assert scores.predicted is want.predicted
            assert np.array_equal(scores.probabilities, want.probabilities)
            assert not scores.probabilities.flags.writeable
            assert scores.to_json_dict() == want.to_json_dict()

    def test_copies_its_input(self):
        probs = np.eye(6)
        rows = ActionScores.from_probability_rows(probs)
        probs[0] = probs[1]
        assert rows[0].predicted is ActionClass.NO_ACTION
        assert rows[0].probabilities[0] == 1.0

    def test_empty_matrix(self):
        assert ActionScores.from_probability_rows(np.zeros((0, 6))) == []

    @pytest.mark.parametrize("shape", [(6,), (3, 5), (2, 6, 1)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError, match="probabilities"):
            ActionScores.from_probability_rows(np.full(shape, 1.0 / 6))

    @pytest.mark.parametrize("bad", BAD_PROBABILITY_ROWS)
    def test_bulk_checks_give_the_per_row_message(self, bad):
        with pytest.raises(ValueError) as per_row:
            ActionScores.from_probabilities(np.array(bad))
        matrix = np.vstack([np.eye(6)[:2], bad, np.eye(6)[2:]])
        with pytest.raises(ValueError) as bulk:
            ActionScores.from_probability_rows(matrix)
        assert str(bulk.value) == str(per_row.value)


class TestFingertipDetection:
    def good(self, **overrides):
        kwargs = dict(
            box=(0.1, 0.2, 0.3, 0.4),
            finger_type=FingerType.THUMB,
            position_3d=(0.0, 0.1, 0.5),
            confidence=0.9,
            timestamp=100,
        )
        kwargs.update(overrides)
        return FingertipDetection(**kwargs)

    def test_valid(self):
        d = self.good()
        assert d.finger_type is FingerType.THUMB

    def test_rejects_degenerate_box(self):
        with pytest.raises(ValueError, match="box"):
            self.good(box=(0.3, 0.2, 0.1, 0.4))

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="depth"):
            self.good(position_3d=(0.0, 0.0, -0.1))

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError, match="confidence"):
            self.good(confidence=1.2)

    def test_json_roundtrip(self):
        d = self.good()
        assert FingertipDetection.from_json_dict(d.to_json_dict()) == d

    @pytest.mark.parametrize("overrides", [
        dict(position_3d=(0.0, 0.0, np.nan)),
        dict(position_3d=(np.nan, 0.0, 0.4)),
        dict(position_3d=(0.0, np.inf, 0.4)),
        dict(position_3d=(0.0, 0.0, np.inf)),
        dict(box=(0.1, 0.2, np.inf, 0.4)),
        dict(box=(np.nan, 0.2, 0.3, 0.4)),
        dict(confidence=np.nan),
    ])
    def test_rejects_non_finite(self, overrides):
        with pytest.raises(ValueError, match="finite"):
            self.good(**overrides)


BAD_DETECTIONS = [
    dict(box=(0.3, 0.2, 0.1, 0.4)),
    dict(box=(0.1, 0.4, 0.3, 0.4)),
    dict(position_3d=(0.0, 0.0, -0.1)),
    dict(confidence=1.2),
    dict(confidence=-0.01),
    dict(position_3d=(0.0, 0.0, np.nan)),
    dict(position_3d=(np.nan, 0.0, 0.4)),
    dict(box=(0.1, 0.2, np.inf, 0.4)),
    dict(confidence=np.nan),
    dict(box=(0.2, 0.2, 0.2, 0.4)),
]


def detection_fields(**overrides):
    fields = dict(
        box=(0.1, 0.2, 0.3, 0.4),
        finger_type=FingerType.OTHER,
        position_3d=(0.0, 0.1, 0.5),
        confidence=0.9,
        timestamp=100,
    )
    fields.update(overrides)
    return fields


def block_of(rows, stamps=(100,), offsets=None):
    """A block whose detections are the given field dicts."""
    return DetectionBlock(
        stamps=list(stamps),
        offsets=[0, len(rows)] if offsets is None else offsets,
        boxes=[r["box"] for r in rows],
        positions=[r["position_3d"] for r in rows],
        confidence=[r["confidence"] for r in rows],
        thumb=[r["finger_type"] is FingerType.THUMB for r in rows],
        timestamps=[r["timestamp"] for r in rows],
    )


class TestDetectionBlock:
    @pytest.mark.parametrize("overrides", BAD_DETECTIONS)
    def test_bulk_checks_give_the_per_object_message(self, overrides):
        with pytest.raises(ValueError) as per_object:
            FingertipDetection(**detection_fields(**overrides))
        with pytest.raises(ValueError) as bulk:
            block_of([detection_fields(), detection_fields(**overrides), detection_fields()])
        assert str(bulk.value) == str(per_object.value)

    def test_empty_frames_and_empty_block(self):
        block = block_of([], stamps=(0, 33, 67), offsets=[0, 0, 0, 0])
        assert len(block) == 3
        assert [f.detections for f in block] == [(), (), ()]
        assert len(block_of([], stamps=(), offsets=[0])) == 0

    @pytest.mark.parametrize("offsets", [[1, 2], [0, 1], [0, 3], [0, 2, 1]])
    def test_rejects_bad_offsets(self, offsets):
        stamps = range(len(offsets) - 1)
        with pytest.raises(ValueError, match="offsets"):
            block_of([detection_fields()] * 2, stamps=stamps, offsets=offsets)

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError, match="positions"):
            DetectionBlock(
                stamps=[0], offsets=[0, 2], boxes=[(0.1, 0.1, 0.2, 0.2)] * 2,
                positions=[(0.0, 0.0, 0.5)], confidence=[0.9, 0.9], thumb=[True, False],
                timestamps=[0, 0],
            )

    def test_arrays_are_read_only(self):
        block = block_of([detection_fields()])
        with pytest.raises(ValueError):
            block.positions[0, 2] = 0.1

    def test_frames_are_built_once_on_access(self):
        block = block_of([detection_fields(), detection_fields(finger_type=FingerType.THUMB)])
        assert "_frames" not in vars(block)
        first = block[0]
        assert block[0] is first and next(iter(block)) is first
        assert first == DetectionFrame(timestamp=100, detections=(
            FingertipDetection(**detection_fields()),
            FingertipDetection(**detection_fields(finger_type=FingerType.THUMB)),
        ))


class TestObjectSlab:
    def test_valid(self):
        slab = ObjectSlab(z_front=0.4, z_back=0.55)
        assert slab.z_back > slab.z_front

    @pytest.mark.parametrize("front,back", [
        (0.5, 0.4), (0.0, 0.4), (-0.1, 0.4), (0.4, 0.4), (0.4, float("inf")), (float("nan"), 0.4),
    ])
    def test_rejects_bad_planes(self, front, back):
        with pytest.raises(ValueError):
            ObjectSlab(z_front=front, z_back=back)

    def test_json_roundtrip(self):
        slab = ObjectSlab(z_front=0.42, z_back=0.6)
        assert ObjectSlab.from_json_dict(slab.to_json_dict()) == slab


class TestReleaseDecision:
    def test_and_invariant_enforced(self):
        with pytest.raises(ValueError, match="AND"):
            ReleaseDecision(
                release=True, torque_vote=True, vision_vote=False,
                action=ActionClass.PULL, decided_at=0,
            )

    @pytest.mark.parametrize("tq,vi", [(True, True), (True, False), (False, True), (False, False)])
    def test_all_vote_combinations(self, tq, vi):
        d = ReleaseDecision(
            release=tq and vi, torque_vote=tq, vision_vote=vi,
            action=ActionClass.HOLD, decided_at=5,
        )
        assert d.release == (tq and vi)

    def test_json_roundtrip(self):
        d = ReleaseDecision(
            release=True, torque_vote=True, vision_vote=True,
            action=ActionClass.PULL_UP, decided_at=2500,
        )
        assert ReleaseDecision.from_json_dict(d.to_json_dict()) == d

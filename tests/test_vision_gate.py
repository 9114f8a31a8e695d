import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from handover.core import DetectionBlock, DetectionFrame, FingerType, FingertipDetection, ObjectSlab
from handover.vision_gate import (
    MIN_FINGERS_FOR_GRASP,
    VisionVerdict,
    evaluate_grasp,
    grasp_verdicts,
)

SLAB = ObjectSlab(z_front=0.4, z_back=0.6)


def detection(z, finger=FingerType.OTHER, confidence=0.9, ts=100):
    return FingertipDetection(
        box=(0.1, 0.1, 0.2, 0.2),
        finger_type=finger,
        position_3d=(0.0, 0.0, z),
        confidence=confidence,
        timestamp=ts,
    )


def rule_oracle(flags):
    """flags: (inside, is_thumb) pairs; the written-out grasp rule."""
    inside = [f for f in flags if f[0]]
    return len(inside) >= 3 and any(is_thumb for _, is_thumb in inside)


def in_slab(z, slab=SLAB):
    """Whether the grasp rule counts one confident fingertip at depth z."""
    return evaluate_grasp([detection(z)], slab).fingers_in_slab == 1


class TestInSlab:
    def test_front_plane_is_inclusive(self):
        assert in_slab(SLAB.z_front) is True

    def test_back_plane_is_inclusive(self):
        assert in_slab(SLAB.z_back) is True

    def test_just_beyond_back_plane(self):
        assert in_slab(SLAB.z_back + 0.01) is False

    def test_just_before_front_plane(self):
        assert in_slab(SLAB.z_front - 0.01) is False

    def test_matches_comparison_oracle(self, rng):
        for _ in range(200):
            z = float(rng.uniform(0.0, 1.0))
            want = SLAB.z_front <= z <= SLAB.z_back
            assert in_slab(z) is want

    def test_requires_slab_type(self):
        with pytest.raises(TypeError):
            in_slab(0.5, (0.4, 0.6))


class TestEvaluateGrasp:
    def test_three_in_slab_with_thumb_votes_release(self):
        dets = [detection(0.5, FingerType.THUMB), detection(0.45), detection(0.55)]
        verdict = evaluate_grasp(dets, SLAB)
        assert verdict.vote is True
        assert verdict.fingers_in_slab == 3
        assert verdict.thumb_in_slab is True

    def test_four_in_slab_without_thumb_votes_no(self):
        dets = [detection(0.42 + 0.03 * i) for i in range(4)]
        verdict = evaluate_grasp(dets, SLAB)
        assert verdict.vote is False
        assert verdict.fingers_in_slab == 4
        assert verdict.thumb_in_slab is False

    def test_two_in_slab_with_thumb_votes_no(self):
        dets = [detection(0.5, FingerType.THUMB), detection(0.45)]
        assert evaluate_grasp(dets, SLAB).vote is False

    def test_empty_frame_votes_no(self):
        verdict = evaluate_grasp([], SLAB, at_ms=500)
        assert verdict.vote is False
        assert verdict.fingers_in_slab == 0
        assert verdict.evaluated_at == 500

    def test_low_confidence_detections_ignored(self):
        dets = [
            detection(0.5, FingerType.THUMB, confidence=0.4),
            detection(0.45), detection(0.5), detection(0.55),
        ]
        verdict = evaluate_grasp(dets, SLAB)
        assert verdict.thumb_in_slab is False
        assert verdict.fingers_in_slab == 3
        assert verdict.vote is False

    def test_out_of_slab_thumb_does_not_count(self):
        dets = [detection(0.3, FingerType.THUMB), detection(0.45), detection(0.5), detection(0.55)]
        assert evaluate_grasp(dets, SLAB).vote is False

    def test_timestamp_defaults_to_latest_detection(self):
        dets = [detection(0.5, ts=120), detection(0.5, ts=180)]
        assert evaluate_grasp(dets, SLAB).evaluated_at == 180

    def test_exhaustive_five_finger_configurations(self):
        # all 4^5 = 1024 combinations of (in/out, thumb/other) for 5 fingers
        states = list(itertools.product([True, False], [True, False]))
        count = 0
        for combo in itertools.product(states, repeat=5):
            dets = [
                detection(0.5 if inside else 0.2,
                          FingerType.THUMB if is_thumb else FingerType.OTHER)
                for inside, is_thumb in combo
            ]
            verdict = evaluate_grasp(dets, SLAB)
            assert verdict.vote == rule_oracle(combo), combo
            count += 1
        assert count == 1024

    def test_monotone_in_in_slab_detections(self, rng):
        for _ in range(100):
            n = int(rng.integers(0, 6))
            dets = [
                detection(
                    float(rng.uniform(0.0, 1.0)),
                    FingerType.THUMB if rng.random() < 0.3 else FingerType.OTHER,
                )
                for _ in range(n)
            ]
            before = evaluate_grasp(dets, SLAB, at_ms=0)
            extra = detection(0.5, FingerType.THUMB if rng.random() < 0.5 else FingerType.OTHER)
            after = evaluate_grasp(dets + [extra], SLAB, at_ms=0)
            if before.vote:
                assert after.vote

    def test_permutation_invariance(self, rng):
        dets = [
            detection(z, FingerType.THUMB if i == 2 else FingerType.OTHER)
            for i, z in enumerate([0.3, 0.45, 0.5, 0.62, 0.58])
        ]
        base = evaluate_grasp(dets, SLAB, at_ms=0)
        for _ in range(10):
            perm = [dets[k] for k in rng.permutation(len(dets))]
            verdict = evaluate_grasp(perm, SLAB, at_ms=0)
            assert verdict.vote == base.vote
            assert verdict.fingers_in_slab == base.fingers_in_slab


class TestVisionVerdict:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError, match="vote"):
            VisionVerdict(vote=True, fingers_in_slab=2, thumb_in_slab=True, evaluated_at=0)
        with pytest.raises(ValueError, match="vote"):
            VisionVerdict(vote=False, fingers_in_slab=4, thumb_in_slab=True, evaluated_at=0)

    def test_json_roundtrip(self):
        v = VisionVerdict(vote=True, fingers_in_slab=4, thumb_in_slab=True, evaluated_at=321)
        assert VisionVerdict.from_json_dict(v.to_json_dict()) == v

    def test_min_fingers_constant(self):
        assert MIN_FINGERS_FOR_GRASP == 3


def oracle_verdict(detections, slab, at_ms=None):
    """The per-detection grasp rule, one object at a time; detections below
    the paper's 0.5 confidence are ignored."""
    kept = [d for d in detections if d.confidence >= 0.5]
    inside = [d for d in kept if slab.z_front <= d.position_3d[2] <= slab.z_back]
    thumb = any(d.finger_type is FingerType.THUMB for d in inside)
    if at_ms is None:
        at_ms = max((d.timestamp for d in detections), default=0)
    return VisionVerdict(
        vote=len(inside) >= MIN_FINGERS_FOR_GRASP and thumb,
        fingers_in_slab=len(inside),
        thumb_in_slab=thumb,
        evaluated_at=int(at_ms),
    )


def _near(value):
    # the value itself and its floating-point neighbours
    return st.sampled_from([value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf)])


@st.composite
def gate_cases(draw):
    """A slab and ragged frames of 0-6 detections whose depths and
    confidences often sit exactly on the rule's bounds."""
    z_front = draw(st.floats(0.05, 1.0))
    slab = ObjectSlab(z_front=z_front, z_back=z_front + draw(st.floats(0.01, 0.5)))
    depth = st.one_of(_near(slab.z_front), _near(slab.z_back), st.floats(0.0, 2.0))
    confidence = st.one_of(_near(0.5), st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    frames, stamp = [], 0
    for _ in range(draw(st.integers(0, 5))):
        stamp += draw(st.integers(1, 100))
        detections = tuple(
            FingertipDetection(
                box=(0.1, 0.1, 0.2, 0.2),
                finger_type=FingerType.THUMB if draw(st.booleans()) else FingerType.OTHER,
                position_3d=(0.0, 0.0, draw(depth)),
                confidence=draw(confidence),
                timestamp=stamp - draw(st.integers(0, 20)),
            )
            for _ in range(draw(st.integers(0, 6)))
        )
        frames.append(DetectionFrame(timestamp=stamp, detections=detections))
    return slab, frames


class TestArrayRuleMatchesOracle:
    @given(case=gate_cases(), give_stamp=st.booleans())
    def test_evaluate_grasp(self, case, give_stamp):
        slab, frames = case
        for frame in frames:
            at_ms = frame.timestamp if give_stamp else None
            assert evaluate_grasp(frame.detections, slab, at_ms) == oracle_verdict(frame.detections, slab, at_ms)

    @given(case=gate_cases())
    def test_whole_block(self, case):
        slab, frames = case
        got = grasp_verdicts(DetectionBlock.from_frames(frames), slab)
        assert got == [oracle_verdict(f.detections, slab, at_ms=f.timestamp) for f in frames]

    @pytest.mark.parametrize("thumbs", [(), (0,), (0, 1), (0, 1, 2, 3)])
    @pytest.mark.parametrize("z", [SLAB.z_front, SLAB.z_back])
    def test_thumb_counts_on_the_bounds(self, thumbs, z):
        dets = [
            detection(z, FingerType.THUMB if i in thumbs else FingerType.OTHER, confidence=0.5)
            for i in range(4)
        ]
        verdict = evaluate_grasp(dets, SLAB)
        assert verdict == oracle_verdict(dets, SLAB)
        assert verdict.fingers_in_slab == 4
        assert verdict.vote is bool(thumbs)

    def test_rule_requires_slab_type(self):
        with pytest.raises(TypeError):
            evaluate_grasp([detection(0.5)], (0.4, 0.6))

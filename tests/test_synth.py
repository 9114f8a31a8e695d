import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from handover import synth
from handover.core import (
    ActionClass,
    DetectionBlock,
    DetectionFrame,
    FingerType,
    FingertipDetection,
    ObjectSlab,
    dumps_canonical,
)
from handover.fusion import Pipeline
from handover.harness import ExperimentConfig, default_fault_profiles
from handover.synth import (
    EPISODE_FRAMES,
    EPISODE_SAMPLES,
    ActionProfile,
    FaultProfile,
    ProfileShape,
    ScenarioScript,
    TorqueSignatureModel,
    default_signature_model,
    generate_dataset,
    generate_scenario,
    generate_window,
)
from handover.vision_gate import evaluate_grasp, grasp_verdicts
from oracles import block_from_frames


def constant_model(shape=ProfileShape.STEP, amp=None, onset=(250.0, 250.0), **kwargs):
    """A jitter-free, noise-free model for exactness tests."""
    base = default_signature_model()
    amps = np.zeros(7) if amp is None else amp
    profiles = dict(base.profiles)
    profiles[ActionClass.PULL] = ActionProfile(shape, amps, onset, duration_ms=kwargs.get("duration", 400.0))
    return TorqueSignatureModel(
        baseline=kwargs.get("baseline", base.baseline),
        profiles=profiles,
        noise_sigma=0.0,
        amplitude_jitter=0.0,
    )


class TestModelChecks:
    @pytest.mark.parametrize("shape", [ProfileShape.RAMP, ProfileShape.IMPULSE])
    def test_ramp_and_impulse_need_a_positive_duration(self, shape):
        with pytest.raises(ValueError, match="positive duration"):
            ActionProfile(shape, np.ones(7), (250.0, 250.0), duration_ms=0.0)

    def test_amplitude_jitter_must_be_below_one(self):
        base = default_signature_model()
        with pytest.raises(ValueError, match="amplitude_jitter"):
            TorqueSignatureModel(baseline=base.baseline, profiles=base.profiles, amplitude_jitter=1.0)

    # nan would draw no noise at all and inf would pin every sample at the torque limit
    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_noise_sigma_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValueError, match="noise_sigma"):
            default_signature_model(noise_sigma=noise)

    def test_impulse_is_a_half_open_pulse(self):
        amp = np.zeros(7)
        amp[2] = 3.5
        model = constant_model(ProfileShape.IMPULSE, amp, onset=(250.0, 250.0), duration=100.0, baseline=np.zeros(7))
        row = generate_window(model, ActionClass.PULL, seed=0).window.samples[2]
        # samples 10-14 sit at 0, 25, 50, 75 and 100 ms after onset: the pulse
        # is sin(pi * t / 100) on [0, 100), exactly zero at both ends
        assert row[10] == 0.0 and row[14] == 0.0
        assert np.all(row[11:14] > 0.0)


class TestGenerateWindow:
    def test_no_action_with_zero_noise_is_baseline(self):
        model = constant_model()
        item = generate_window(model, ActionClass.NO_ACTION, seed=4)
        assert item.label is ActionClass.NO_ACTION
        want = np.repeat(model.baseline[:, None], 40, axis=1)
        assert np.array_equal(item.window.samples, want)

    def test_step_amplitude_lands_after_onset(self):
        amp = np.zeros(7)
        amp[2] = 3.5
        model = constant_model(amp=amp, onset=(250.0, 250.0))
        item = generate_window(model, ActionClass.PULL, seed=0)
        row = item.window.samples[2]
        base = model.baseline[2]
        # onset 250 ms = sample 10 at 25 ms per sample
        assert np.allclose(row[:10], base)
        assert np.allclose(row[10:], base + 3.5)
        # other joints untouched
        assert np.allclose(item.window.samples[0], model.baseline[0])

    def test_deterministic_per_seed(self):
        model = default_signature_model()
        a = generate_window(model, ActionClass.PULL_UP, seed=77)
        b = generate_window(model, ActionClass.PULL_UP, seed=77)
        assert np.array_equal(a.window.samples, b.window.samples)

    def test_different_seeds_differ(self):
        model = default_signature_model()
        a = generate_window(model, ActionClass.PULL, seed=1)
        b = generate_window(model, ActionClass.PULL, seed=2)
        assert not np.array_equal(a.window.samples, b.window.samples)

    def test_unknown_action_rejected(self):
        model = default_signature_model()
        profiles = {k: v for k, v in model.profiles.items() if k is not ActionClass.BUMP}
        trimmed = TorqueSignatureModel(
            baseline=model.baseline, profiles=profiles,
            noise_sigma=0.1, amplitude_jitter=0.1,
        )
        with pytest.raises(ValueError, match="no profile"):
            generate_window(trimmed, ActionClass.BUMP, seed=0)

    def test_all_classes_respect_bounds(self, rng):
        model = default_signature_model()
        for action in ActionClass:
            for k in range(10):
                item = generate_window(model, action, seed=int(rng.integers(1 << 30)))
                assert np.all(np.abs(item.window.samples) <= 35.0)
                assert item.label is action


class TestGenerateDataset:
    def test_per_class_two_gives_twelve(self):
        items = generate_dataset(default_signature_model(), per_class_count=2, seed=0)
        assert len(items) == 12

    def test_histogram_exactly_uniform(self):
        items = generate_dataset(default_signature_model(), per_class_count=5, seed=0)
        counts = {action: 0 for action in ActionClass}
        for item in items:
            counts[item.label] += 1
        assert all(v == 5 for v in counts.values())

    def test_rejects_tiny_counts(self):
        with pytest.raises(ValueError, match="per_class_count"):
            generate_dataset(default_signature_model(), per_class_count=1, seed=0)

    def test_byte_identical_for_same_seed(self):
        a = generate_dataset(default_signature_model(), per_class_count=3, seed=9)
        b = generate_dataset(default_signature_model(), per_class_count=3, seed=9)
        dump_a = "\n".join(dumps_canonical(i.to_json_dict()) for i in a)
        dump_b = "\n".join(dumps_canonical(i.to_json_dict()) for i in b)
        assert dump_a == dump_b

    def test_start_times_monotone(self):
        items = generate_dataset(default_signature_model(), per_class_count=2, seed=0)
        stamps = [i.window.start_time for i in items]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)


class TestFaultProfile:
    def test_probability_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultProfile(torque_misread={ActionClass.PULL: 1.5})

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="extra_noise"):
            FaultProfile(torque_extra_noise=-0.1)

    @pytest.mark.parametrize("noise", [float("inf"), float("nan")])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="extra_noise"):
            FaultProfile(torque_extra_noise=noise)

    def test_json_roundtrip(self):
        profile = FaultProfile.torque_degraded()
        back = FaultProfile.from_json_dict(profile.to_json_dict())
        assert back.torque_misread == profile.torque_misread

    def test_calibrated_defaults_exist(self):
        assert FaultProfile.clean().torque_misread == {}
        assert ActionClass.HOLD in FaultProfile.torque_degraded().torque_misread
        assert ActionClass.PULL_UP in FaultProfile.vision_degraded().vision_dropout
        assert ActionClass.PUSH in FaultProfile.fused_nominal().torque_misread


class BoundaryDraws(np.random.Generator):
    """A seeded generator whose fault draws, dropout-mode coin and grasp-time
    offset are set by the test, so a scenario can sit exactly on a bound."""

    def __init__(self, faults=(0.0, 0.0, 0.0), coin=0.5, grasp_offset_ms=17.0):
        super().__init__(np.random.PCG64(0))
        self.faults, self.coin, self.grasp_offset_ms = faults, coin, grasp_offset_ms

    def random(self, size=None, dtype=np.float64, out=None):
        if size == 3:  # the three fault draws
            return np.array(self.faults)
        if size is None:  # the dropout-mode coin
            return self.coin
        return super().random(size, dtype, out)

    def uniform(self, low=0.0, high=1.0, size=None):
        if (low, high) == (0.0, 250.0):  # the grasp time after 1,250 ms
            return self.grasp_offset_ms
        return super().uniform(low, high, size)


class TestScenarioBounds:
    def script(self, **overrides):
        fields = dict(
            action=ActionClass.HOLD, torques=np.zeros((7, 40)), torque_start_ms=0,
            frames=block_from_frames(()),
            slab=ObjectSlab(z_front=0.4, z_back=0.55), faults=(), action_onset_ms=1800, grasp_at_ms=1250,
        )
        fields.update(overrides)
        return ScenarioScript(**fields)

    def test_one_window_of_torque_is_enough(self):
        assert self.script().torques.shape == (7, 40)

    @pytest.mark.parametrize("shape", [(7, 39), (6, 120)])
    def test_rejects_a_bad_torque_shape(self, shape):
        with pytest.raises(ValueError, match="torque stream"):
            self.script(torques=np.zeros(shape))

    @pytest.mark.parametrize("value", [40.0, -40.0, float("nan")])
    def test_rejects_a_torque_sample_out_of_range(self, value):
        torques = np.zeros((7, 40))
        torques[3, 17] = value
        with pytest.raises(ValueError, match="out of range" if np.isfinite(value) else "finite"):
            self.script(torques=torques)

    def test_grasp_at_the_onset_is_rejected(self):
        with pytest.raises(ValueError, match="precede"):
            self.script(grasp_at_ms=1800)

    def test_zero_probability_faults_never_fire(self):
        script = generate_scenario(ActionClass.HOLD, FaultProfile.clean(), BoundaryDraws(faults=(0.0, 0.0, 0.0)))
        assert script.faults == ()

    def test_a_dropout_coin_of_one_half_drops_two_fingers(self):
        profile = FaultProfile(vision_dropout={ActionClass.HOLD: 1.0})
        script = generate_scenario(ActionClass.HOLD, profile, BoundaryDraws(coin=0.5))
        last = grasp_verdicts(script.frames, script.slab)[-1]
        assert (last.fingers_in_slab, last.thumb_in_slab) == (2, True)

    def test_fingers_are_in_the_slab_from_the_frame_stamped_at_the_grasp(self):
        script = generate_scenario(ActionClass.HOLD, FaultProfile.clean(), BoundaryDraws(grasp_offset_ms=17.0))
        assert script.grasp_at_ms == 1267
        k = script.frames.stamps.tolist().index(1267)
        verdicts = grasp_verdicts(script.frames, script.slab)
        assert (verdicts[k - 1].fingers_in_slab, verdicts[k].fingers_in_slab) == (0, 4)


class TestGenerateScenario:
    def grasp_satisfied_at_some_frame(self, script):
        return any(
            evaluate_grasp(f.detections, script.slab, at_ms=f.timestamp).vote
            for f in script.frames
        )

    def test_push_scenario_wraps_and_fools_vision(self):
        script = generate_scenario(ActionClass.PUSH, FaultProfile.clean(), seed=3)
        assert self.grasp_satisfied_at_some_frame(script)

    def test_no_action_scenario_has_no_detections(self):
        script = generate_scenario(ActionClass.NO_ACTION, FaultProfile.clean(), seed=3)
        assert all(len(f.detections) == 0 for f in script.frames)

    def test_bump_keeps_fingers_out_of_slab(self):
        script = generate_scenario(ActionClass.BUMP, FaultProfile.clean(), seed=3)
        assert not self.grasp_satisfied_at_some_frame(script)
        assert any(f.detections for f in script.frames)

    @pytest.mark.parametrize("action", [ActionClass.HOLD, ActionClass.PULL, ActionClass.PULL_UP])
    def test_release_actions_form_a_grasp(self, action):
        script = generate_scenario(action, FaultProfile.clean(), seed=5)
        assert self.grasp_satisfied_at_some_frame(script)
        assert script.grasp_at_ms is not None
        assert script.grasp_at_ms < script.action_onset_ms

    def test_stream_shapes_and_ordering(self):
        script = generate_scenario(ActionClass.PULL, FaultProfile.clean(), seed=8)
        assert script.torques.shape == (7, EPISODE_SAMPLES)
        assert len(script.frames) == EPISODE_FRAMES
        stamps = [f.timestamp for f in script.frames]
        assert stamps == sorted(stamps)

    def test_deterministic_per_seed(self):
        a = generate_scenario(ActionClass.HOLD, FaultProfile.vision_degraded(), seed=13)
        b = generate_scenario(ActionClass.HOLD, FaultProfile.vision_degraded(), seed=13)
        assert np.array_equal(a.torques, b.torques)
        assert a.faults == b.faults
        assert len(a.frames) == len(b.frames)
        for fa, fb in zip(a.frames, b.frames):
            assert fa == fb

    def test_forced_misread_is_recorded(self):
        profile = FaultProfile(torque_misread={ActionClass.HOLD: 1.0})
        script = generate_scenario(ActionClass.HOLD, profile, seed=2)
        assert script.faults == ("torque_misread:hold->no_action",)

    def test_forced_dropout_blocks_grasp_rule(self):
        profile = FaultProfile(vision_dropout={ActionClass.PULL: 1.0})
        script = generate_scenario(ActionClass.PULL, profile, seed=2)
        assert "vision_dropout" in script.faults
        assert not self.grasp_satisfied_at_some_frame(script)

    def test_forced_spurious_grasp_on_bump(self):
        profile = FaultProfile(vision_spurious_grasp={ActionClass.BUMP: 1.0})
        script = generate_scenario(ActionClass.BUMP, profile, seed=2)
        assert "vision_spurious_grasp" in script.faults
        assert self.grasp_satisfied_at_some_frame(script)

    def test_thumb_present_in_grasp_frames(self):
        script = generate_scenario(ActionClass.HOLD, FaultProfile.clean(), seed=4)
        late = script.frames[-1]
        thumbs = [d for d in late.detections if d.finger_type is FingerType.THUMB]
        assert len(thumbs) == 1

    def test_extra_noise_applied(self):
        quiet = generate_scenario(ActionClass.NO_ACTION, FaultProfile.clean(), seed=6)
        noisy = generate_scenario(
            ActionClass.NO_ACTION, FaultProfile(torque_extra_noise=2.0), seed=6
        )
        assert noisy.torques.std() > quiet.torques.std()


def reference_scenario(action, profile, seed):
    """The frame-by-frame scenario generator, one rng.uniform per value:
    the oracle for generate_scenario's block-drawn fingertip noise.

    Returns the script and the ``DetectionFrame`` objects it was built from,
    so the generated frames can be compared with objects made one by one."""
    action = ActionClass(action)
    rng = np.random.default_rng(seed)

    r_misread, r_dropout, r_spurious = rng.random(3)
    misread = r_misread < profile.torque_misread.get(action, 0.0) and action in synth.MISREAD_TARGET
    dropout = r_dropout < profile.vision_dropout.get(action, 0.0)
    spurious = r_spurious < profile.vision_spurious_grasp.get(action, 0.0)

    faults = []
    effective_action = action
    if misread:
        effective_action = synth.MISREAD_TARGET[action]
        faults.append(f"torque_misread:{action.name.lower()}->{effective_action.name.lower()}")
    if dropout:
        faults.append("vision_dropout")
    if spurious:
        faults.append("vision_spurious_grasp")

    onset_ms = 1800.0 + rng.uniform(0.0, 200.0)
    torques = synth._render_torques(
        default_signature_model(), effective_action, EPISODE_SAMPLES, onset_ms, rng,
        extra_noise=profile.torque_extra_noise,
    )

    z_front = 0.40 + rng.uniform(0.0, 0.05)
    slab = ObjectSlab(z_front=z_front, z_back=z_front + 0.14 + rng.uniform(0.0, 0.03))

    grasp_forms = action in synth.WRAP_ACTIONS or spurious
    grasp_at = 1250.0 + rng.uniform(0.0, 250.0) if grasp_forms else None
    dropout_mode = None
    if dropout and grasp_forms:
        dropout_mode = "thumb_out" if rng.random() < 0.5 else "two_fingers"

    centers = synth._finger_boxes(rng)
    depth_fracs = 0.25 + 0.5 * rng.random(4)
    thickness = slab.z_back - slab.z_front

    near_miss = action is ActionClass.BUMP and not spurious
    show_fingers = action is not ActionClass.NO_ACTION

    frames = []
    for i in range(EPISODE_FRAMES):
        ts = round(i * 1000.0 / synth.VISION_RATE_HZ)
        detections = []
        if show_fingers:
            grasped = grasp_at is not None and ts >= grasp_at
            for f in range(4):
                if grasped:
                    inside = True
                    if dropout_mode == "thumb_out" and f == 0:
                        inside = False
                    if dropout_mode == "two_fingers" and f >= 2:
                        inside = False
                    if inside:
                        z = slab.z_front + depth_fracs[f] * thickness + rng.uniform(-0.005, 0.005)
                        z = min(max(z, slab.z_front + 0.005), slab.z_back - 0.005)
                    else:
                        z = slab.z_front - 0.05 + rng.uniform(-0.01, 0.01)
                elif near_miss and 1200 <= ts <= 2600:
                    z = slab.z_front - 0.03 + rng.uniform(-0.01, 0.01)
                else:
                    progress = min(ts / 1250.0, 1.0)
                    z = slab.z_front - 0.12 + 0.07 * progress + rng.uniform(-0.01, 0.01)
                cx, cy = centers[f]
                cx += rng.uniform(-0.005, 0.005)
                cy += rng.uniform(-0.005, 0.005)
                detections.append(FingertipDetection(
                    box=(cx - 0.04, cy - 0.04, cx + 0.04, cy + 0.04),
                    finger_type=FingerType.THUMB if f == 0 else FingerType.OTHER,
                    position_3d=(cx - 0.5, cy - 0.5, max(z, 0.0)),
                    confidence=rng.uniform(0.75, 0.98),
                    timestamp=ts,
                ))
        frames.append(DetectionFrame(timestamp=ts, detections=tuple(detections)))

    script = ScenarioScript(
        action=action,
        torques=torques,
        torque_start_ms=0,
        frames=block_from_frames(frames),
        slab=slab,
        faults=tuple(faults),
        action_onset_ms=int(round(onset_ms)),
        grasp_at_ms=int(round(grasp_at)) if grasp_at is not None else None,
    )
    return script, tuple(frames)


def assert_same_script(got, reference):
    want, want_frames = reference
    for field in dataclasses.fields(ScenarioScript):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "frames":
            # the generated block's frames, one for one, equal the reference's objects
            assert len(a) == len(want_frames), field.name
            assert tuple(a) == want_frames, field.name
        elif isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


class TestScenarioOracle:
    def test_default_grid_seeds_match_reference(self):
        config = ExperimentConfig()
        profiles = default_fault_profiles()
        for pipeline in config.pipelines:
            for action in config.actions:
                for k in range(config.trials_per_action):
                    seed = np.random.SeedSequence(
                        entropy=config.seed,
                        spawn_key=(list(Pipeline).index(pipeline), int(action), k),
                    )
                    profile = profiles[pipeline]
                    assert_same_script(
                        generate_scenario(action, profile, seed),
                        reference_scenario(action, profile, seed),
                    )

    @given(
        seed=st.integers(0, 2**64 - 1),
        action=st.sampled_from(list(ActionClass)),
        p=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        extra_noise=st.floats(0.0, 2.0),
    )
    def test_random_seeds_and_faults_match_reference(self, seed, action, p, extra_noise):
        profile = FaultProfile(
            torque_misread={action: p[0]},
            vision_dropout={action: p[1]},
            vision_spurious_grasp={action: p[2]},
            torque_extra_noise=extra_noise,
        )
        assert_same_script(
            generate_scenario(action, profile, seed),
            reference_scenario(action, profile, seed),
        )

    def test_caller_generator_left_where_reference_leaves_it(self):
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        for action in ActionClass:
            assert_same_script(
                generate_scenario(action, FaultProfile.vision_degraded(), got_rng),
                reference_scenario(action, FaultProfile.vision_degraded(), want_rng),
            )
        assert got_rng.random() == want_rng.random()


def hand_made_frames():
    def det(z, finger=FingerType.OTHER, ts=0, **kw):
        return FingertipDetection(
            box=kw.get("box", (0.1, 0.2, 0.3, 0.4)), finger_type=finger,
            position_3d=(kw.get("x", 0.0), 0.1, z), confidence=kw.get("confidence", 0.9),
            timestamp=ts,
        )

    return (
        DetectionFrame(timestamp=0, detections=()),
        DetectionFrame(timestamp=33, detections=(det(0.5, FingerType.THUMB, 33), det(0.0, ts=30))),
        DetectionFrame(timestamp=67, detections=()),
        DetectionFrame(timestamp=100, detections=tuple(
            det(0.4 + 0.01 * i, FingerType.THUMB if i % 3 == 0 else FingerType.OTHER, 100 - i,
                box=(0, 0, 1, 1), x=-0.5, confidence=i / 5)
            for i in range(6)
        )),
    )


class TestScenarioFrames:
    def script_with(self, frames):
        base = generate_scenario(ActionClass.PULL, FaultProfile.clean(), seed=1)
        return ScenarioScript(
            action=base.action, torques=base.torques, torque_start_ms=0, frames=frames,
            slab=base.slab, faults=(), action_onset_ms=base.action_onset_ms,
            grasp_at_ms=base.grasp_at_ms,
        )

    def test_block_gives_back_hand_made_frames(self):
        frames = hand_made_frames()
        block = block_from_frames(frames)
        assert len(block) == len(frames)
        assert tuple(block) == frames
        assert block.offsets.tolist() == [0, 0, 2, 2, 8]

    def test_script_takes_only_a_block(self):
        generated = generate_scenario(ActionClass.HOLD, FaultProfile.clean(), seed=2)
        assert isinstance(generated.frames, DetectionBlock)
        assert self.script_with(generated.frames).frames is generated.frames
        assert tuple(self.script_with(block_from_frames(hand_made_frames())).frames) == hand_made_frames()
        assert len(self.script_with(block_from_frames(())).frames) == 0
        for frames in (hand_made_frames(), list(hand_made_frames()), ()):
            with pytest.raises(TypeError, match=f"DetectionBlock, got {type(frames).__name__}"):
                self.script_with(frames)

    @pytest.mark.parametrize("stamps", [(0, 33, 33, 100), (0, 67, 33, 100)])
    def test_frame_stamps_must_rise(self, stamps):
        frames = tuple(
            DetectionFrame(timestamp=t, detections=f.detections)
            for t, f in zip(stamps, hand_made_frames())
        )
        with pytest.raises(ValueError, match="time-ordered"):
            self.script_with(block_from_frames(frames))

"""Seeded synthetic torque and fingertip streams.

The torque signature model is a physically motivated stand-in for real
receiver behavior: each action is a baseline holding torque plus a shaped
delta (step for pull/push with opposite signs, half-sine impulse for bump,
ramp for pull-up, low sustained step for hold) with amplitude jitter and
Gaussian noise. Scenario scripts add a 30 Hz fingertip-detection stream
over a 3-second approach/contact/action episode, with optional fault
injection used by the experiment harness to degrade a modality.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .classifier import LabeledWindow
from .core import (
    NUM_JOINTS,
    OPTIONAL_KEY,
    SAMPLE_DT_MS,
    TORQUE_LIMIT_NM,
    WINDOW_SAMPLES,
    ActionClass,
    DetectionBlock,
    DetectionFrame as DetectionFrame,  # re-exported: hand-built scripts pass frames
    JsonCodec,
    ObjectSlab,
    TorqueWindow,
)

WINDOW_MS = 1000
EPISODE_MS = 3000
EPISODE_SAMPLES = EPISODE_MS // SAMPLE_DT_MS  # 120
VISION_RATE_HZ = 30
EPISODE_FRAMES = 90

Seed = int | np.random.SeedSequence | np.random.Generator


def _rng_from(seed: Seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class ProfileShape(Enum):
    STEP = "step"
    RAMP = "ramp"
    IMPULSE = "impulse"
    NULL = "null"


@dataclass(frozen=True)
class ActionProfile:
    """Shaped torque delta: per-joint amplitudes applied along a time profile.

    ``onset_range_ms`` is sampled uniformly per window; a negative onset
    means the action was already underway when the window started.
    ``duration_ms`` is the impulse width or ramp rise time (steps sustain).
    """

    shape: ProfileShape
    amplitudes: np.ndarray
    onset_range_ms: tuple[float, float]
    duration_ms: float = 0.0

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.float64).reshape(NUM_JOINTS)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        lo, hi = self.onset_range_ms
        if lo > hi:
            raise ValueError("onset range must be (low, high)")
        if self.shape in (ProfileShape.RAMP, ProfileShape.IMPULSE) and self.duration_ms <= 0:
            raise ValueError(f"{self.shape.value} profile needs a positive duration")


def _activation(shape: ProfileShape, times_ms: np.ndarray, onset_ms: float, duration_ms: float) -> np.ndarray:
    rel = times_ms - onset_ms
    if shape is ProfileShape.NULL:
        return np.zeros_like(rel)
    if shape is ProfileShape.STEP:
        return (rel >= 0.0).astype(np.float64)
    if shape is ProfileShape.RAMP:
        return np.clip(rel / duration_ms, 0.0, 1.0)
    if shape is ProfileShape.IMPULSE:
        inside = (rel >= 0.0) & (rel < duration_ms)
        out = np.zeros_like(rel)
        out[inside] = np.sin(np.pi * rel[inside] / duration_ms)
        return out
    raise ValueError(f"unknown profile shape {shape!r}")


@dataclass(frozen=True)
class TorqueSignatureModel:
    baseline: np.ndarray
    profiles: dict[ActionClass, ActionProfile]
    noise_sigma: float = 0.4
    amplitude_jitter: float = 0.2

    def __post_init__(self) -> None:
        base = np.asarray(self.baseline, dtype=np.float64).reshape(NUM_JOINTS)
        base.flags.writeable = False
        object.__setattr__(self, "baseline", base)
        if self.noise_sigma < 0.0 or not 0.0 <= self.amplitude_jitter < 1.0:
            raise ValueError("noise_sigma >= 0 and amplitude_jitter in [0, 1) required")
        null = self.profiles.get(ActionClass.NO_ACTION)
        if null is not None and null.shape is not ProfileShape.NULL:
            raise ValueError("the no-action profile must be the null shape")


def default_signature_model(noise_sigma: float = 0.4) -> TorqueSignatureModel:
    """Default six-action model; amplitudes in N*m on the 7 joints."""
    profiles = {
        ActionClass.NO_ACTION: ActionProfile(
            ProfileShape.NULL, np.zeros(NUM_JOINTS), (0.0, 0.0)
        ),
        ActionClass.BUMP: ActionProfile(
            ProfileShape.IMPULSE,
            [2.5, 5.5, 3.0, 7.5, 2.0, 4.5, 1.5],
            (50.0, 700.0),
            duration_ms=200.0,
        ),
        ActionClass.PUSH: ActionProfile(
            ProfileShape.STEP,
            [-1.0, -6.5, -1.2, -8.5, -0.7, -3.6, -0.3],
            (-400.0, 500.0),
        ),
        ActionClass.HOLD: ActionProfile(
            ProfileShape.STEP,
            [0.3, 2.2, 0.5, 1.8, 0.4, 1.2, 0.15],
            (-400.0, 500.0),
        ),
        ActionClass.PULL: ActionProfile(
            ProfileShape.STEP,
            [1.0, 7.0, 1.5, 9.0, 0.8, 4.0, 0.3],
            (-400.0, 500.0),
        ),
        ActionClass.PULL_UP: ActionProfile(
            ProfileShape.RAMP,
            [0.4, 10.0, 0.8, 5.0, 2.5, 6.5, 0.9],
            (-400.0, 400.0),
            duration_ms=600.0,
        ),
    }
    return TorqueSignatureModel(
        baseline=[1.5, 9.0, 2.0, 6.5, 1.0, 1.8, 0.4],
        profiles=profiles,
        noise_sigma=noise_sigma,
    )


_SCENARIO_SIGNATURES = default_signature_model()  # every scenario renders with the default model


def _render_torques(
    model: TorqueSignatureModel,
    action: ActionClass,
    n_samples: int,
    onset_ms: float,
    rng: np.random.Generator,
    extra_noise: float = 0.0,
) -> np.ndarray:
    profile = model.profiles.get(ActionClass(action))
    if profile is None:
        raise ValueError(f"signature model has no profile for {action!r}")
    times = np.arange(n_samples, dtype=np.float64) * SAMPLE_DT_MS
    act = _activation(profile.shape, times, onset_ms, profile.duration_ms)
    scale = 1.0 + rng.uniform(-model.amplitude_jitter, model.amplitude_jitter)
    sigma = model.noise_sigma + extra_noise
    noise = rng.normal(0.0, sigma, size=(NUM_JOINTS, n_samples)) if sigma > 0 else 0.0
    samples = model.baseline[:, None] + scale * profile.amplitudes[:, None] * act[None, :] + noise
    return np.clip(samples, -TORQUE_LIMIT_NM, TORQUE_LIMIT_NM)


def generate_window(
    model: TorqueSignatureModel,
    action: ActionClass,
    seed: Seed,
    start_time: int = 0,
) -> LabeledWindow:
    """One labeled training window; deterministic for a fixed seed."""
    rng = _rng_from(seed)
    profile = model.profiles.get(ActionClass(action))
    if profile is None:
        raise ValueError(f"signature model has no profile for {action!r}")
    onset = rng.uniform(*profile.onset_range_ms)
    samples = _render_torques(model, action, WINDOW_SAMPLES, onset, rng)
    window = TorqueWindow(samples=samples, start_time=start_time)
    return LabeledWindow(window=window, label=ActionClass(action))


def generate_dataset(
    model: TorqueSignatureModel,
    per_class_count: int = 300,
    seed: int = 0,
) -> list[LabeledWindow]:
    """Balanced dataset, ``per_class_count`` windows for each of the six
    classes, in class-code order; deterministic per seed."""
    if per_class_count < 2:
        raise ValueError("per_class_count must be >= 2")
    items: list[LabeledWindow] = []
    for action in ActionClass:
        for k in range(per_class_count):
            sub = np.random.SeedSequence(entropy=seed, spawn_key=(int(action), k))
            items.append(generate_window(model, action, sub, start_time=len(items) * WINDOW_MS))
    return items


# ---------------------------------------------------------------------------
# scenario scripts and fault injection
# ---------------------------------------------------------------------------

# Which class a degraded torque stream resembles instead: no-release actions
# morph into a release-looking signature (false positive pressure), release
# actions morph into a no-release one (missed release pressure).
MISREAD_TARGET = {
    ActionClass.BUMP: ActionClass.PULL,
    ActionClass.PUSH: ActionClass.PULL,
    ActionClass.HOLD: ActionClass.NO_ACTION,
    ActionClass.PULL: ActionClass.BUMP,
    ActionClass.PULL_UP: ActionClass.BUMP,
}

# During a push the receiver's fingers wrap the object exactly as in a
# grasp, so a push scenario always satisfies the vision rule by geometry.
WRAP_ACTIONS = frozenset(
    {ActionClass.HOLD, ActionClass.PULL, ActionClass.PULL_UP, ActionClass.PUSH}
)


def _probs(table: dict[ActionClass, float] | None) -> dict[ActionClass, float]:
    table = dict(table or {})
    for action, p in table.items():
        ActionClass(action)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"fault probability {p} out of [0, 1]")
    return table


@dataclass(frozen=True)
class FaultProfile(JsonCodec):
    """Per-action episode corruption probabilities for one pipeline run.

    ``torque_misread``: the torque stream carries the MISREAD_TARGET
    signature instead of the real one. ``vision_dropout``: the grasp never
    fully forms on camera (thumb occluded or only two fingertips inside).
    ``vision_spurious_grasp``: fingers wrap although the action does not
    call for it. ``torque_extra_noise`` is added to the generator sigma.
    """

    torque_misread: dict[ActionClass, float] = field(default_factory=dict, metadata=OPTIONAL_KEY)
    vision_dropout: dict[ActionClass, float] = field(default_factory=dict, metadata=OPTIONAL_KEY)
    vision_spurious_grasp: dict[ActionClass, float] = field(default_factory=dict, metadata=OPTIONAL_KEY)
    torque_extra_noise: float = field(default=0.0, metadata=OPTIONAL_KEY)

    def __post_init__(self) -> None:
        object.__setattr__(self, "torque_misread", _probs(self.torque_misread))
        object.__setattr__(self, "vision_dropout", _probs(self.vision_dropout))
        object.__setattr__(self, "vision_spurious_grasp", _probs(self.vision_spurious_grasp))
        if not 0.0 <= self.torque_extra_noise < np.inf:
            raise ValueError("torque_extra_noise must be finite and >= 0")

    @classmethod
    def clean(cls) -> "FaultProfile":
        return cls()

    @classmethod
    def torque_degraded(cls) -> "FaultProfile":
        """Calibrated so a torque-only pipeline lands near 90% overall."""
        return cls(torque_misread={
            ActionClass.BUMP: 5 / 30,
            ActionClass.PUSH: 3 / 30,
            ActionClass.HOLD: 6 / 30,
            ActionClass.PULL: 2 / 30,
            ActionClass.PULL_UP: 2 / 30,
        })

    @classmethod
    def vision_degraded(cls) -> "FaultProfile":
        """Calibrated so a vision-only pipeline lands near 79% overall
        (pushes always fool it by geometry, no fault draw needed)."""
        return cls(
            vision_dropout={ActionClass.HOLD: 2 / 30, ActionClass.PULL_UP: 4 / 30},
            vision_spurious_grasp={ActionClass.BUMP: 2 / 30},
        )

    @classmethod
    def fused_nominal(cls) -> "FaultProfile":
        """Mild residual faults for the fused pipeline (~98% overall)."""
        return cls(torque_misread={
            ActionClass.PUSH: 1 / 30,
            ActionClass.HOLD: 1 / 30,
            ActionClass.PULL_UP: 1 / 30,
        })


@dataclass(frozen=True)
class ScenarioScript:
    """One simulated handover episode: synchronized-by-construction torque
    matrix at 40 Hz and detection frames at 30 Hz, plus the slab geometry
    and a record of which faults were injected.

    ``frames`` is always stored as a ``DetectionBlock``; a sequence of
    ``DetectionFrame``s passed in is converted once.
    """

    action: ActionClass
    torques: np.ndarray  # (7, n) N*m starting at torque_start_ms
    torque_start_ms: int
    frames: DetectionBlock
    slab: ObjectSlab
    faults: tuple[str, ...]
    action_onset_ms: int
    grasp_at_ms: int | None

    def __post_init__(self) -> None:
        arr = np.array(self.torques, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != NUM_JOINTS or arr.shape[1] < WINDOW_SAMPLES:
            raise ValueError(f"torque stream must be ({NUM_JOINTS}, >={WINDOW_SAMPLES})")
        if not np.all(np.isfinite(arr)):
            raise ValueError("torque stream contains non-finite samples")
        arr.flags.writeable = False
        object.__setattr__(self, "torques", arr)
        object.__setattr__(self, "action", ActionClass(self.action))
        if not isinstance(self.frames, DetectionBlock):
            object.__setattr__(self, "frames", DetectionBlock.from_frames(tuple(self.frames)))
        if np.any(np.diff(self.frames.stamps) <= 0):
            raise ValueError("detection frames must be strictly time-ordered")
        if self.grasp_at_ms is not None and self.grasp_at_ms >= self.action_onset_ms:
            raise ValueError("contact (grasp) must precede the action onset")


def _finger_boxes(rng: np.random.Generator) -> list[tuple[float, float]]:
    # four fingertip box centers spread across the image, thumb first
    return [(0.30 + 0.15 * i + rng.uniform(-0.01, 0.01), 0.5 + rng.uniform(-0.03, 0.03)) for i in range(4)]


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    # the arithmetic of Generator.uniform, applied to pre-drawn rng.random() values
    return low + (high - low) * u


def generate_scenario(
    action: ActionClass,
    profile: FaultProfile,
    seed: Seed,
) -> ScenarioScript:
    """Script one 3-second episode of the given action under a fault profile.

    Timeline: approach (no contact), contact (fingers arrive around
    1.25-1.5 s for wrapping actions), action (torque signature from around
    1.8-2.0 s, sustained to the end). Deterministic per seed.
    """
    action = ActionClass(action)
    rng = _rng_from(seed)

    # fault draws happen first, in a fixed order, so the stream layout is
    # identical whether or not a fault fires
    r_misread, r_dropout, r_spurious = rng.random(3)
    misread = r_misread < profile.torque_misread.get(action, 0.0) and action in MISREAD_TARGET
    dropout = r_dropout < profile.vision_dropout.get(action, 0.0)
    spurious = r_spurious < profile.vision_spurious_grasp.get(action, 0.0)

    faults: list[str] = []
    effective_action = action
    if misread:
        effective_action = MISREAD_TARGET[action]
        faults.append(f"torque_misread:{action.name.lower()}->{effective_action.name.lower()}")
    if dropout:
        faults.append("vision_dropout")
    if spurious:
        faults.append("vision_spurious_grasp")

    onset_ms = 1800.0 + rng.uniform(0.0, 200.0)
    torques = _render_torques(
        _SCENARIO_SIGNATURES, effective_action, EPISODE_SAMPLES, onset_ms, rng,
        extra_noise=profile.torque_extra_noise,
    )

    z_front = 0.40 + rng.uniform(0.0, 0.05)
    slab = ObjectSlab(z_front=z_front, z_back=z_front + 0.14 + rng.uniform(0.0, 0.03))

    grasp_forms = action in WRAP_ACTIONS or spurious
    grasp_at = 1250.0 + rng.uniform(0.0, 250.0) if grasp_forms else None
    dropout_mode = None
    if dropout and grasp_forms:
        dropout_mode = "thumb_out" if rng.random() < 0.5 else "two_fingers"

    centers = _finger_boxes(rng)
    depth_fracs = 0.25 + 0.5 * rng.random(4)  # resting depth of each finger in the slab
    thickness = slab.z_back - slab.z_front

    near_miss = action is ActionClass.BUMP and not spurious
    stamps = np.round(np.arange(EPISODE_FRAMES) * 1000.0 / VISION_RATE_HZ).astype(np.int64)
    if action is ActionClass.NO_ACTION:
        fingers = 0
        boxes, positions, confidence = np.empty((0, 4)), np.empty((0, 3)), np.empty(0)
    else:
        # every finger of every frame takes four uniforms: z, cx, cy, confidence
        fingers = 4
        u_z, u_cx, u_cy, u_conf = np.moveaxis(rng.random((EPISODE_FRAMES, 4, 4)), 2, 0)
        t_ms = stamps.astype(np.float64)[:, None]
        grasped = grasp_at is not None and t_ms >= grasp_at
        inside = np.ones(4, dtype=bool)
        if dropout_mode == "thumb_out":
            inside[0] = False
        elif dropout_mode == "two_fingers":
            inside[2:] = False
        z_in = slab.z_front + depth_fracs * thickness + _uniform(u_z, -0.005, 0.005)
        z_in = np.minimum(np.maximum(z_in, slab.z_front + 0.005), slab.z_back - 0.005)
        z_out = slab.z_front - 0.05 + _uniform(u_z, -0.01, 0.01)
        near = near_miss and (t_ms >= 1200) & (t_ms <= 2600)
        z_near = slab.z_front - 0.03 + _uniform(u_z, -0.01, 0.01)
        # approaching from the camera side, still short of the slab
        progress = np.minimum(t_ms / 1250.0, 1.0)
        z_approach = slab.z_front - 0.12 + 0.07 * progress + _uniform(u_z, -0.01, 0.01)
        z = np.where(grasped, np.where(inside, z_in, z_out), np.where(near, z_near, z_approach))

        cx = np.array([c[0] for c in centers]) + _uniform(u_cx, -0.005, 0.005)
        cy = np.array([c[1] for c in centers]) + _uniform(u_cy, -0.005, 0.005)
        boxes = np.stack([cx - 0.04, cy - 0.04, cx + 0.04, cy + 0.04], axis=-1).reshape(-1, 4)
        positions = np.stack([cx - 0.5, cy - 0.5, np.maximum(z, 0.0)], axis=-1).reshape(-1, 3)
        confidence = _uniform(u_conf, 0.75, 0.98).reshape(-1)
    frames = DetectionBlock(
        stamps=stamps,
        offsets=np.arange(EPISODE_FRAMES + 1) * fingers,
        boxes=boxes,
        positions=positions,
        confidence=confidence,
        thumb=np.tile(np.arange(fingers) == 0, EPISODE_FRAMES),  # the thumb is finger 0
        timestamps=np.repeat(stamps, fingers),
    )

    return ScenarioScript(
        action=action,
        torques=torques,
        torque_start_ms=0,
        frames=frames,
        slab=slab,
        faults=tuple(faults),
        action_onset_ms=int(round(onset_ms)),
        grasp_at_ms=int(round(grasp_at)) if grasp_at is not None else None,
    )

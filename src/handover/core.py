"""Shared domain types for the handover release pipeline.

Everything downstream (classifier, vision gate, fusion, harness) speaks in
terms of these values: one-second torque windows, the six receiver action
classes, fingertip detections with camera-frame depth, and the final
release decision. All types are immutable and JSON-serializable.
"""
from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from functools import cache, cached_property
from math import isfinite
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

import numpy as np

NUM_JOINTS = 7
SAMPLE_RATE_HZ = 40
SAMPLE_DT_MS = 1000 // SAMPLE_RATE_HZ  # 25
WINDOW_SAMPLES = 40  # one second at 40 Hz
FLAT_SIZE = NUM_JOINTS * WINDOW_SAMPLES  # 280
TORQUE_LIMIT_NM = 35.0  # signed bound; sensors report magnitudes up to ~30
NUM_CLASSES = 6
PROBABILITY_TOL = 1e-6


class ActionClass(IntEnum):
    """Receiver action at contact, codes fixed for serialization."""

    NO_ACTION = 0
    BUMP = 1
    PUSH = 2
    HOLD = 3
    PULL = 4
    PULL_UP = 5


class Decision(Enum):
    RELEASE = "release"
    DO_NOT_RELEASE = "do_not_release"


class FingerType(Enum):
    THUMB = "thumb"
    OTHER = "other"


# Accept actions keep the object moving with the receiver; the rest must
# keep the gripper closed.
RELEASE_ACTIONS = frozenset({ActionClass.HOLD, ActionClass.PULL, ActionClass.PULL_UP})


def expected_decision(action: ActionClass) -> Decision:
    """Expected outcome for an action: release for hold/pull/pull-up only."""
    return Decision.RELEASE if ActionClass(action) in RELEASE_ACTIONS else Decision.DO_NOT_RELEASE


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------

# Field declarations: ``field(..., metadata=OPTIONAL_KEY)`` reads a missing
# key as the field's default; ``field(metadata=INLINE)`` writes a nested
# codec value's keys into the parent document and reads them back from it.
OPTIONAL_KEY = {"json": "optional"}
INLINE = {"json": "inline"}

Converter = Callable[[Any], Any]


def json_object(doc: Any) -> dict[str, Any]:
    """``doc`` itself when it is a JSON object; a ``TypeError`` otherwise."""
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def json_value(tp: type, v: Any) -> Any:
    """``v`` as a ``tp`` (bool, int, float or str) when it is a JSON value of
    that type; a ``TypeError`` otherwise. A bool is not a number, and a float
    also takes an integer."""
    if type(v) is not tp and not (tp is float and type(v) is int):
        raise TypeError(f"expected a JSON {tp.__name__}, got {v!r}")
    return tp(v)


def json_array(v: Any) -> list[Any]:
    """``v`` itself when it is a JSON array; a ``TypeError`` otherwise."""
    if not isinstance(v, list):
        raise TypeError(f"expected a JSON array, got {v!r}")
    return v


def json_numbers(v: Any) -> np.ndarray:
    """``v`` as a float64 array when it is a JSON number or a (nested)
    array of them; a ``TypeError`` for any other element, a bool included."""
    cells = np.array(v, dtype=object)
    for x in cells.flat:
        if type(x) is not float and type(x) is not int:
            raise TypeError(f"expected a JSON number, got {x!r}")
    return cells.astype(np.float64)


def _code_key(key: str) -> int:
    """The code of an IntEnum table key, written as a digit string."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit()):
        raise TypeError(f"expected a digit-string key, got {key!r}")
    return int(key)


def _converters(tp: Any) -> tuple[Converter, Converter]:
    """(encode, decode) of a value annotated ``tp``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union or origin is UnionType:  # X | None
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _converters(inner)
        return (lambda v: None if v is None else enc(v)), (lambda v: None if v is None else dec(v))
    if origin is tuple:  # tuple[T, ...] or tuple[T, T, ...], written as list[T]
        (item,) = set(args) - {Ellipsis}
        enc, dec = _converters(list[item])
        return enc, (lambda v: tuple(dec(v)))
    if origin is list:
        enc, dec = _converters(args[0])
        return (lambda v: [enc(x) for x in v]), (lambda v: [dec(x) for x in json_array(v)])
    if origin is dict:  # IntEnum keys, written as digit strings in sorted order
        code, (enc_v, dec_v) = args[0], _converters(args[1])
        return (
            lambda v: {str(int(k)): enc_v(x) for k, x in sorted(v.items())},
            lambda v: {code(_code_key(k)): dec_v(x) for k, x in json_object(v).items()},
        )
    if tp is np.ndarray:
        return (lambda v: v.tolist()), json_numbers
    if issubclass(tp, JsonCodec):
        return (lambda v: v.to_json_dict()), tp.from_json_dict
    if issubclass(tp, IntEnum):
        return int, (lambda v: tp(json_value(int, v)))
    if issubclass(tp, Enum):
        return (lambda v: v.value), tp
    return tp, (lambda v: json_value(tp, v))  # bool, int, float, str


@cache
def _codec_fields(cls: type) -> tuple[tuple[str, str | None, bool, Converter, Converter], ...]:
    """(name, declaration, init, encode, decode) of each field, from its annotation."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("json"), f.init, *_converters(hints[f.name])) for f in fields(cls)
    )


class JsonCodec:
    """Base of the dataclasses written to JSON: each field maps to one key
    (or, declared INLINE, to its own keys) in a form its annotation fixes.
    Decoding runs the constructor on the init fields, so every
    ``__post_init__`` check holds. A field with ``init=False`` is a fact
    ``__post_init__`` computes: a document that states it must state the
    computed value, else ``ValueError`` names both and the init fields."""

    def to_json_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {}
        for name, declared, _init, encode, _decode in _codec_fields(type(self)):
            value = encode(getattr(self, name))
            if declared == "inline":
                doc.update(value)
            else:
                doc[name] = value
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict[str, Any]) -> Any:
        doc = json_object(doc)
        kwargs = {}
        for name, declared, init, _encode, decode in _codec_fields(cls):
            if declared == "inline":
                kwargs[name] = decode(doc)
            elif init and (name in doc or declared != "optional"):
                kwargs[name] = decode(doc[name])
        value = cls(**kwargs)
        for name, _declared, init, encode, decode in _codec_fields(cls):
            if not init and name in doc and decode(doc[name]) != getattr(value, name):
                raise ValueError(f"{name} {json.dumps(doc[name])} is not "
                                 f"{json.dumps(encode(getattr(value, name)))}, which {', '.join(kwargs)} give")
        return value


def check_torques(samples: np.ndarray) -> None:
    """Raise ``ValueError`` unless every torque sample is finite and within
    +-``TORQUE_LIMIT_NM``."""
    if not np.all(np.isfinite(samples)):
        raise ValueError("torque samples must be finite")
    if np.any(np.abs(samples) > TORQUE_LIMIT_NM):
        raise ValueError(f"torque sample out of range [-{TORQUE_LIMIT_NM}, {TORQUE_LIMIT_NM}] N*m")


@dataclass(frozen=True)
class TorqueWindow(JsonCodec):
    """One second of 7-joint torque samples at 40 Hz.

    ``samples`` is a (7, 40) matrix in N*m, joint-major: row j holds the
    40 consecutive readings of joint j. ``start_time`` is the monotonic
    timestamp (ms) of the first sample.
    """

    samples: np.ndarray
    start_time: int
    sample_rate_hz: int = field(default=SAMPLE_RATE_HZ, metadata=OPTIONAL_KEY)

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=np.float64)
        if arr.shape != (NUM_JOINTS, WINDOW_SAMPLES):
            raise ValueError(
                f"torque window must be ({NUM_JOINTS}, {WINDOW_SAMPLES}), got {arr.shape}"
            )
        check_torques(arr)
        if self.sample_rate_hz != SAMPLE_RATE_HZ:
            raise ValueError(f"sample rate must be {SAMPLE_RATE_HZ} Hz")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


def _check_probabilities(probs: np.ndarray) -> None:
    """The checks of one probability vector, applied to each row of ``probs``."""
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite")
    if np.any(probs < 0.0):
        raise ValueError("probabilities must be non-negative")
    sums = probs.sum(axis=-1)
    off = np.abs(sums - 1.0) > PROBABILITY_TOL
    if np.any(off):
        raise ValueError(f"probabilities sum to {sums[off].flat[0]}, expected 1")


@dataclass(frozen=True)
class ActionScores(JsonCodec):
    """Classifier output: a 6-way probability vector and its argmax, which
    ``__post_init__`` computes as the first maximum (the lowest class code)."""

    probabilities: np.ndarray
    predicted: ActionClass = field(init=False)

    def __post_init__(self) -> None:
        probs = np.array(self.probabilities, dtype=np.float64)
        if probs.shape != (NUM_CLASSES,):
            raise ValueError(f"expected {NUM_CLASSES} probabilities, got {probs.shape}")
        _check_probabilities(probs)
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "predicted", ActionClass(int(np.argmax(probs))))

    @classmethod
    def from_probability_rows(cls, probabilities: np.ndarray) -> list["ActionScores"]:
        """One ``ActionScores`` per row of an (n, 6) matrix: the matrix takes
        ``__post_init__``'s checks once, then each row is a read-only view."""
        probs = np.array(probabilities, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[1] != NUM_CLASSES:
            raise ValueError(f"expected (n, {NUM_CLASSES}) probabilities, got {probs.shape}")
        _check_probabilities(probs)
        probs.flags.writeable = False
        rows = []
        for row, code in zip(probs, np.argmax(probs, axis=1).tolist()):
            scores = object.__new__(cls)
            object.__setattr__(scores, "probabilities", row)
            object.__setattr__(scores, "predicted", ActionClass(code))
            rows.append(scores)
        return rows


NON_FINITE_DETECTION = "detection box, position and confidence must be finite"
NEGATIVE_DEPTH = "detection depth (z) must be non-negative"
CONFIDENCE_RANGE = "confidence must lie in [0, 1]"


@dataclass(frozen=True)
class FingertipDetection(JsonCodec):
    """A detected fingertip: 2D box, finger label, camera-frame 3D position.

    Box coordinates are normalized to [0, 1] image space; ``position_3d``
    is (x, y, z) meters in the camera frame with z the depth axis.
    """

    box: tuple[float, float, float, float]
    finger_type: FingerType
    position_3d: tuple[float, float, float]
    confidence: float
    timestamp: int

    def __post_init__(self) -> None:
        # runs for every detection a caller materializes: one float() per
        # value, no enum call for a member
        x_min, y_min, x_max, y_max = self.box
        x_min, y_min, x_max, y_max = float(x_min), float(y_min), float(x_max), float(y_max)
        x, y, z = self.position_3d
        x, y, z = float(x), float(y), float(z)
        confidence = float(self.confidence)
        if not all(map(isfinite, (x_min, y_min, x_max, y_max, x, y, z, confidence))):
            raise ValueError(NON_FINITE_DETECTION)
        if not (x_min < x_max and y_min < y_max):
            raise ValueError(f"degenerate detection box {self.box}")
        if z < 0.0:
            raise ValueError(NEGATIVE_DEPTH)
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(CONFIDENCE_RANGE)
        object.__setattr__(self, "box", (x_min, y_min, x_max, y_max))
        object.__setattr__(self, "position_3d", (x, y, z))
        object.__setattr__(self, "confidence", confidence)
        if type(self.finger_type) is not FingerType:
            object.__setattr__(self, "finger_type", FingerType(self.finger_type))


@dataclass(frozen=True)
class DetectionFrame:
    timestamp: int
    detections: tuple[FingertipDetection, ...]


@dataclass(frozen=True, eq=False)
class DetectionBlock(Sequence):
    """Fingertip detection frames as arrays, checked in bulk like
    ``FingertipDetection``. Frame ``i``, taken at ``stamps[i]``, owns the
    detection rows ``offsets[i]:offsets[i + 1]`` (any number per frame).
    As a sequence it yields ``DetectionFrame``s, built on first access."""

    stamps: np.ndarray
    offsets: np.ndarray
    boxes: np.ndarray
    positions: np.ndarray
    confidence: np.ndarray
    thumb: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self) -> None:
        frames, rows = len(self.stamps), len(self.confidence)
        for name, dtype, shape in (
            ("stamps", np.int64, (frames,)), ("offsets", np.int64, (frames + 1,)),
            ("boxes", np.float64, (rows, 4)), ("positions", np.float64, (rows, 3)),
            ("confidence", np.float64, (rows,)), ("thumb", bool, (rows,)),
            ("timestamps", np.int64, (rows,)),
        ):
            arr = np.array(getattr(self, name), dtype=dtype)
            if arr.shape != shape and not (arr.size == 0 == shape[0]):
                raise ValueError(f"detection block {name} must be {shape}, got {arr.shape}")
            arr = arr.reshape(shape)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        offsets, boxes, confidence = self.offsets, self.boxes, self.confidence
        if offsets[0] != 0 or offsets[-1] != rows or np.any(offsets[1:] < offsets[:-1]):
            raise ValueError(f"detection block offsets must rise from 0 to {rows}")
        if not (np.isfinite(boxes).all() and np.isfinite(self.positions).all()
                and np.isfinite(confidence).all()):
            raise ValueError(NON_FINITE_DETECTION)
        degenerate = (boxes[:, 0] >= boxes[:, 2]) | (boxes[:, 1] >= boxes[:, 3])
        if degenerate.any():
            raise ValueError(f"degenerate detection box {tuple(boxes[degenerate][0].tolist())}")
        if (self.positions[:, 2] < 0.0).any():
            raise ValueError(NEGATIVE_DEPTH)
        if ((confidence < 0.0) | (confidence > 1.0)).any():
            raise ValueError(CONFIDENCE_RANGE)

    @cached_property
    def _frames(self) -> tuple[DetectionFrame, ...]:
        fingers = (FingerType.OTHER, FingerType.THUMB)
        detections = [
            FingertipDetection(tuple(box), fingers[thumb], tuple(position), confidence, timestamp)
            for box, position, confidence, thumb, timestamp in zip(
                self.boxes.tolist(), self.positions.tolist(), self.confidence.tolist(),
                self.thumb.tolist(), self.timestamps.tolist(),
            )
        ]
        offsets = self.offsets.tolist()
        return tuple(
            DetectionFrame(stamp, tuple(detections[start:stop]))
            for stamp, start, stop in zip(self.stamps.tolist(), offsets, offsets[1:])
        )

    def __len__(self) -> int:
        return len(self.stamps)

    def __getitem__(self, index):
        return self._frames[index]


@dataclass(frozen=True)
class ObjectSlab(JsonCodec):
    """Camera-frame depths of the held object's front and back planes."""

    z_front: float
    z_back: float

    def __post_init__(self) -> None:
        if not (0.0 < float(self.z_front) < float(self.z_back) and isfinite(self.z_back)):
            raise ValueError(f"slab requires 0 < z_front < z_back < inf, got {self}")
        object.__setattr__(self, "z_front", float(self.z_front))
        object.__setattr__(self, "z_back", float(self.z_back))


@dataclass(frozen=True)
class ReleaseDecision(JsonCodec):
    """A fused release: the action read on the releasing sample, and when."""

    action: ActionClass
    decided_at: int


_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def dumps_canonical(doc: dict[str, Any]) -> str:
    """Serialize a JSON document byte-stably (sorted keys, tight separators)."""
    return _CANONICAL_ENCODER.encode(doc)

"""Geometric release condition on fingertip detections.

The vision modality votes to release only when at least three confident
fingertips, the thumb among them, sit inside the depth slab spanned by
the object's front and back planes. Boundaries are inclusive so a finger
resting exactly on a plane does not flicker the vote. ``_counted`` picks
the fingertips that count, on floats or arrays, for ``grasp_verdicts``
(every frame of a ``DetectionBlock`` in one pass) and ``evaluate_grasp``
(one frame of objects); the ``VisionVerdict`` each builds computes the vote.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import DetectionBlock, FingerType, FingertipDetection, JsonCodec, ObjectSlab

MIN_FINGERS_FOR_GRASP = 3
MIN_CONFIDENCE = 0.5  # detections below this are ignored


@dataclass(frozen=True)
class VisionVerdict(JsonCodec):
    """One frame's count of fingertips in the slab and whether the thumb is
    among them; ``__post_init__`` computes the vote, three of them AND the thumb."""

    vote: bool = field(init=False)
    fingers_in_slab: int
    thumb_in_slab: bool
    evaluated_at: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "vote", self.fingers_in_slab >= MIN_FINGERS_FOR_GRASP and self.thumb_in_slab)


def _counted(confidence, z, slab: ObjectSlab):
    """Detections that count toward a grasp: confident, with depth inside
    the slab, bounds inclusive; on floats or arrays."""
    return (confidence >= MIN_CONFIDENCE) & (slab.z_front <= z) & (z <= slab.z_back)


def _check_slab(slab: ObjectSlab) -> None:
    if not isinstance(slab, ObjectSlab):
        raise TypeError("the grasp rule requires an ObjectSlab")


def grasp_verdicts(block: DetectionBlock, slab: ObjectSlab) -> list[VisionVerdict]:
    """Score every frame of a detection block against the grasp rule,
    each verdict stamped with its frame's time."""
    _check_slab(slab)
    counted = _counted(block.confidence, block.positions[:, 2], slab)
    # per-frame counts as differences of running totals; empty frames count 0
    fingers = np.concatenate(([0], np.cumsum(counted)))
    thumbs = np.concatenate(([0], np.cumsum(counted & block.thumb)))
    start, stop = block.offsets[:-1], block.offsets[1:]
    return [
        VisionVerdict(n, thumb, stamp)
        for n, thumb, stamp in zip(
            (fingers[stop] - fingers[start]).tolist(),
            (thumbs[stop] > thumbs[start]).tolist(),
            block.stamps.tolist(),
        )
    ]


def evaluate_grasp(
    detections: Sequence[FingertipDetection],
    slab: ObjectSlab,
    at_ms: int | None = None,
) -> VisionVerdict:
    """Score one detection frame against the grasp rule.

    Detections below ``MIN_CONFIDENCE`` are ignored. ``at_ms`` stamps the
    verdict; it defaults to the latest detection timestamp (0 if the frame
    is empty). The rule's parts are ``grasp_verdicts``' own, applied to
    each object: for a frame of a few detections that is far cheaper than
    a one-frame block, which pays for array set-up and the bulk checks.
    """
    _check_slab(slab)
    counted = [d for d in detections if _counted(d.confidence, d.position_3d[2], slab)]
    thumb = any(d.finger_type is FingerType.THUMB for d in counted)
    if at_ms is None:
        at_ms = max((d.timestamp for d in detections), default=0)
    return VisionVerdict(len(counted), thumb, int(at_ms))

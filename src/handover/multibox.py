"""Desk-scale multibox training objective: IoU matching plus the combined
confidence/localization loss.

Boxes are normalized corner coordinates. Matching runs in two stages:
a greedy bipartite pass guaranteeing every ground truth its best-overlap
prediction, then a threshold pass adopting any leftover prediction whose
best overlap reaches 0.5. Class confidences are probability vectors over
(1 + K) classes with background at index 0; object classes are 1..K.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .nn_kernel import cross_entropy_loss

IOU_MATCH_THRESHOLD = 0.5
BACKGROUND_CLASS = 0


@dataclass(frozen=True)
class Box:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(0.0 <= float(v) <= 1.0 for v in vals):
            raise ValueError(f"box coordinates must lie in [0, 1]: {vals}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate box: {vals}")
        for name, v in zip(("x_min", "y_min", "x_max", "y_max"), vals):
            object.__setattr__(self, name, float(v))

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def encode(self) -> np.ndarray:
        """(center_x, center_y, log width, log height) offset encoding."""
        w = self.x_max - self.x_min
        h = self.y_max - self.y_min
        return np.array([self.x_min + 0.5 * w, self.y_min + 0.5 * h, np.log(w), np.log(h)])


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 for disjoint boxes, 1 for identical."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


@dataclass(frozen=True)
class GroundTruth:
    box: Box
    class_index: int

    def __post_init__(self) -> None:
        if int(self.class_index) < 1:
            raise ValueError("ground-truth class must be an object class (>= 1)")
        object.__setattr__(self, "class_index", int(self.class_index))


@dataclass(frozen=True)
class Prediction:
    box: Box
    confidences: tuple[float, ...]

    def __post_init__(self) -> None:
        conf = tuple(float(c) for c in self.confidences)
        if len(conf) < 2:
            raise ValueError("confidences must cover background plus >= 1 class")
        if any(c < 0.0 for c in conf):
            raise ValueError("confidences must be non-negative")
        if abs(sum(conf) - 1.0) > 1e-6:
            raise ValueError(f"confidences must sum to 1, got {sum(conf)}")
        object.__setattr__(self, "confidences", conf)


@dataclass(frozen=True)
class MatchResult:
    """Binary match matrix (predictions x ground truths) and its pair list."""

    matrix: np.ndarray
    pairs: tuple[tuple[int, int], ...]

    @property
    def matched_count(self) -> int:
        return len(self.pairs)


def match_boxes(
    predicted: Sequence[Box], ground_truth: Sequence[tuple[Box, int] | GroundTruth]
) -> MatchResult:
    """Match predictions to ground truths; ties break toward lower indices.

    Stage 1 greedily assigns each ground truth its highest-IoU unmatched
    prediction (unconditionally, so every ground truth gets one while
    predictions last). Stage 2 adopts each remaining prediction whose best
    overlap with any ground truth reaches the 0.5 threshold.
    """
    if not predicted:
        raise ValueError("match_boxes requires at least one predicted box")
    gts = [g if isinstance(g, GroundTruth) else GroundTruth(g[0], g[1]) for g in ground_truth]
    n_pred, n_gt = len(predicted), len(gts)
    matrix = np.zeros((n_pred, n_gt), dtype=np.int8)
    if n_gt == 0:
        return MatchResult(matrix=matrix, pairs=())

    overlap = np.array([[iou(p, g.box) for g in gts] for p in predicted])
    pairs: list[tuple[int, int]] = []
    working = overlap.copy()
    for _ in range(min(n_pred, n_gt)):
        # argmax over the flattened matrix scans row-major: lowest predicted
        # index first, then lowest ground-truth index
        i, j = np.unravel_index(int(np.argmax(working)), working.shape)
        pairs.append((int(i), int(j)))
        working[i, :] = -1.0
        working[:, j] = -1.0

    taken = {i for i, _ in pairs}
    for i in range(n_pred):
        if i in taken:
            continue
        j = int(np.argmax(overlap[i]))
        if overlap[i, j] >= IOU_MATCH_THRESHOLD:
            pairs.append((i, j))

    pairs.sort()
    for i, j in pairs:
        matrix[i, j] = 1
    return MatchResult(matrix=matrix, pairs=tuple(pairs))


@dataclass(frozen=True)
class MultiboxInstance:
    """One loss evaluation: predictions, ground truths, weight, and matches."""

    predicted: tuple[Prediction, ...]
    ground_truth: tuple[GroundTruth, ...]
    alpha: float
    match: MatchResult

    @classmethod
    def build(
        cls,
        predicted: Sequence[Prediction],
        ground_truth: Sequence[GroundTruth],
        alpha: float = 1.0,
    ) -> "MultiboxInstance":
        if alpha < 0.0:
            raise ValueError("alpha must be non-negative")
        preds = tuple(predicted)
        gts = tuple(ground_truth)
        if not preds:
            raise ValueError("instance requires at least one prediction")
        n_classes = len(preds[0].confidences)
        if any(len(p.confidences) != n_classes for p in preds):
            raise ValueError("all confidence vectors must have the same length")
        if any(g.class_index >= n_classes for g in gts):
            raise ValueError("ground-truth class outside the confidence vector")
        return cls(
            predicted=preds,
            ground_truth=gts,
            alpha=float(alpha),
            match=match_boxes([p.box for p in preds], gts),
        )


def confidence_loss(instance: MultiboxInstance) -> float:
    """Cross-entropy of matched boxes against their class, rest against
    background."""
    matched_class = {i: instance.ground_truth[j].class_index for i, j in instance.match.pairs}
    total = 0.0
    for i, pred in enumerate(instance.predicted):
        target = matched_class.get(i, BACKGROUND_CLASS)
        total += cross_entropy_loss(np.asarray(pred.confidences), target)
    return total


def _smooth_l1(deltas: np.ndarray) -> float:
    a = np.abs(deltas)
    return float(np.where(a < 1.0, 0.5 * deltas * deltas, a - 0.5).sum())


def localization_loss(instance: MultiboxInstance) -> float:
    """Smooth-L1 between center/log-size encodings of matched box pairs."""
    total = 0.0
    for i, j in instance.match.pairs:
        g = instance.ground_truth[j].box
        total += _smooth_l1(instance.predicted[i].box.encode() - g.encode())
    return total


def total_loss(instance: MultiboxInstance) -> float:
    """(confidence + alpha * localization) / matched count; 0 if no matches."""
    n = instance.match.matched_count
    if n == 0:
        return 0.0
    return (confidence_loss(instance) + instance.alpha * localization_loss(instance)) / n

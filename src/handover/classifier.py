"""Torque-window action classifier: network assembly, training, inference.

The network treats a flattened torque window as a 1-channel, length-280
signal and stacks three identical conv blocks (conv -> batch norm -> ReLU,
64 filters, kernel 3), global average pooling, and a dense 64 -> 6 head.
Inputs are standardized per joint with statistics from the training split.

``classify_windows`` runs sliding windows of one stream as a run: each
joint's series goes through the convolutions once, and each window
recomputes only the positions near its joint seams.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    FLAT_SIZE,
    NUM_CLASSES,
    NUM_JOINTS,
    RELEASE_ACTIONS,
    SAMPLE_DT_MS,
    WINDOW_SAMPLES,
    ActionClass,
    ActionScores,
    JsonCodec,
    TorqueWindow,
    json_object,
)
from . import nn_kernel as nn

STD_FLOOR = 1e-6
HOLDOUT_FRACTION = 0.2  # the stratified 80/20 split
MODEL_FORMAT_VERSION = "handover-model-v1"
MOMENTUM = 0.9  # heavy-ball SGD


@dataclass(frozen=True)
class TorqueNetConfig:
    """Architecture plus training hyperparameters (defaults are the preset).
    The input (one channel of 280 values) and the six classes are fixed."""

    blocks: int = 3
    filters_per_block: int = 64
    kernel_size: int = 3
    seed: int = 7
    epochs: int = 30
    learning_rate: float = 1e-2
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.blocks < 1 or self.filters_per_block < 1:
            raise ValueError("need at least one block and one filter")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel size must be odd for same padding")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")


@dataclass(frozen=True)
class LabeledWindow(JsonCodec):
    window: TorqueWindow
    label: ActionClass

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", ActionClass(self.label))


@dataclass(frozen=True)
class NormalizationStats(JsonCodec):
    """Per-joint mean and (positive) std of the training torques."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64).reshape(NUM_JOINTS)
        std = np.asarray(self.std, dtype=np.float64).reshape(NUM_JOINTS)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise ValueError("normalization statistics must be finite")
        if np.any(std <= 0.0):
            raise ValueError("normalization std must be positive")
        mean.flags.writeable = False
        std.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @classmethod
    def from_windows(cls, windows: Iterable[TorqueWindow]) -> "NormalizationStats":
        """Statistics of ``windows``; a constant joint's std is floored at 1e-6."""
        stacked = np.stack([w.samples for w in windows])
        return cls(mean=stacked.mean(axis=(0, 2)), std=np.maximum(stacked.std(axis=(0, 2)), STD_FLOOR))


@dataclass
class TrainingReport(JsonCodec):
    epoch_losses: list[float]
    epoch_train_accuracy: list[float]
    epoch_holdout_accuracy: list[float]
    confusion_matrix: np.ndarray  # (6, 6), rows = true class, cols = predicted
    holdout_accuracy: float
    n_train: int
    n_holdout: int
    wall_seconds: float


def build_network(config: TorqueNetConfig = TorqueNetConfig()) -> nn.Network:
    """Assemble the conv/batch-norm/ReLU stack; seeded, so reproducible."""
    rng = np.random.default_rng(config.seed)
    layers: list[nn.Layer] = []
    in_ch = 1  # normalize_input's one flat channel
    for _ in range(config.blocks):
        layers.append(nn.Conv1D(in_ch, config.filters_per_block, config.kernel_size, rng=rng))
        layers.append(nn.BatchNorm1D(config.filters_per_block))
        layers.append(nn.ReLU())
        in_ch = config.filters_per_block
    layers.append(nn.GlobalAvgPool1D())
    layers.append(nn.Linear(config.filters_per_block, NUM_CLASSES, rng=rng))
    return nn.Network(layers)


def normalize_input(window: TorqueWindow, stats: NormalizationStats) -> np.ndarray:
    """Per-joint z-score, then flatten to the (1, 280) network input."""
    z = (window.samples - stats.mean[:, None]) / stats.std[:, None]
    return z.reshape(1, FLAT_SIZE)


def _stratified_split(labels: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    train_idx: list[int] = []
    holdout_idx: list[int] = []
    for cls in range(NUM_CLASSES):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        n_hold = max(1, int(round(members.size * HOLDOUT_FRACTION)))
        if n_hold >= members.size:
            n_hold = members.size - 1
        holdout_idx.extend(members[:n_hold])
        train_idx.extend(members[n_hold:])
    return np.sort(np.asarray(train_idx)), np.sort(np.asarray(holdout_idx))


def _predict_classes(net: nn.Network, inputs: np.ndarray, batch_size: int = 32) -> np.ndarray:
    preds = []
    for start in range(0, inputs.shape[0], batch_size):
        probs = net.predict_proba(inputs[start:start + batch_size])
        preds.append(np.argmax(probs, axis=1))
    return np.concatenate(preds)


def train(
    dataset: Sequence[LabeledWindow],
    config: TorqueNetConfig = TorqueNetConfig(),
) -> tuple[nn.Network, NormalizationStats, TrainingReport]:
    """Train on a labeled window set; returns (network, stats, report).

    The split is stratified 80/20 by class using the config seed, input
    statistics come from the training split only, and the whole run is
    deterministic for a fixed seed.
    """
    labels = np.asarray([int(item.label) for item in dataset], dtype=np.int64)
    counts = np.bincount(labels, minlength=NUM_CLASSES)
    missing = [ActionClass(i).name for i in range(NUM_CLASSES) if counts[i] < 2]
    if missing:
        raise ValueError(f"need >= 2 examples per class, deficient: {', '.join(missing)}")

    rng = np.random.default_rng(config.seed)
    train_idx, holdout_idx = _stratified_split(labels, rng)

    stats = NormalizationStats.from_windows(dataset[i].window for i in train_idx)
    all_inputs = np.stack([normalize_input(item.window, stats) for item in dataset])
    x_train, y_train = all_inputs[train_idx], labels[train_idx]
    x_hold, y_hold = all_inputs[holdout_idx], labels[holdout_idx]

    net = build_network(config)
    optimizer = nn.MomentumSGD(net, config.learning_rate, MOMENTUM)

    started = time.perf_counter()
    epoch_losses: list[float] = []
    epoch_train_acc: list[float] = []
    epoch_hold_acc: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(x_train.shape[0])
        batch_losses = []
        correct = 0
        for start in range(0, order.size, config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, probs, tape = nn.backward(net, x_train[batch], y_train[batch])
            optimizer.step(tape)
            batch_losses.append(loss)
            correct += int(np.sum(np.argmax(probs, axis=1) == y_train[batch]))
        epoch_losses.append(float(np.mean(batch_losses)))
        epoch_train_acc.append(correct / order.size)
        hold_pred = _predict_classes(net, x_hold)
        epoch_hold_acc.append(float(np.mean(hold_pred == y_hold)))
    wall = time.perf_counter() - started

    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for true, pred in zip(y_hold, hold_pred):
        confusion[true, pred] += 1
    report = TrainingReport(
        epoch_losses=epoch_losses,
        epoch_train_accuracy=epoch_train_acc,
        epoch_holdout_accuracy=epoch_hold_acc,
        confusion_matrix=confusion,
        holdout_accuracy=float(np.trace(confusion) / max(1, confusion.sum())),
        n_train=int(train_idx.size),
        n_holdout=int(holdout_idx.size),
        wall_seconds=wall,
    )
    return net, stats, report


def classify_window(
    net: nn.Network, stats: NormalizationStats, window: TorqueWindow
) -> ActionScores:
    """Classify one window; pure (batch norm frozen to running stats)."""
    if not isinstance(window, TorqueWindow):
        raise TypeError("classify_window expects a TorqueWindow")
    probs = net.predict_proba(normalize_input(window, stats)[None])[0]
    return ActionScores.from_probabilities(probs)


def classify_windows(
    net: nn.Network, stats: NormalizationStats, windows: Sequence[TorqueWindow]
) -> list[ActionScores]:
    """Batched classify_window; equal to it up to rounding.

    The frozen network's layers before the pooling see +-R samples. So in
    a flat window, a position at least R samples from both ends of its
    joint's segment has the feature that joint's whole series has there.
    Consecutive windows that slice one stream form a run: each joint's
    series of the run goes through those layers once, and each window
    recomputes only the positions within R of a joint seam or a window
    end. When 2R >= W, the window's 40 samples, the bands cover whole
    segments, and the windows take the flat forward.
    """
    if not windows:
        return []
    frozen = net.frozen()
    layers = frozen.layers
    cut = next((i for i, layer in enumerate(layers) if isinstance(layer, nn.GlobalAvgPool1D)), None)
    reach = None if cut is None else sum(_half_width(layer) for layer in layers[:cut])
    if reach is None or 2 * reach >= WINDOW_SAMPLES:
        logits = frozen.forward(np.stack([normalize_input(w, stats) for w in windows]))
    else:
        logits = _run_logits(layers, cut, stats, windows)
    return ActionScores.from_probability_rows(nn.softmax(logits))


_SEAMS = NUM_JOINTS + 1  # the joint boundaries of a flat window, its two ends included


def _half_width(layer: nn.Layer) -> int:
    return (layer.kernel_size - 1) // 2 if isinstance(layer, nn.Conv1D) else 0


def _overlap_shift(prev: TorqueWindow, cur: TorqueWindow) -> int:
    """How many samples ``cur`` starts after ``prev`` when the two slice one
    stream: a step of 1..W-1 samples with the overlapping samples equal.
    0 when they do not."""
    shift, rest = divmod(cur.start_time - prev.start_time, SAMPLE_DT_MS)
    if rest != 0 or not 0 < shift < WINDOW_SAMPLES:
        return 0
    shift = int(shift)
    same = np.array_equal(prev.samples[:, shift:], cur.samples[:, :WINDOW_SAMPLES - shift])
    return shift if same else 0


def _find_runs(windows: Sequence[TorqueWindow]) -> list[tuple[int, int, int]]:
    """``(first, count, step)`` per run of consecutive windows that slice one
    stream at a constant step; a lone window is a run of one (step 0)."""
    runs = []
    first, step = 0, 0
    for i in range(1, len(windows)):
        shift = _overlap_shift(windows[i - 1], windows[i])
        if shift and step in (0, shift):
            step = shift
        else:
            runs.append((first, i - first, step))
            first, step = i, 0
    runs.append((first, len(windows) - first, step))
    return runs


def _run_logits(
    layers: list[nn.Layer],
    cut: int,
    stats: NormalizationStats,
    windows: Sequence[TorqueWindow],
) -> np.ndarray:
    """Logits of ``windows`` from per-run joint series plus seam bands.

    ``layers[:cut]`` are position-local and see R samples either side,
    with 2R < W; ``layers[cut]`` pools and the rest is the head.

    Every layer runs once over a tape of columns: first every joint series
    of every run end to end, then one context per (window, seam). A context
    holds the band of positions within r of the seam, r growing to R, with
    series values either side for the layer's reach; the layer's outputs
    that read across a junction of the tape are never used.
    """
    w, n_windows = WINDOW_SAMPLES, len(windows)
    parts, bases, size = [], [], 0
    for first, count, step in _find_runs(windows):
        run = windows[first:first + count]
        stream = np.concatenate([run[0].samples] + [x.samples[:, w - step:] for x in run[1:]], axis=1)
        z = (stream - stats.mean[:, None]) / stats.std[:, None]
        parts.append(z.ravel())
        bases.append(size + np.arange(NUM_JOINTS) * z.shape[1] + np.arange(count)[:, None] * step)
        size += z.size
    tape = np.concatenate(parts)[None]  # (channels, columns)
    base = np.concatenate(bases)[..., None]  # (windows, joints, 1): column of each segment's start
    # the segment before and after each seam; the window ends get a dummy
    # segment whose values are replaced by same padding's zeros
    before = np.concatenate([base[:, :1], base], axis=1)
    after = np.concatenate([base, base[:, -1:]], axis=1)
    contexts = np.arange(n_windows * _SEAMS).reshape(n_windows, _SEAMS, 1)
    width = start = r = 0

    def band(context: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Column of the band value d positions past a context's seam, -r <= d < r."""
        return size + context * width + start + r + d

    for layer in layers[:cut]:
        p = _half_width(layer)
        if p:
            d = np.arange(-r - 2 * p, r + 2 * p)
            cols = np.where(d < -r, before + w + d, np.where(d < r, band(contexts, d), after + d))
            tape = np.take(tape, np.concatenate([np.arange(size), cols.ravel()]), axis=1)
            context = tape[:, size:].reshape(len(tape), n_windows, _SEAMS, d.size)
            context[:, :, 0, d < 0] = 0.0  # same padding before the window
            context[:, :, -1, d >= 0] = 0.0  # and after it
            width, start = d.size, p
            r += p
        tape = layer.forward(tape[None])[0]

    # the tape column of each window's flat positions, in flat order, so
    # the pooling averages the values the flat network would in its order
    u = np.arange(w)
    seams = contexts[:, :NUM_JOINTS] + (u >= w - r)
    cols = np.where((u < r) | (u >= w - r), band(seams, np.where(u < r, u, u - w)), base + u)
    flat = np.take(tape, cols.ravel(), axis=1).reshape(len(tape), n_windows, FLAT_SIZE)
    pooled = np.ascontiguousarray(flat.mean(axis=-1).T)
    for layer in layers[cut + 1:]:
        pooled = layer.forward(pooled)
    return pooled


def torque_vote(scores: ActionScores) -> bool:
    """True iff the predicted action calls for releasing the object."""
    return scores.predicted in RELEASE_ACTIONS


def evaluate(
    net: nn.Network, stats: NormalizationStats, dataset: Sequence[LabeledWindow]
) -> tuple[float, np.ndarray]:
    """Accuracy and 6x6 confusion matrix (rows true, cols predicted)."""
    inputs = np.stack([normalize_input(item.window, stats) for item in dataset])
    labels = np.asarray([int(item.label) for item in dataset], dtype=np.int64)
    preds = _predict_classes(net, inputs)
    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for true, pred in zip(labels, preds):
        confusion[true, pred] += 1
    return float(np.mean(preds == labels)), confusion


# ---------------------------------------------------------------------------
# model and dataset files
# ---------------------------------------------------------------------------

def save_model(path: str | Path, net: nn.Network, stats: NormalizationStats) -> None:
    doc = {
        "format": MODEL_FORMAT_VERSION,
        "network": nn.network_to_json(net),
        "normalization": stats.to_json_dict(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> tuple[nn.Network, NormalizationStats]:
    doc = json_object(json.loads(Path(path).read_text(encoding="utf-8")))
    if doc.get("format") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {doc.get('format')!r}")
    return nn.network_from_json(doc["network"]), NormalizationStats.from_json_dict(doc["normalization"])


def write_dataset_jsonl(path: str | Path, items: Iterable[LabeledWindow]) -> int:
    from .core import dumps_canonical

    n = 0
    with Path(path).open("w", encoding="utf-8") as fh:
        for item in items:
            fh.write(dumps_canonical(item.to_json_dict()) + "\n")
            n += 1
    return n


def read_dataset_jsonl(path: str | Path) -> list[LabeledWindow]:
    items = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                items.append(LabeledWindow.from_json_dict(json.loads(line)))
    return items

"""Torque-window action classifier: network assembly, training, inference.

The network treats a flattened torque window as a 1-channel, length-280
signal and stacks three identical conv blocks (conv -> batch norm -> ReLU,
64 filters, kernel 3), global average pooling, and a dense 64 -> 6 head.
Inputs are standardized per joint with statistics from the training split.

``classify_windows`` scores the windows of one (7, n) stream that start at
a range of samples: each joint's series goes through the convolutions
once, and each window recomputes only the positions near its
joint-segment ends. A cached plan per geometry (window count, step) holds
the index arrays that gather each conv's tap columns for one GEMM
(``Conv1D.gemm``) and the 0/1 matrix that pools each window. This is the
one scoring path: ``classify_window`` runs one window through it.

A model file holds its ``format``, the ``normalization`` statistics and
the preset's 17 stored ``arrays`` as nested lists; ``load_model`` fills
them into a fresh ``build_network()``, the only code that draws initial
weights, so no file sets the stack or a conv's bias.
"""
from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    FLAT_SIZE,
    NUM_CLASSES,
    NUM_JOINTS,
    RELEASE_ACTIONS,
    WINDOW_SAMPLES,
    ActionClass,
    ActionScores,
    JsonCodec,
    TorqueWindow,
    check_torques,
    dumps_canonical,
    json_numbers,
    json_object,
)
from . import nn_kernel as nn

STD_FLOOR = 1e-6
HOLDOUT_FRACTION = 0.2  # the stratified 80/20 split
MODEL_FORMAT_VERSION = "handover-model-v2"
# the one network, the FCN baseline of Wang, Yan & Oates (arXiv 1611.06455);
# load_model rejects any other stack, so classify_windows may assume it
BLOCKS = 3
FILTERS = 64
KERNEL_SIZE = 3


@dataclass(frozen=True)
class TorqueNetConfig:
    """Training hyperparameters (defaults are the preset)."""

    seed: int = 7
    epochs: int = 30
    learning_rate: float = 1e-2
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning rate must be positive and finite")


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
    def from_samples(cls, samples: np.ndarray) -> "NormalizationStats":
        """Statistics of an (n, 7, 40) window stack; a constant joint's std is floored at 1e-6."""
        return cls(mean=samples.mean(axis=(0, 2)), std=np.maximum(samples.std(axis=(0, 2)), STD_FLOOR))

    def zscore(self, samples: np.ndarray) -> np.ndarray:
        """Per-joint z-score of a (7, n) stream or an (n, 7, 40) window stack."""
        return (samples - self.mean[:, None]) / self.std[:, None]


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
    """The preset stack at its initial values, the only code that draws
    them: He-uniform conv and head weights from one generator seeded by
    ``config.seed``, in layer order; zero biases; identity batch norms."""
    rng = np.random.default_rng(config.seed)

    def he_uniform(*shape: int) -> np.ndarray:
        bound = np.sqrt(6.0 / np.prod(shape[1:]))  # fan-in: every input of one output
        return rng.uniform(-bound, bound, size=shape)

    layers: list[nn.Layer] = []
    in_ch = 1  # normalize_input's one flat channel
    for _ in range(BLOCKS):
        conv = nn.Conv1D(he_uniform(FILTERS, in_ch, KERNEL_SIZE), np.zeros(FILTERS))
        bn = nn.BatchNorm1D(np.ones(FILTERS), np.zeros(FILTERS), np.zeros(FILTERS), np.ones(FILTERS))
        layers += [conv, bn, nn.ReLU()]
        in_ch = FILTERS
    layers += [nn.GlobalAvgPool1D(), nn.Linear(he_uniform(NUM_CLASSES, FILTERS), np.zeros(NUM_CLASSES))]
    return nn.Network(layers)


def normalize_input(samples: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """The (n, 1, 280) network inputs of an (n, 7, 40) window stack: z-scored, flattened."""
    return stats.zscore(samples).reshape(samples.shape[0], 1, FLAT_SIZE)


def _stratified_split(labels: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    train_idx: list[int] = []
    holdout_idx: list[int] = []
    for cls in range(NUM_CLASSES):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        n_hold = max(1, int(round(members.size * HOLDOUT_FRACTION)))  # < size, as size >= 2
        holdout_idx.extend(members[:n_hold])
        train_idx.extend(members[n_hold:])
    return np.sort(np.asarray(train_idx)), np.sort(np.asarray(holdout_idx))


def _confusion(net: nn.Network, stats: NormalizationStats, x: list[np.ndarray], labels: np.ndarray) -> np.ndarray:
    """The 6x6 confusion matrix (rows true, cols predicted) of ``net`` on
    the (7, 40) windows ``x``, folded once and run 32 windows at a time,
    each 32 normalized as they are run."""
    frozen = net.frozen()
    preds = np.concatenate([
        np.argmax(nn.softmax(frozen.forward(normalize_input(np.stack(x[start:start + 32]), stats))), axis=1)
        for start in range(0, len(x), 32)
    ])
    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    return confusion


def training_labels(dataset: Sequence[LabeledWindow]) -> np.ndarray:
    """Each window's class index; raises ``ValueError`` unless every class
    has the two windows a stratified split needs."""
    labels = np.asarray([int(item.label) for item in dataset], dtype=np.int64)
    counts = np.bincount(labels, minlength=NUM_CLASSES)
    missing = [ActionClass(i).name for i in range(NUM_CLASSES) if counts[i] < 2]
    if missing:
        raise ValueError(f"need >= 2 examples per class, deficient: {', '.join(missing)}")
    return labels


def train(
    dataset: Sequence[LabeledWindow],
    config: TorqueNetConfig = TorqueNetConfig(),
) -> tuple[nn.Network, NormalizationStats, TrainingReport]:
    """Train on a labeled window set; returns (network, stats, report).

    The split is stratified 80/20 by class using the config seed, input
    statistics come from the training split only, and the whole run is
    deterministic for a fixed seed.
    """
    labels = training_labels(dataset)
    rng = np.random.default_rng(config.seed)
    train_idx, holdout_idx = _stratified_split(labels, rng)

    # the dataset's own windows, each batch normalized when it is run: no normalized copy of a split
    x_train = [dataset[i].window.samples for i in train_idx]
    x_hold = [dataset[i].window.samples for i in holdout_idx]
    y_train, y_hold = labels[train_idx], labels[holdout_idx]
    stats = NormalizationStats.from_samples(np.stack(x_train))  # a stack freed at once

    net = build_network(config)
    optimizer = nn.MomentumSGD(net, config.learning_rate)

    started = time.perf_counter()
    epoch_losses: list[float] = []
    epoch_train_acc: list[float] = []
    epoch_hold_acc: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(len(x_train))
        batch_losses = []
        correct = 0
        for start in range(0, order.size, config.batch_size):
            batch = order[start:start + config.batch_size]
            inputs = normalize_input(np.stack([x_train[i] for i in batch]), stats)
            loss, probs = nn.backward(net, inputs, y_train[batch])
            optimizer.step()
            batch_losses.append(loss)
            correct += int(np.sum(np.argmax(probs, axis=1) == y_train[batch]))
        epoch_losses.append(float(np.mean(batch_losses)))
        epoch_train_acc.append(correct / order.size)
        confusion = _confusion(net, stats, x_hold, y_hold)
        epoch_hold_acc.append(float(np.trace(confusion) / confusion.sum()))
    wall = time.perf_counter() - started

    report = TrainingReport(
        epoch_losses=epoch_losses,
        epoch_train_accuracy=epoch_train_acc,
        epoch_holdout_accuracy=epoch_hold_acc,
        confusion_matrix=confusion,
        holdout_accuracy=epoch_hold_acc[-1],
        n_train=int(train_idx.size),
        n_holdout=int(holdout_idx.size),
        wall_seconds=wall,
    )
    return net, stats, report


def classify_window(
    net: nn.Network, stats: NormalizationStats, window: TorqueWindow
) -> ActionScores:
    """Score one window through ``classify_windows``' path, its lone window
    on the (1, 0) plan; pure (batch norm frozen to running stats)."""
    if not isinstance(window, TorqueWindow):
        raise TypeError("classify_window expects a TorqueWindow")
    logits = _run_logits(net.frozen().layers, stats, range(1), window.samples)
    return ActionScores.from_probability_rows(nn.softmax(logits))[0]


def classify_windows(
    net: nn.Network, stats: NormalizationStats, windows: range, torques: np.ndarray
) -> list[ActionScores]:
    """Score the windows of the (7, n) stream ``torques`` that start at each
    sample of ``windows``; equal to the frozen network's forward on each
    window up to rounding.

    After r convs the frozen network sees +-r samples (one per conv of
    kernel 3). So in a flat window, a position at least r samples from
    both ends of its joint's segment has the feature that joint's whole
    series has there. Each conv computes the stream's joint series once,
    plus, per window, only the band of positions within r of its 14
    joint-segment ends. The gathers and the pooling come from
    ``_run_plan``, cached per geometry (count, step); a single window has
    step 0. A stream that is not (7, n), a step < 1, a window outside the
    stream, or a scored sample that is not finite or beyond
    +-TORQUE_LIMIT_NM raises ``ValueError``.
    """
    if torques.ndim != 2 or torques.shape[0] != NUM_JOINTS:
        raise ValueError(f"torque stream must be ({NUM_JOINTS}, n), got {torques.shape}")
    if windows.step < 1:
        raise ValueError(f"window step must be positive, got {windows.step}")
    if not windows:
        return []
    if windows[0] < 0 or windows[-1] + WINDOW_SAMPLES > torques.shape[1]:
        raise ValueError(f"windows {windows} do not fit a stream of {torques.shape[1]} samples")
    check_torques(torques[:, windows[0]:windows[-1] + WINDOW_SAMPLES])
    logits = _run_logits(net.frozen().layers, stats, windows, torques)
    return ActionScores.from_probability_rows(nn.softmax(logits))


# the most windows one plan scores: its pooling matrix grows with the
# square of its windows, so a longer run is scored in pieces
_PLAN_WINDOWS = 32


class _RunPlan(NamedTuple):
    """How to score one run; every array is read-only.

    A layer's output is a (channels, columns + 1) matrix: the run's joint
    series end to end, then the layer's band of each window in window and
    flat order, then one zero column that stands for same padding.
    """

    gathers: tuple[np.ndarray, ...]  # per conv, (KERNEL_SIZE, outputs): its input's columns per tap
    pool: np.ndarray  # (windows, last conv's columns + 1): 1 where a window reads a column


def _tap_columns(rows: np.ndarray, positions: np.ndarray, zero: int) -> np.ndarray:
    """The (KERNEL_SIZE, rows * positions) columns that each tap of the
    outputs at ``positions`` of each row of ``rows`` reads; a tap past
    either end of its row reads ``zero``."""
    p = KERNEL_SIZE // 2
    padded = np.pad(rows, ((0, 0), (p, p)), constant_values=zero)
    taps = positions + np.arange(KERNEL_SIZE)[:, None]
    return padded[:, taps].transpose(1, 0, 2).reshape(KERNEL_SIZE, -1)


@functools.lru_cache(maxsize=8)
def _run_plan(count: int, step: int) -> _RunPlan:
    """The plan for ``count`` windows that slice one stream ``step`` samples apart."""
    w, p = WINDOW_SAMPLES, KERNEL_SIZE // 2
    length = w + (count - 1) * step
    n_series = NUM_JOINTS * length
    series = np.arange(n_series).reshape(NUM_JOINTS, length)
    u = np.arange(FLAT_SIZE)
    offset = u % w
    # the column of each window's flat positions: a series value for now
    cols = u // w * length + offset + step * np.arange(count)[:, None]
    zero = n_series
    gathers = []
    for r in range(p, BLOCKS * p + 1, p):  # the reach after this conv
        band = (offset < r) | (offset >= w - r)
        # a series output reads its joint's series, a band output its window
        gathers.append(np.concatenate(
            [_tap_columns(series, np.arange(length), zero), _tap_columns(cols, u[band], zero)], axis=1
        ))
        n_band = int(band.sum())
        cols = np.where(band, n_series + np.arange(count)[:, None] * n_band + np.cumsum(band) - 1, cols)
        zero = n_series + count * n_band
    pool = np.zeros((count, zero + 1))
    np.put_along_axis(pool, cols, 1.0, axis=1)
    for array in (*gathers, pool):
        array.flags.writeable = False
    return _RunPlan(tuple(gathers), pool)


def _run_logits(
    layers: list[nn.Layer], stats: NormalizationStats, windows: range, torques: np.ndarray
) -> np.ndarray:
    """Logits of the ``windows`` of ``torques`` from the preset's frozen
    ``layers``: conv and ReLU pairs, then the pooling and the head. Per
    piece of at most ``_PLAN_WINDOWS`` windows, each conv is one gather,
    one GEMM with the bias and an in-place ReLU; the pooling is one GEMM
    with the plan's 0/1 matrix."""
    pooled = []
    for i in range(0, len(windows), _PLAN_WINDOWS):
        run = windows[i:i + _PLAN_WINDOWS]
        plan = _run_plan(len(run), run.step if len(run) > 1 else 0)
        stream = torques[:, run[0]:run[-1] + WINDOW_SAMPLES]
        x = np.zeros((1, stream.size + 1))
        x[0, :-1] = stats.zscore(stream).ravel()
        for conv, gather in zip(layers[:-2:2], plan.gathers):
            y = np.empty((conv.out_channels, gather.shape[1] + 1))
            y[:, -1] = 0.0
            # the gathered matrix dies right after its GEMM: while two were
            # alive, malloc returned and re-faulted ~1,400 pages per call
            conv.gemm(np.take(x, gather, axis=1).reshape(-1, gather.shape[1]), out=y[:, :-1])
            x = np.maximum(y, 0.0, out=y)
        pooled.append(plan.pool @ x.T)
    return layers[-1].forward(np.concatenate(pooled) / FLAT_SIZE)


def torque_vote(scores: ActionScores) -> bool:
    """True iff the predicted action calls for releasing the object."""
    return scores.predicted in RELEASE_ACTIONS


def evaluate(
    net: nn.Network, stats: NormalizationStats, dataset: Sequence[LabeledWindow]
) -> tuple[float, np.ndarray]:
    """Accuracy and 6x6 confusion matrix (rows true, cols predicted)."""
    labels = np.asarray([int(item.label) for item in dataset], dtype=np.int64)
    confusion = _confusion(net, stats, [item.window.samples for item in dataset], labels)
    return float(np.trace(confusion) / confusion.sum()), confusion


# ---------------------------------------------------------------------------
# model and dataset files
# ---------------------------------------------------------------------------

def _stored_arrays(net: nn.Network) -> dict[str, np.ndarray]:
    """The arrays a model file holds, keyed "<layer index>.<array>": each
    layer's trained arrays and each batch norm's running statistics."""
    return {
        f"{i}.{name}": getattr(layer, name)
        for i, layer in enumerate(net.layers)
        for name in (layer.arrays if isinstance(layer, nn.BatchNorm1D) else layer.trained)
    }


def save_model(path: str | Path, net: nn.Network, stats: NormalizationStats) -> None:
    arrays = {key: arr.tolist() for key, arr in _stored_arrays(net).items()}
    doc = {"format": MODEL_FORMAT_VERSION, "arrays": arrays, "normalization": stats.to_json_dict()}
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_model(path: str | Path) -> tuple[nn.Network, NormalizationStats]:
    """The preset network holding the saved arrays, and the saved statistics."""
    doc = json_object(json.loads(Path(path).read_text(encoding="utf-8")))
    if doc.get("format") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {doc.get('format')!r}; retrain to write {MODEL_FORMAT_VERSION}")
    if doc.keys() != {"format", "arrays", "normalization"}:
        raise ValueError(f"model file keys {sorted(doc)} are not arrays, format and normalization")
    net = build_network()
    targets, arrays = _stored_arrays(net), json_object(doc["arrays"])
    if arrays.keys() != targets.keys():
        raise ValueError(f"model arrays differ from the preset's in {sorted(arrays.keys() ^ targets.keys())}")
    for key, target in targets.items():
        value = json_numbers(arrays[key])
        if value.shape != target.shape:
            raise ValueError(f"model array {key} has shape {value.shape}, the preset's is {target.shape}")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"model array {key} contains non-finite values")
        if key.endswith(".running_var") and np.any(value < 0.0):
            raise ValueError(f"model array {key} must be non-negative")
        target[...] = value
    return net, NormalizationStats.from_json_dict(doc["normalization"])


def write_dataset_jsonl(path: str | Path, items: Iterable[LabeledWindow]) -> int:
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

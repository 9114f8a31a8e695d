"""Per-layer timings of the preset torque network, training and inference.

Prints, as the median and interquartile range (IQR) over ``--repeats``
runs, each layer's training-mode forward and backward at batch 32 (the
preset's untrained network, on 32 windows of the synthetic dataset), one
``classify_windows`` call over a 17-window episode, the minor page
faults per training step (``getrusage``), and the traced peak of one
more training step (``tracemalloc``), in MB and in (64, B·L) float64
activation buffers. One untimed training step and one untimed episode
run first, so first-touch costs are not counted.

Run from anywhere:

    python3 scripts/layer_timings.py
    python3 scripts/layer_timings.py --repeats 50 --seed 3
"""
from __future__ import annotations

import argparse
import resource
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from handover import classifier, nn_kernel as nn, synth  # noqa: E402
from handover.core import WINDOW_SAMPLES, ActionClass  # noqa: E402
from handover.fusion import DEFAULT_STRIDE_SAMPLES  # noqa: E402

BATCH = 32


def timed(method: Callable, samples: list[float]) -> Callable:
    """``method``, appending each call's wall time in ms to ``samples``."""
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        result = method(*args, **kwargs)
        samples.append((time.perf_counter() - started) * 1e3)
        return result
    return wrapper


def summary(samples: list[float]) -> str:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return f"{median:8.3f} ({q3 - q1:.3f})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=20, help="timed runs of each part (default 20)")
    parser.add_argument("--seed", type=int, default=0, help="dataset, episode and network seed (default 0)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    dataset = synth.generate_dataset(synth.default_signature_model(), per_class_count=6, seed=args.seed)
    windows = np.stack([item.window.samples for item in dataset])[:BATCH]
    labels = classifier.training_labels(dataset)[:BATCH]
    stats = classifier.NormalizationStats.from_samples(windows)
    x = classifier.normalize_input(windows, stats)
    config = classifier.TorqueNetConfig(seed=args.seed)
    net = classifier.build_network(config)
    optimizer = nn.MomentumSGD(net, config.learning_rate)

    def step() -> None:
        nn.backward(net, x, labels)
        optimizer.step()

    step()
    times: dict[tuple[int, str], list[float]] = {}
    for index, layer in enumerate(net.layers):
        for name in ("forward", "backward"):
            setattr(layer, name, timed(getattr(layer, name), times.setdefault((index, name), [])))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(args.repeats):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    activation = classifier.FILTERS * x.shape[0] * x.shape[2] * x.itemsize

    script = synth.generate_scenario(ActionClass.PULL, synth.FaultProfile.fused_nominal(), args.seed)
    starts = range(0, script.torques.shape[1] - WINDOW_SAMPLES + 1, DEFAULT_STRIDE_SAMPLES)
    episode: list[float] = []
    score = timed(classifier.classify_windows, episode)
    score(net, stats, starts, script.torques)
    episode.clear()
    for _ in range(args.repeats):
        score(net, stats, starts, script.torques)

    print(f"training step at batch {BATCH}, ms, median (IQR) over {args.repeats} steps")
    print(f"{'layer':<24}{'forward':>18}{'backward':>18}")
    for index, layer in enumerate(net.layers):
        label = f"{index} {type(layer).__name__}"
        if isinstance(layer, nn.Conv1D):
            label += f" {layer.in_channels}->{layer.out_channels}"
        print(f"{label:<24}{summary(times[index, 'forward']):>18}{summary(times[index, 'backward']):>18}")
    print(f"classify_windows, {len(starts)} windows: {summary(episode)} ms")
    print(f"minor page faults per training step: {faults / args.repeats:.1f}")
    print(f"traced peak of one training step: {peak / 1e6:.2f} MB, "
          f"{peak / activation:.2f} ({classifier.FILTERS}, B·L) buffers of {activation / 1e6:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

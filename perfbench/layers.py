"""Which package names the traced run wraps, and the per-layer metrics.

Every metric counts all calls in the traced run: one set-up plus one
measured unit. A metric whose layer the workload never calls reads 0;
a ratio whose base is 0 reads 0 as well.
"""
from __future__ import annotations

from collections import Counter
from pathlib import Path

from handover import classifier, core, fusion, harness, nn_kernel, synth, vision_gate

from tracer import SpanStats, Tracer

KERNEL_LAYERS = {
    "conv1d": nn_kernel.Conv1D,
    "batchnorm1d": nn_kernel.BatchNorm1D,
    "relu": nn_kernel.ReLU,
    "global_avg_pool": nn_kernel.GlobalAvgPool1D,
    "linear": nn_kernel.Linear,
}

# value types whose __post_init__ validation runs on the decision path
VALIDATED_TYPES = (core.TorqueWindow, core.ActionScores, core.FingertipDetection)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_detections(counts: Counter, args, kwargs, script) -> None:
    counts["synth.detections_built"] += sum(len(frame.detections) for frame in script.frames)


def _count_epochs(counts: Counter, args, kwargs, result) -> None:
    config = args[1] if len(args) > 1 else kwargs.get("config", classifier.TorqueNetConfig())
    counts["classifier.train.epochs"] += config.epochs


def _count_windows(counts: Counter, args, kwargs, result) -> None:
    counts["classifier.classify_windows.windows"] += len(_arg(args, kwargs, 2, "windows"))


def _conv_flop(x_shape: tuple[int, ...], layer: nn_kernel.Conv1D) -> int:
    batch, _channels, length = x_shape
    return 2 * layer.out_channels * layer.in_channels * layer.kernel_size * batch * length


def _count_conv_forward(counts: Counter, args, kwargs, result) -> None:
    counts["nn_kernel.conv1d.forward.flop"] += _conv_flop(args[1].shape, args[0])


def _count_conv_backward(counts: Counter, args, kwargs, result) -> None:
    # weight gradient and input gradient: two GEMMs the size of the forward one
    counts["nn_kernel.conv1d.backward.flop"] += 2 * _conv_flop(args[1].shape, args[0])


def _count_pairs(counts: Counter, args, kwargs, result) -> None:
    counts["fusion.torque_events"] += len(_arg(args, kwargs, 0, "torque_events"))
    counts["fusion.fused_samples"] += len(result.samples)


def _count_fsm_step(counts: Counter, args, kwargs, result) -> None:
    # each fused sample the debounce consumes carries one window and one frame
    counts["classifier.windows_used"] += 1
    counts["vision_gate.frames_used"] += 1


def _count_single_modality(counts: Counter, args, kwargs, outcome) -> None:
    votes = sum(1 for event in outcome.events if event["type"] == "vote_sample")
    if outcome.pipeline is fusion.Pipeline.TORQUE_ONLY:
        counts["classifier.windows_used"] += votes
    elif outcome.pipeline is fusion.Pipeline.VISION_ONLY:
        counts["vision_gate.frames_used"] += votes


def _count_log_bytes(counts: Counter, args, kwargs, result) -> None:
    counts["fusion.write_episode_log.bytes"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _count_artifact_bytes(counts: Counter, args, kwargs, result) -> None:
    out_dir = _arg(args, kwargs, 0, "config").out_dir
    if out_dir:
        counts["harness.artifact_bytes"] += sum(
            p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file()
        )


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the package."""
    fn = tracer.patch_function
    fn(synth.generate_dataset, "synth.generate_dataset")
    fn(synth.generate_scenario, "synth.generate_scenario", _count_detections)
    for cls in VALIDATED_TYPES:
        tracer.patch_method(cls, "__post_init__", "core.validate")
    fn(classifier.train, "classifier.train", _count_epochs)
    fn(classifier.classify_windows, "classifier.classify_windows", _count_windows)
    fn(classifier.classify_window, "classifier.classify_window")
    for kind, cls in KERNEL_LAYERS.items():
        is_conv = cls is nn_kernel.Conv1D
        tracer.patch_method(cls, "forward", f"nn_kernel.{kind}.forward",
                            _count_conv_forward if is_conv else None)
        tracer.patch_method(cls, "backward", f"nn_kernel.{kind}.backward",
                            _count_conv_backward if is_conv else None)
    fn(nn_kernel.softmax, "nn_kernel.softmax")
    fn(nn_kernel.backward, "nn_kernel.backward", unit=True)
    tracer.patch_method(nn_kernel.MomentumSGD, "step", "nn_kernel.momentum_sgd.step", unit=True)
    fn(vision_gate.evaluate_grasp, "vision_gate.evaluate_grasp")
    fn(fusion.synchronize, "fusion.synchronize", _count_pairs)
    tracer.patch_method(fusion.ReleaseFsm, "step", "fusion.fsm_step", _count_fsm_step)
    fn(fusion.run_episode, "fusion.run_episode", _count_single_modality, unit=True)
    fn(fusion.write_episode_log, "fusion.write_episode_log", _count_log_bytes)
    fn(harness.run_experiment, "harness.run_experiment", _count_artifact_bytes)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    spans = tracer.summary()
    counts = tracer.counts

    def stat(name: str) -> SpanStats:
        return spans.get(name) or SpanStats()

    def busy(name: str) -> float:
        return stat(name).busy_ns / 1e9

    def calls(name: str) -> int:
        return stat(name).calls

    windows_classified = counts["classifier.classify_windows.windows"] + calls("classifier.classify_window")
    m: dict[str, tuple[float, str]] = {
        "synth.generate_dataset.busy_s": (busy("synth.generate_dataset"), "s"),
        "synth.generate_scenario.calls": (calls("synth.generate_scenario"), "count"),
        "synth.generate_scenario.busy_s": (busy("synth.generate_scenario"), "s"),
        "synth.detections_built": (counts["synth.detections_built"], "count"),
        "core.validate.calls": (calls("core.validate"), "count"),
        "core.validate.busy_s": (busy("core.validate"), "s"),
        "classifier.train.epoch_s": (
            _ratio(busy("classifier.train"), counts["classifier.train.epochs"]), "s"),
        "classifier.classify_windows.calls": (calls("classifier.classify_windows"), "count"),
        "classifier.classify_windows.windows": (counts["classifier.classify_windows.windows"], "count"),
        "classifier.classify_windows.busy_s": (busy("classifier.classify_windows"), "s"),
        "classifier.classify_windows.ms_p50": (stat("classifier.classify_windows").p50_ms(), "ms"),
        "classifier.classify_window.calls": (calls("classifier.classify_window"), "count"),
        "classifier.classify_window.ms_p50": (stat("classifier.classify_window").p50_ms(), "ms"),
        "classifier.windows_used_ratio": (
            _ratio(counts["classifier.windows_used"], windows_classified), "ratio"),
    }
    for kind in KERNEL_LAYERS:
        for direction in ("forward", "backward"):
            name = f"nn_kernel.{kind}.{direction}"
            m[f"{name}.busy_s"] = (busy(name), "s")
    for direction in ("forward", "backward"):
        name = f"nn_kernel.conv1d.{direction}"
        gflop = counts[f"{name}.flop"] / 1e9
        m[f"{name}.gflop"] = (gflop, "GFLOP")
        m[f"{name}.gflop_per_s"] = (_ratio(gflop, busy(name)), "GFLOP/s")
    m.update({
        "nn_kernel.momentum_sgd.step.busy_s": (busy("nn_kernel.momentum_sgd.step"), "s"),
        "nn_kernel.softmax.busy_s": (busy("nn_kernel.softmax"), "s"),
        "vision_gate.evaluate_grasp.calls": (calls("vision_gate.evaluate_grasp"), "count"),
        "vision_gate.evaluate_grasp.busy_s": (busy("vision_gate.evaluate_grasp"), "s"),
        "vision_gate.frames_used_ratio": (
            _ratio(counts["vision_gate.frames_used"], calls("vision_gate.evaluate_grasp")), "ratio"),
        "fusion.synchronize.calls": (calls("fusion.synchronize"), "count"),
        "fusion.synchronize.busy_s": (busy("fusion.synchronize"), "s"),
        "fusion.pair_ratio": (_ratio(counts["fusion.fused_samples"], counts["fusion.torque_events"]), "ratio"),
        "fusion.fsm_step.calls": (calls("fusion.fsm_step"), "count"),
        "fusion.fsm_step.busy_s": (busy("fusion.fsm_step"), "s"),
        "fusion.run_episode.self_s": (stat("fusion.run_episode").self_ns / 1e9, "s"),
        "fusion.write_episode_log.busy_s": (busy("fusion.write_episode_log"), "s"),
        "fusion.write_episode_log.bytes": (counts["fusion.write_episode_log.bytes"], "bytes"),
        "harness.run_experiment.self_s": (stat("harness.run_experiment").self_ns / 1e9, "s"),
        "harness.artifact_bytes": (counts["harness.artifact_bytes"], "bytes"),
    })
    return m

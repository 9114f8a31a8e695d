"""The three closed-loop workloads: set-up, the timed unit, and output checks.

One client in one process calls the package's public functions; each call
starts only after the previous one returned. The workload seed picks the
inputs; the package sees only the generated inputs.

- ``train`` trains the classifier on the paper's default dataset, so the
  kernel forward/backward passes and the optimizer do the work.
- ``grid`` runs the researcher's 540-trial protocol through
  ``harness.run_experiment`` with episode logs: scenario generation,
  batched inference and artifact I/O.
- ``stream`` is the robot's use: one torque window at a time through the
  classifier, the vision gate, pairing and the release FSM, so per-call
  overhead dominates. It is a diagnostic, not in BENCHMARK.json: on a
  shared 2-core host its step latency drifted by up to 40% between runs.

Each timed unit reports ``items``: training windows, trials or steps.
"""
from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any

import numpy as np

from handover import classifier, core, fusion, harness, synth, vision_gate

import layers
from tracer import Tracer

MODEL_SEED = 7
TRAIN_EPOCHS = 1  # epochs per timed train call


@dataclass(frozen=True)
class Sizes:
    dataset_per_class: int = 300  # train: the paper's default dataset (1,800 windows)
    model_per_class: int = 40  # grid/stream model: the test fixture's recipe
    model_epochs: int = 8
    trials_per_action: int = 30  # grid: 30 x 6 actions x 3 pipelines
    episodes_per_action: int = 30  # stream: 180 fused-profile episodes
    setup_repeats: int = 3


@dataclass
class Unit:
    seconds: float
    items: int
    output: Any


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    details: dict[str, Any]


def fixture_model(sizes: Sizes) -> tuple:
    dataset = synth.generate_dataset(
        synth.default_signature_model(), sizes.model_per_class, seed=MODEL_SEED
    )
    net, stats, _report = classifier.train(
        dataset, classifier.TorqueNetConfig(seed=MODEL_SEED, epochs=sizes.model_epochs)
    )
    return net, stats


class TrainWorkload:
    name = "train"
    # set-up never touches BLAS, so the first train call in a fresh process
    # pays ~1 s of first-touch memory and BLAS buffer set-up
    warm_up = True
    min_units = 1

    def setup(self, seed: int, sizes: Sizes, scratch: Path) -> dict:
        dataset = synth.generate_dataset(synth.default_signature_model(), sizes.dataset_per_class, seed=seed)
        return {"dataset": dataset, "config": classifier.TorqueNetConfig(epochs=TRAIN_EPOCHS)}

    def unit(self, state: dict) -> Unit:
        config = state["config"]
        started = perf_counter_ns()
        _net, _stats, report = classifier.train(state["dataset"], config)
        elapsed = perf_counter_ns() - started
        return Unit(elapsed / 1e9, report.n_train * config.epochs, report)

    def check(self, state: dict, units: list[Unit]) -> tuple[int, int]:
        attempted = failed = 0
        for unit in units:
            losses = unit.output.epoch_losses
            attempted += len(losses)
            failed += sum(not np.isfinite(loss) for loss in losses)
        return attempted, failed

    def quality(self, state: dict, unit: Unit) -> float:
        return unit.output.holdout_accuracy

    def extra_metrics(self, units: list[Unit]) -> dict[str, tuple[float, str]]:
        return {}


class GridWorkload:
    name = "grid"
    warm_up = False  # set-up's model training already warmed BLAS and the heap
    min_units = 2  # the second pass is the determinism check

    def setup(self, seed: int, sizes: Sizes, scratch: Path) -> dict:
        return {"model": fixture_model(sizes), "seed": seed, "sizes": sizes, "scratch": scratch}

    def unit(self, state: dict) -> Unit:
        out_dir = Path(tempfile.mkdtemp(prefix="grid-", dir=state["scratch"]))
        try:
            config = harness.ExperimentConfig(
                trials_per_action=state["sizes"].trials_per_action,
                seed=state["seed"],
                out_dir=str(out_dir),
            )
            started = perf_counter_ns()
            table, records = harness.run_experiment(config, state["model"])
            elapsed = perf_counter_ns() - started
            artifacts = ((out_dir / "trials.jsonl").read_bytes(), (out_dir / "report.json").read_bytes())
        finally:
            shutil.rmtree(out_dir)
        return Unit(elapsed / 1e9, len(records), (table, artifacts))

    def check(self, state: dict, units: list[Unit]) -> tuple[int, int]:
        """Every pass passes all report gates and repeats the first byte for byte."""
        first_trials, first_report = units[0].output[1]
        first_lines = first_trials.splitlines()
        attempted = failed = 0
        for unit in units:
            table, (trials, report) = unit.output
            lines = trials.splitlines()
            attempted += unit.items
            if not table.all_gates_pass() or report != first_report or len(lines) != len(first_lines):
                failed += unit.items
            else:
                failed += sum(a != b for a, b in zip(lines, first_lines))
        return attempted, failed

    def quality(self, state: dict, unit: Unit) -> float:
        return unit.output[0].rate(fusion.Pipeline.FUSED)

    def extra_metrics(self, units: list[Unit]) -> dict[str, tuple[float, str]]:
        return {}


class EpisodeDriver:
    """Drives one scripted episode a torque window at a time.

    Each step classifies the newest window, evaluates the camera frames
    that newly fall within the pairing window of its timestamp, pairs that
    one event, and steps the FSM. Frames that no event can pair with are
    never evaluated. Pairing sees every verdict within the window, so the
    decision equals ``run_episode`` on the whole episode.
    """

    def __init__(self, script: synth.ScenarioScript, model: tuple, config: fusion.SyncConfig) -> None:
        self.script = script
        self.net, self.stats = model
        self.config = config
        self.fsm = fusion.ReleaseFsm(config)
        self._next_frame = 0
        self._verdicts: deque = deque()

    def starts(self) -> range:
        last = self.script.torques.shape[1] - synth.WINDOW_SAMPLES
        return range(0, last + 1, fusion.DEFAULT_STRIDE_SAMPLES)

    def step(self, start: int) -> core.ReleaseDecision | None:
        script, reach = self.script, self.config.pairing_window_ms
        window = core.TorqueWindow(
            samples=script.torques[:, start:start + synth.WINDOW_SAMPLES],
            start_time=script.torque_start_ms + start * synth.SAMPLE_DT_MS,
        )
        scores = classifier.classify_window(self.net, self.stats, window)
        stamp = script.torque_start_ms + (start + synth.WINDOW_SAMPLES) * synth.SAMPLE_DT_MS
        frames = script.frames
        while self._next_frame < len(frames) and frames[self._next_frame].timestamp <= stamp + reach:
            frame = frames[self._next_frame]
            self._next_frame += 1
            if frame.timestamp >= stamp - reach:
                self._verdicts.append(
                    vision_gate.evaluate_grasp(frame.detections, script.slab, at_ms=frame.timestamp)
                )
        while self._verdicts and self._verdicts[0].evaluated_at < stamp - reach:
            self._verdicts.popleft()
        sync = fusion.synchronize([fusion.TorqueEvent(scores, stamp)], list(self._verdicts), self.config)
        return self.fsm.step(sync.samples[0]) if sync.samples else None


def drive_episode(script: synth.ScenarioScript, model: tuple, config: fusion.SyncConfig,
                  step_ns: list[int]) -> int | None:
    """Step one episode to its release decision; returns the release time or None."""
    driver = EpisodeDriver(script, model, config)
    for start in driver.starts():
        started = perf_counter_ns()
        decision = driver.step(start)
        step_ns.append(perf_counter_ns() - started)
        if decision is not None:
            return decision.decided_at
    return None


class StreamWorkload:
    name = "stream"
    warm_up = False  # set-up's model training already warmed BLAS and the heap
    min_units = 1

    def setup(self, seed: int, sizes: Sizes, scratch: Path) -> dict:
        model = fixture_model(sizes)
        profile = synth.FaultProfile.fused_nominal()
        scripts = [
            synth.generate_scenario(
                action, profile, np.random.SeedSequence(entropy=seed, spawn_key=(int(action), k))
            )
            for action in core.ActionClass
            for k in range(sizes.episodes_per_action)
        ]
        return {"model": model, "scripts": scripts, "config": fusion.SyncConfig()}

    def unit(self, state: dict) -> Unit:
        step_ns: list[int] = []
        started = perf_counter_ns()
        releases = [drive_episode(s, state["model"], state["config"], step_ns) for s in state["scripts"]]
        elapsed = perf_counter_ns() - started
        return Unit(elapsed / 1e9, len(step_ns), (releases, step_ns))

    def check(self, state: dict, units: list[Unit]) -> tuple[int, int]:
        """Each episode's step-driven release time equals run_episode's (FUSED)."""
        net, stats = state["model"]
        expected = [
            fusion.run_episode(script, net, stats, state["config"], fusion.Pipeline.FUSED).release_time_ms
            for script in state["scripts"]
        ]
        attempted = sum(len(unit.output[0]) for unit in units)
        failed = sum(got != want for unit in units for got, want in zip(unit.output[0], expected))
        return attempted, failed

    def quality(self, state: dict, unit: Unit) -> float:
        """Share of driven episodes whose release matches the expected decision."""
        hits = [
            (release is not None) == (core.expected_decision(script.action) is core.Decision.RELEASE)
            for script, release in zip(state["scripts"], unit.output[0])
        ]
        return sum(hits) / len(hits)

    def extra_metrics(self, units: list[Unit]) -> dict[str, tuple[float, str]]:
        """Median over passes of each pass's step-latency percentile; one pass
        has ~2,860 steps, so its p99 has ~28 steps beyond it."""
        def step_ms(percentile: float) -> float:
            return statistics.median(float(np.percentile(u.output[1], percentile)) / 1e6 for u in units)

        return {"step_ms_p50": (step_ms(50), "ms"), "step_ms_p99": (step_ms(99), "ms")}


WORKLOADS = {w.name: w for w in (TrainWorkload(), GridWorkload(), StreamWorkload())}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def run_units(workload, state: dict, seconds: float) -> tuple[list[Unit], list[Unit]]:
    """Warm-up units (checked, not timed), then timed units while the next
    one is expected to end within ``seconds``."""
    warm_up = [workload.unit(state)] if workload.warm_up else []
    units: list[Unit] = []
    started = perf_counter()
    while len(units) < workload.min_units or perf_counter() - started + units[-1].seconds <= seconds:
        units.append(workload.unit(state))
    return warm_up, units


def measure(workload, seed: int, seconds: float, sizes: Sizes, scratch: Path) -> Result:
    """Untraced run: the end-to-end metrics; nothing in the package is wrapped."""
    setup_s = []
    for _ in range(sizes.setup_repeats):
        state = None  # free the previous set-up before building the next
        started = perf_counter()
        state = workload.setup(seed, sizes, scratch)
        setup_s.append(perf_counter() - started)
    warm_up, units = run_units(workload, state, seconds)
    attempted, failed = workload.check(state, warm_up + units)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "items_per_s": (statistics.median(unit.items / unit.seconds for unit in units), "1/s"),
        "quality": (float(workload.quality(state, units[-1])), "ratio"),
        **workload.extra_metrics(units),
    }
    details = {
        "setup_s": setup_s,
        "warm_up_unit_s": [unit.seconds for unit in warm_up],
        "unit_s": [unit.seconds for unit in units],
        "items_per_unit": [unit.items for unit in units],
    }
    return Result(metrics, attempted, failed, details)


def trace(workload, seed: int, sizes: Sizes, scratch: Path) -> tuple[Result, Tracer]:
    """Traced run: set-up and one unit traced; an untraced unit gives the overhead."""
    tracer = Tracer()

    def install(t: Tracer) -> None:
        layers.install(t)
        t.patch_method(EpisodeDriver, "step", "stream.step", unit=True)

    with tracer.installed(install):
        state = workload.setup(seed, sizes, scratch)
    warm_up = [workload.unit(state)] if workload.warm_up else []
    plain = workload.unit(state)
    with tracer.installed(install):
        traced = workload.unit(state)
    attempted, failed = workload.check(state, warm_up + [plain, traced])
    metrics = layers.per_layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (traced.seconds / plain.seconds - 1.0, "ratio")
    details = {
        "untraced_unit_s": plain.seconds,
        "traced_unit_s": traced.seconds,
        "spans": len(tracer.spans),
    }
    return Result(metrics, attempted, failed, details), tracer

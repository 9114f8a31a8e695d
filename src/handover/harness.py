"""Experiment runner: per-action trials under three pipeline variants.

Each trial scripts a fresh scenario from a per-trial seed, runs the
pipeline with the given trained model, and scores the outcome against
the expected decision for the action. Results aggregate into a
per-action success/failure table plus overall rates, written as aligned
text and machine-readable JSON. Reruns with the same seed are
byte-identical.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .classifier import NormalizationStats
from .core import ActionClass, Decision, JsonCodec, dumps_canonical, expected_decision
from .fusion import Pipeline, SyncConfig, run_episode, write_episode_log
from .nn_kernel import Network
from .synth import FaultProfile, generate_scenario

CALIBRATION_NOTES = [
    "single-modality pipelines run with deliberately degraded fault profiles, "
    "calibrated so their per-action rows land near the reference field rates "
    "(torque-only ~90%, vision-only ~79% overall); those rows validate the "
    "pipeline wiring rather than the modalities themselves.",
    "overall rates are computed directly from the per-action rows as "
    "successes/trials and rounded to whole percent.",
]
FUSED_MIN_OVERALL = 0.95  # the paper's fused success rate


def default_fault_profiles() -> dict[Pipeline, FaultProfile]:
    return {
        Pipeline.TORQUE_ONLY: FaultProfile.torque_degraded(),
        Pipeline.VISION_ONLY: FaultProfile.vision_degraded(),
        Pipeline.FUSED: FaultProfile.fused_nominal(),
    }


def _distinct(field_name: str, entries: tuple[Any, ...]) -> tuple[Any, ...]:
    """``entries``, or a ``ValueError`` naming the field if there are none or
    one repeats (its trials would run twice under the same log names)."""
    if not entries:
        raise ValueError(f"{field_name} must name at least one entry")
    repeated = [e.name.lower() for e, n in Counter(entries).items() if n > 1]
    if repeated:
        raise ValueError(f"{field_name} repeat {repeated[0]}")
    return entries


@dataclass
class ExperimentConfig:
    trials_per_action: int = 30
    actions: tuple[ActionClass, ...] = tuple(ActionClass)
    pipelines: tuple[Pipeline, ...] = (Pipeline.TORQUE_ONLY, Pipeline.VISION_ONLY, Pipeline.FUSED)
    seed: int = 0
    fault_profiles: dict[Pipeline, FaultProfile] = field(default_factory=default_fault_profiles)
    sync: SyncConfig = field(default_factory=SyncConfig)
    out_dir: str | None = None
    log_episodes: bool = True

    def __post_init__(self) -> None:
        if self.trials_per_action < 1:
            raise ValueError("trials_per_action must be >= 1")
        self.actions = _distinct("actions", tuple(ActionClass(a) for a in self.actions))
        self.pipelines = _distinct("pipelines", tuple(Pipeline(p) for p in self.pipelines))
        clean = {pipeline: FaultProfile.clean() for pipeline in self.pipelines}
        self.fault_profiles = {**clean, **self.fault_profiles}


@dataclass
class TrialRecord(JsonCodec):
    """One trial; computes ``released``, ``success`` and ``action_name`` from the rest."""

    pipeline: Pipeline
    action: ActionClass
    trial_index: int
    released: bool = field(init=False)
    success: bool = field(init=False)
    release_time_ms: int | None
    faults: tuple[str, ...]
    episode_log: str | None
    action_name: str = field(init=False)

    def __post_init__(self) -> None:
        self.released = self.release_time_ms is not None
        self.success = self.released == (expected_decision(self.action) is Decision.RELEASE)
        self.action_name = self.action.name.lower()


@dataclass
class ReportTable:
    trials_per_action: int
    seed: int
    actions: tuple[ActionClass, ...]
    pipelines: tuple[Pipeline, ...]
    # per_action[pipeline][action] = (successes, failures)
    per_action: dict[Pipeline, dict[ActionClass, tuple[int, int]]]
    overall: dict[Pipeline, tuple[int, int]]  # (trials, successes)
    gates: dict[str, bool]
    notes: tuple[str, ...]

    def rate(self, pipeline: Pipeline) -> float:
        trials, successes = self.overall[pipeline]
        return successes / trials if trials else 0.0

    def all_gates_pass(self) -> bool:
        return all(self.gates.values())

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "trials_per_action": self.trials_per_action,
            "seed": self.seed,
            "actions": [a.name.lower() for a in self.actions],
            "pipelines": [p.value for p in self.pipelines],
            "per_action": {
                p.value: {
                    a.name.lower(): {"successes": s, "failures": f}
                    for a, (s, f) in self.per_action[p].items()
                }
                for p in self.pipelines
            },
            "overall": {
                p.value: {
                    "trials": self.overall[p][0],
                    "successes": self.overall[p][1],
                    "rate": self.rate(p),
                    "rate_percent": _whole_percent(self.rate(p)),
                }
                for p in self.pipelines
            },
            "gates": dict(self.gates),
            "notes": list(self.notes),
        }


def _whole_percent(rate: float) -> int:
    return int(rate * 100.0 + 0.5)


def _evaluate_gates(table: ReportTable) -> dict[str, bool]:
    gates: dict[str, bool] = {}
    have, rate = set(table.pipelines), table.rate
    if Pipeline.FUSED in have:
        gates["fused_overall_at_least_min"] = rate(Pipeline.FUSED) >= FUSED_MIN_OVERALL
    if Pipeline.VISION_ONLY in have and ActionClass.PUSH in table.actions:
        successes, _ = table.per_action[Pipeline.VISION_ONLY][ActionClass.PUSH]
        gates["vision_only_push_all_fail"] = successes == 0
    if Pipeline.FUSED in have and Pipeline.TORQUE_ONLY in have:
        gates["fused_not_below_torque_only"] = rate(Pipeline.FUSED) >= rate(Pipeline.TORQUE_ONLY)
    if Pipeline.FUSED in have and Pipeline.VISION_ONLY in have:
        gates["fused_not_below_vision_only"] = rate(Pipeline.FUSED) >= rate(Pipeline.VISION_ONLY)
    return gates


def run_experiment(
    config: ExperimentConfig,
    model: tuple[Network, NormalizationStats],
) -> tuple[ReportTable, list[TrialRecord]]:
    """Run the full trial grid on a trained ``model``. When out_dir is set,
    write trials.jsonl, report.txt, report.json and episodes/ logs."""
    out_dir = Path(config.out_dir) if config.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        if config.log_episodes:
            (out_dir / "episodes").mkdir(exist_ok=True)

    net, stats = model

    records: list[TrialRecord] = []
    for pipeline in config.pipelines:
        profile = config.fault_profiles[pipeline]
        for action in config.actions:
            for k in range(config.trials_per_action):
                seed = np.random.SeedSequence(
                    entropy=config.seed,
                    spawn_key=(list(Pipeline).index(pipeline), int(action), k),
                )
                script = generate_scenario(action, profile, seed)
                outcome = run_episode(script, net, stats, config.sync, pipeline)
                log_ref = None
                if out_dir is not None and config.log_episodes:
                    log_ref = f"episodes/{pipeline.value}_{action.name.lower()}_{k:03d}.jsonl"
                    write_episode_log(out_dir / log_ref, outcome)
                records.append(TrialRecord(
                    pipeline=pipeline,
                    action=action,
                    trial_index=k,
                    release_time_ms=outcome.release_time_ms,
                    faults=tuple(script.faults),
                    episode_log=log_ref,
                ))

    counts = Counter((r.pipeline, r.action, r.success) for r in records)
    per_action = {
        p: {a: (counts[p, a, True], counts[p, a, False]) for a in config.actions}
        for p in config.pipelines
    }
    overall = {
        p: (sum(s + f for s, f in cells.values()), sum(s for s, _f in cells.values()))
        for p, cells in per_action.items()
    }
    table = ReportTable(
        trials_per_action=config.trials_per_action,
        seed=config.seed,
        actions=config.actions,
        pipelines=config.pipelines,
        per_action=per_action,
        overall=overall,
        gates={},
        notes=tuple(CALIBRATION_NOTES),
    )
    table.gates = _evaluate_gates(table)

    if out_dir is not None:
        with (out_dir / "trials.jsonl").open("w", encoding="utf-8") as fh:
            for record in records:
                fh.write(dumps_canonical(record.to_json_dict()) + "\n")
        (out_dir / "report.json").write_text(
            dumps_canonical(table.to_json_dict()) + "\n", encoding="utf-8"
        )
        (out_dir / "report.txt").write_text(render_report(table), encoding="utf-8")
    return table, records


def render_report(table: ReportTable) -> str:
    """Aligned text tables: per-action outcomes, then overall rates."""
    lines: list[str] = []
    lines.append("handover simulation report")
    lines.append("=" * 26)
    lines.append(f"trials per action: {table.trials_per_action}    seed: {table.seed}")
    lines.append("")
    lines.append('per-action outcomes ("s" successes, "f" failures)')
    lines.append("")
    header = f"{'action':<12}{'trials':>8}"
    sub = f"{'':<12}{'':>8}"
    for p in table.pipelines:
        header += f"  {p.value:>16}"
        sub += f"  {'s':>7} {'f':>8}"
    lines.append(header)
    lines.append(sub)
    for action in table.actions:
        row = f"{action.name.lower():<12}{table.trials_per_action:>8}"
        for p in table.pipelines:
            s, f = table.per_action[p][action]
            row += f"  {s:>7} {f:>8}"
        lines.append(row)
    lines.append("")
    lines.append("overall success rates")
    lines.append("")
    lines.append(f"{'pipeline':<14}{'trials':>8}{'successes':>11}{'rate':>7}")
    for p in table.pipelines:
        trials, successes = table.overall[p]
        lines.append(
            f"{p.value:<14}{trials:>8}{successes:>11}{_whole_percent(table.rate(p)):>6}%"
        )
    lines.append("")
    lines.append("gates")
    for name, passed in table.gates.items():
        lines.append(f"  {name}: {'PASS' if passed else 'FAIL'}")
    lines.append("")
    lines.append("notes")
    for note in table.notes:
        lines.append(f"  - {note}")
    lines.append("")
    return "\n".join(lines)

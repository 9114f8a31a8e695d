"""Command-line entry points: synth, train, eval, simulate, replay.
``simulate`` scores a model file that ``train`` wrote; it trains none."""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from .classifier import (
    TorqueNetConfig,
    evaluate,
    load_model,
    read_dataset_jsonl,
    save_model,
    train,
    training_labels,
    write_dataset_jsonl,
)
from .core import ActionClass, json_array, json_object, json_value
from .fusion import Pipeline, SyncConfig, replay_episode_log
from .harness import ExperimentConfig, default_fault_profiles, render_report, run_experiment
from .synth import FaultProfile, default_signature_model, generate_dataset

CLASS_NAMES = [a.name.lower() for a in ActionClass]


class BadInput(Exception):
    """A bad input or setting; ``main`` reports it in one line and exits 2."""


@contextmanager
def _reading(what: str) -> Iterator[None]:
    """Re-raise what reading or checking an input raises as ``BadInput``."""
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise BadInput(f"{what}: {reason}") from exc


def render_confusion(confusion: np.ndarray) -> str:
    width = max(len(n) for n in CLASS_NAMES) + 2
    corner = "true \\ pred"
    lines = [f"{corner:<{width}}" + "".join(f"{n:>{width}}" for n in CLASS_NAMES)]
    for i, name in enumerate(CLASS_NAMES):
        lines.append(f"{name:<{width}}" + "".join(f"{int(v):>{width}}" for v in confusion[i]))
    return "\n".join(lines)


def _cmd_synth(args: argparse.Namespace) -> int:
    with _reading("invalid synth settings"):
        model = default_signature_model(noise_sigma=args.noise)
        dataset = generate_dataset(model, per_class_count=args.per_class, seed=args.seed)
    n = write_dataset_jsonl(args.out, dataset)
    print(f"wrote {n} labeled windows to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    with _reading("invalid training input"):
        dataset = read_dataset_jsonl(args.dataset)
        training_labels(dataset)
        config = TorqueNetConfig(
            seed=args.seed,
            epochs=args.epochs,
            learning_rate=args.learning_rate,
            batch_size=args.batch_size,
        )
    net, stats, report = train(dataset, config)
    save_model(args.out, net, stats)
    print(f"trained on {report.n_train} windows ({report.n_holdout} held out)")
    print(f"held-out accuracy: {report.holdout_accuracy:.4f}")
    print(f"model written to {args.out}")
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_json_dict(), sort_keys=True, indent=2), encoding="utf-8"
        )
        print(f"training report written to {args.report}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    with _reading("invalid evaluation input"):
        net, stats = load_model(args.model)
        dataset = read_dataset_jsonl(args.dataset)
        if not dataset:
            raise ValueError(f"{args.dataset} holds no windows")
    accuracy, confusion = evaluate(net, stats, dataset)
    print(render_confusion(confusion))
    print(f"accuracy: {accuracy:.4f} over {len(dataset)} windows")
    doc = {
        "accuracy": accuracy,
        "n_windows": len(dataset),
        "confusion_matrix": confusion.tolist(),
        "classes": CLASS_NAMES,
    }
    Path(args.report).write_text(json.dumps(doc, sort_keys=True, indent=2), encoding="utf-8")
    print(f"evaluation report written to {args.report}")
    return 0


def _fault_profiles(doc: Any) -> dict[Pipeline, FaultProfile]:
    """The default profiles, those named in ``doc`` replaced."""
    named = {Pipeline(k): FaultProfile.from_json_dict(v) for k, v in json_object(doc).items()}
    return {**default_fault_profiles(), **named}


def _action(doc: Any) -> ActionClass:
    """An action given by its name (any case) or by its class code."""
    if not isinstance(doc, str):
        return ActionClass(json_value(int, doc))
    if doc.upper() not in ActionClass.__members__:
        raise ValueError(f"{doc!r} is not a valid action; the names are {', '.join(CLASS_NAMES)}")
    return ActionClass[doc.upper()]


# the --config keys simulate reads, each with its decoder
CONFIG_KEYS: dict[str, Callable[[Any], Any]] = {
    "trials_per_action": partial(json_value, int),
    "seed": partial(json_value, int),
    "pipelines": lambda doc: tuple(Pipeline(p) for p in json_array(doc)),
    "actions": lambda doc: tuple(_action(a) for a in json_array(doc)),
    "sync": SyncConfig.from_json_dict,
    "fault_profiles": _fault_profiles,
}


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides: dict[str, Any] = {}
    if args.config:
        doc = json_object(json.loads(Path(args.config).read_text(encoding="utf-8")))
        unread = sorted(set(doc) - set(CONFIG_KEYS))
        if unread:
            raise ValueError(f"simulate reads no key {', '.join(map(repr, unread))}")
        for key, value in doc.items():
            with _reading(f"invalid experiment config key {key!r}"):
                overrides[key] = CONFIG_KEYS[key](value)
    # explicit flags win over the config file
    flags = {"seed": args.seed, "trials_per_action": args.trials}
    overrides.update((key, value) for key, value in flags.items() if value is not None)
    if args.no_episode_logs:
        overrides["log_episodes"] = False
    return ExperimentConfig(out_dir=args.out_dir, **overrides)


def _cmd_simulate(args: argparse.Namespace) -> int:
    with _reading("invalid experiment config"):
        config = _experiment_config(args)
    with _reading(f"cannot load model {args.model}"):
        model = load_model(args.model)
    table, _records = run_experiment(config, model)
    print(render_report(table))
    if not table.all_gates_pass():
        print("one or more gates FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    with _reading("invalid episode log"):
        result = replay_episode_log(args.log)
    released = f"released at {result.release_time_ms} ms" if result.released else "did not release"
    print(f"replayed {result.n_events} events: {released}")
    if result.matched:
        print("replay matches the logged decisions")
        return 0
    for issue in result.mismatches:
        print(f"MISMATCH: {issue}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handover",
        description="Torque + vision release-decision pipeline simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic torque dataset")
    p_synth.add_argument("--per-class", type=int, default=300)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--noise", type=float, default=0.4, help="torque noise sigma in N*m")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_train = sub.add_parser("train", help="train the torque classifier on a JSONL dataset")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int, default=7)
    p_train.add_argument("--epochs", type=int, default=30)
    p_train.add_argument("--learning-rate", type=float, default=1e-2)
    p_train.add_argument("--batch-size", type=int, default=32)
    p_train.add_argument("--report", default=None, help="optional training report JSON path")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a trained model on a JSONL dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--report", default="eval_report.json")
    p_eval.set_defaults(func=_cmd_eval)

    p_sim = sub.add_parser("simulate", help="run the full per-action trial grid")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--trials", type=int, default=None, help="trials per action")
    p_sim.add_argument("--out-dir", default="simulation_out")
    p_sim.add_argument("--model", required=True, help="model.json written by train")
    p_sim.add_argument("--config", default=None, help="JSON file with experiment overrides")
    p_sim.add_argument("--no-episode-logs", action="store_true")
    p_sim.set_defaults(func=_cmd_simulate)

    p_replay = sub.add_parser("replay", help="re-run decisions from an episode log")
    p_replay.add_argument("--log", required=True)
    p_replay.set_defaults(func=_cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BadInput as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Which functions of the package no command reaches, standard library only.

Runs every ``handover`` subcommand in this process, under
``sys.setprofile``, on a tiny fixture in a temporary directory: ``synth``
at 4 windows per class, a 1-epoch ``train``, ``eval``, ``simulate
--config`` with every ``CONFIG_KEYS`` key, ``simulate
--no-episode-logs``, and ``replay`` of every episode log. Then it
compares the code objects it saw called with every ``def`` under
``src/handover`` (found with ``ast``; a decorated def's code object
starts at its first decorator line).

Prints each unreached def. The exit code is 1 when a def that is not
on ``ALLOWLIST`` goes unreached, or when an allowlist entry names no
unreached def (the entry is stale), and 0 otherwise.

Run from anywhere (a few seconds on a 2-core machine):

    python3 scripts/reachability.py
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from handover import cli  # noqa: E402

PACKAGE = SRC / "handover"

# each entry names a module or a def ("module.Qual.name"); it covers that
# def and every def inside it
ALLOWLIST = {
    "multibox": "acceptance criterion 4; no pipeline trains a detector",
    "nn_kernel.cross_entropy_loss": "acceptance criterion 4: only multibox calls it",
    "classifier.classify_window": "perfbench's stream workload, until the benchmark moves (ROADMAP item 1(h))",
    "vision_gate.evaluate_grasp": "perfbench's stream workload and traced grid, until ROADMAP item 1(h)",
    "fusion.SyncResult.samples": "perfbench's traced grid counts the fused samples, until ROADMAP item 1(h)",
    "core.DetectionBlock._frames": "the block's Sequence face, which perfbench iterates, until ROADMAP item 1(h)",
    "core.DetectionBlock.__len__": "the block's Sequence face, which perfbench iterates, until ROADMAP item 1(h)",
    "core.DetectionBlock.__getitem__": "the block's Sequence face, which perfbench iterates, until ROADMAP item 1(h)",
    "core.FingertipDetection.__post_init__": "built by the Sequence face perfbench iterates, until ROADMAP item 1(h)",
}

# every simulate --config key, at the smallest grid that runs each pipeline and action
CONFIG = {
    "trials_per_action": 1,
    "seed": 3,
    "pipelines": ["torque_only", "vision_only", "fused"],
    "actions": ["no_action", "bump", "push", 3, "pull", "pull_up"],
    "sync": {"pairing_window_ms": 80, "debounce_frames": 2},
    "fault_profiles": {"fused": {"torque_extra_noise": 0.1, "vision_dropout": {"3": 0.5}}},
}


def package_defs() -> dict[tuple[str, int], str]:
    """Every def under the package, keyed by (file, first line of its code
    object), valued by its "module.Qual.name"."""
    defs: dict[tuple[str, int], str] = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    defs[(str(path), first)] = name
                visit(child, path, name)
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return defs


def run_commands(work: Path) -> None:
    """Every subcommand on the tiny fixture, in ``work``; raises
    ``SystemExit`` if one reports bad input or fails."""
    (work / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    runs = [
        ["synth", "--per-class", "4", "--seed", "0", "--out", "d.jsonl"],
        ["train", "--dataset", "d.jsonl", "--epochs", "1", "--out", "m.json", "--report", "t.json"],
        ["eval", "--model", "m.json", "--dataset", "d.jsonl", "--report", "r.json"],
        ["simulate", "--model", "m.json", "--config", "config.json", "--out-dir", "sim"],
        ["simulate", "--model", "m.json", "--trials", "1", "--out-dir", "quiet", "--no-episode-logs"],
    ]
    cwd = Path.cwd()
    os.chdir(work)
    try:
        for argv in runs:
            code = cli.main(argv)
            # a 1-epoch model may fail the grid's gates, which exits 1
            if code != 0 and not (argv[0] == "simulate" and code == 1):
                raise SystemExit(f"handover {' '.join(argv)} exited {code}")
        logs = sorted(Path("sim/episodes").glob("*.jsonl"))
        if not logs:
            raise SystemExit("simulate wrote no episode log")
        for log in logs:
            if cli.main(["replay", "--log", str(log)]) != 0:
                raise SystemExit(f"handover replay --log {log} did not match")
    finally:
        os.chdir(cwd)


def main() -> int:
    defs = package_defs()
    files = {file for file, _ in defs}
    seen: set[tuple[str, int]] = set()

    def probe(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(probe)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                run_commands(Path(tmp))
        finally:
            sys.setprofile(None)

    unreached = sorted(name for key, name in defs.items() if key not in seen)
    allowed = {entry: [n for n in unreached if n == entry or n.startswith(entry + ".")] for entry in ALLOWLIST}
    flagged = [n for n in unreached if not any(n in names for names in allowed.values())]
    stale = [entry for entry, names in allowed.items() if not names]
    print(f"{len(defs)} defs, {len(defs) - len(unreached)} reached, {len(unreached)} unreached")
    for entry, names in allowed.items():
        print(f"allowed   {entry}: {ALLOWLIST[entry]} ({len(names)} defs)")
    for name in flagged:
        print(f"UNREACHED {name}")
    for entry in stale:
        print(f"STALE     {entry}: every def it names was reached")
    return 1 if flagged or stale else 0


if __name__ == "__main__":
    sys.exit(main())

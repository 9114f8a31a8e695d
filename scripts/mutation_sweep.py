"""Mutation sweep of the decision path and its inputs, standard library only.

Makes one mutant per site in ``fusion.py``, ``vision_gate.py``,
``harness.py``, ``core.py`` (the domain types' checks) and ``synth.py``
(the fault draws): each compare boundary swapped (``<`` and ``<=``, ``>`` and
``>=``), each ``and``/``or`` swapped, and each ``not`` dropped. Every
mutant is written into a scratch copy of ``src/``, ``tests/`` and
``pyproject.toml`` and the tests of those modules run against it; a mutant
they still pass on survives. One line is printed per mutant, then the
survivors. The unmutated copy must pass first.

Run from anywhere (about 10-15 s per mutant on a 2-core machine):

    python3 scripts/mutation_sweep.py

The line numbers refer to the checked-in sources. The file name does not
match ``test_*.py``, so pytest does not collect this script.
"""
from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGETS = ["fusion.py", "vision_gate.py", "harness.py", "core.py", "synth.py"]
TESTS = [
    "tests/test_core.py",
    "tests/test_synth.py",
    "tests/test_json_roundtrip.py",
    "tests/test_fusion.py",
    "tests/test_fsm_properties.py",
    "tests/test_vision_gate.py",
    "tests/test_cli.py",
    "tests/test_harness.py",
    "tests/test_json_golden.py",
]
BOUNDARY = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.And: "and", ast.Or: "or"}
TIMEOUT_S = 900  # a mutant that hangs the suite counts as killed


class Mutator(ast.NodeTransformer):
    """Apply the ``target``-th mutation of a module; ``target=-1`` only counts sites.

    Sites are numbered in one fixed post-order walk, so the same number
    names the same site on every parse of the same source.
    """

    def __init__(self, target: int) -> None:
        self.target = target
        self.sites = 0
        self.applied: tuple[int, str] | None = None

    def _hit(self, line: int, change: str) -> bool:
        hit = self.sites == self.target
        self.sites += 1
        if hit:
            self.applied = (line, change)
        return hit

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        self.generic_visit(node)
        for k, op in enumerate(node.ops):
            swap = BOUNDARY.get(type(op))
            if swap is not None and self._hit(node.lineno, f"{SYMBOL[type(op)]} -> {SYMBOL[swap]}"):
                node.ops[k] = swap()
        return node

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        self.generic_visit(node)
        swap = ast.Or if isinstance(node.op, ast.And) else ast.And
        if self._hit(node.lineno, f"{SYMBOL[type(node.op)]} -> {SYMBOL[swap]}"):
            node.op = swap()
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._hit(node.lineno, "drop not"):
            return node.operand
        return node


def mutate(source: str, target: int) -> tuple[str, Mutator]:
    mutator = Mutator(target)
    tree = mutator.visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree)), mutator


def tests_pass(copy: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    survivors: list[str] = []
    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        for name in TARGETS:
            path = copy / "src" / "handover" / name
            source = path.read_text(encoding="utf-8")
            unmutated, counter = mutate(source, -1)
            path.write_text(unmutated, encoding="utf-8")
            if not tests_pass(copy):
                print(f"the tests fail on unmutated {name}; no sweep", file=sys.stderr)
                return 2
            for target in range(counter.sites):
                mutant, mutator = mutate(source, target)
                path.write_text(mutant, encoding="utf-8")
                line, change = mutator.applied
                site = f"{name}:{line} {change}"
                if tests_pass(copy):
                    survivors.append(site)
                    print(f"SURVIVED {site}", flush=True)
                else:
                    print(f"killed   {site}", flush=True)
            path.write_text(source, encoding="utf-8")
    print(f"{len(survivors)} survivor(s)")
    for site in survivors:
        print(f"  {site}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

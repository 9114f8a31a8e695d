"""Self-tests of the benchmark at a tiny size.

Run from the repository root with the package on the path:
``PYTHONPATH=src python -m pytest -q perfbench``.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from handover import fusion

import layers
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.Sizes(
    dataset_per_class=4,
    model_per_class=20,
    model_epochs=3,
    trials_per_action=1,
    episodes_per_action=2,
    setup_repeats=1,
)


def _units(result: workloads.Result) -> dict[str, str]:
    return {name: unit for name, (_value, unit) in result.metrics.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    measured = workloads.measure(workload, 3, 0.0, TINY, tmp_path)
    traced, _tracer = workloads.trace(workload, 3, TINY, tmp_path)
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    extra = {"step_ms_p50": "ms", "step_ms_p99": "ms"} if name == "stream" else {}
    assert _units(measured) == {**end_to_end, **extra}
    assert _units(traced) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in (measured, traced):
        assert result.attempted >= 1
        assert all(math.isfinite(value) for value, _unit in result.metrics.values())
    assert all(value > 0 for value, _unit in measured.metrics.values())


def test_benchmark_lists_only_runnable_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


def test_stream_driver_reproduces_run_episode_decisions(tmp_path):
    """Same FSM inputs (event stamp, paired verdict stamp, vote) and same release."""
    state = workloads.StreamWorkload().setup(5, TINY, tmp_path)
    net, stats = state["model"]
    fed: list[tuple[int, int, bool]] = []

    def record(counts, args, kwargs, result):
        sample = args[1]
        fed.append((sample.torque.timestamp, sample.vision.evaluated_at, sample.fused_vote))

    releases = []
    with Tracer().installed(lambda t: t.patch_method(fusion.ReleaseFsm, "step", "fsm", record)):
        for script in state["scripts"]:
            driven = workloads.drive_episode(script, state["model"], state["config"], [])
            driven_fed = fed[:]
            fed.clear()
            outcome = fusion.run_episode(script, net, stats, state["config"], fusion.Pipeline.FUSED)
            assert driven_fed == fed
            assert driven == outcome.release_time_ms
            fed.clear()
            releases.append(driven)
    assert any(t is None for t in releases) and any(t is not None for t in releases)


def _bound_names() -> dict[tuple[str, str], object]:
    names: dict[tuple[str, str], object] = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "handover" or mod_name.startswith("handover."):
            names.update({(mod_name, attr): value for attr, value in vars(module).items()})
    classes = [*layers.KERNEL_LAYERS.values(), *layers.VALIDATED_TYPES,
               layers.nn_kernel.MomentumSGD, fusion.ReleaseFsm, workloads.EpisodeDriver]
    for cls in classes:
        names.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return names


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = _bound_names()
    _result, tracer = workloads.trace(workloads.WORKLOADS["stream"], 3, TINY, tmp_path)
    after = _bound_names()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    spans, counts = len(tracer.spans), dict(tracer.counts)
    workloads.measure(workloads.WORKLOADS["stream"], 3, 0.0, TINY, tmp_path)
    assert len(tracer.spans) == spans and dict(tracer.counts) == counts


def test_self_time_subtracts_child_spans_and_groups_follow_units():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(1000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer", unit=True)
    outer()
    outer()
    stats = tracer.summary()
    assert stats["inner"].calls == 6 and stats["outer"].calls == 2
    assert stats["outer"].self_ns == stats["outer"].busy_ns - stats["inner"].busy_ns
    by_id = {span[0]: span for span in tracer.spans}
    for span_id, parent, group, name, _start, _end in tracer.spans:
        if name == "inner":
            assert group == parent and by_id[parent][3] == "outer"


def test_run_fails_without_printing_a_result_when_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

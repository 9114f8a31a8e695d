import json
import re
from pathlib import Path

import pytest

from handover.core import ActionClass, Decision, expected_decision
from handover.fusion import Pipeline
from handover.harness import (
    ExperimentConfig,
    ReportTable,
    _evaluate_gates,
    default_fault_profiles,
    render_report,
    run_experiment,
)
from handover.synth import FaultProfile


def clean_profiles():
    return {p: FaultProfile.clean() for p in Pipeline}


@pytest.fixture(scope="module")
def tiny_run(small_model, tmp_path_factory):
    """One small clean-fault experiment shared by the structural tests."""
    out_dir = tmp_path_factory.mktemp("experiment")
    config = ExperimentConfig(
        trials_per_action=2, seed=77, fault_profiles=clean_profiles(),
        out_dir=str(out_dir),
    )
    net, stats, _ = small_model
    table, records = run_experiment(config, model=(net, stats))
    return config, table, records, out_dir


class TestRunExperiment:
    def test_record_grid_is_complete(self, tiny_run):
        config, _table, records, _ = tiny_run
        assert len(records) == 2 * 6 * 3
        seen = {(r.pipeline, r.action, r.trial_index) for r in records}
        assert len(seen) == len(records)

    def test_success_scoring_is_expected_decision_consistent(self, tiny_run):
        _, _, records, _ = tiny_run
        for r in records:
            want_release = expected_decision(r.action) is Decision.RELEASE
            assert r.success == (r.released == want_release)

    def test_cell_counts_sum_to_trials(self, tiny_run):
        config, table, _, _ = tiny_run
        for pipeline in config.pipelines:
            for action in config.actions:
                s, f = table.per_action[pipeline][action]
                assert s + f == config.trials_per_action

    def test_overall_totals(self, tiny_run):
        config, table, records, _ = tiny_run
        for pipeline in config.pipelines:
            trials, successes = table.overall[pipeline]
            assert trials == 12
            assert successes == sum(
                r.success for r in records if r.pipeline is pipeline
            )

    def test_clean_vision_push_structurally_fails(self, tiny_run):
        _, table, _, _ = tiny_run
        successes, failures = table.per_action[Pipeline.VISION_ONLY][ActionClass.PUSH]
        assert successes == 0 and failures == 2

    def test_gates_pass_on_clean_run(self, tiny_run):
        _, table, _, _ = tiny_run
        assert table.all_gates_pass(), table.gates
        assert set(table.gates) == {
            "fused_overall_at_least_min",
            "vision_only_push_all_fail",
            "fused_not_below_torque_only",
            "fused_not_below_vision_only",
        }

    def test_artifacts_written(self, tiny_run):
        _, _, records, out_dir = tiny_run
        assert (out_dir / "trials.jsonl").exists()
        assert (out_dir / "report.json").exists()
        assert (out_dir / "report.txt").exists()
        lines = (out_dir / "trials.jsonl").read_text().splitlines()
        assert len(lines) == len(records)
        for r in records:
            assert r.episode_log is not None
            assert (out_dir / r.episode_log).exists()

    def test_and_dominance_audit_from_logs(self, tiny_run):
        # a fused episode whose vision votes were all false, or whose torque
        # votes were all false, must not have released
        _, _, records, out_dir = tiny_run
        release_set = {ActionClass.HOLD, ActionClass.PULL, ActionClass.PULL_UP}
        audited = 0
        for r in records:
            if r.pipeline is not Pipeline.FUSED:
                continue
            lines = [
                json.loads(s)
                for s in (out_dir / r.episode_log).read_text().splitlines()
            ]
            samples = [l for l in lines if l["type"] == "fused_sample"]
            summary = next(l for l in lines if l["type"] == "summary")
            any_vision = any(s["vision"]["vote"] for s in samples)
            any_torque = any(
                ActionClass(s["torque"]["predicted"]) in release_set for s in samples
            )
            if not any_vision or not any_torque:
                assert not summary["released"]
                audited += 1
        assert audited > 0

    def test_deterministic_artifacts(self, small_model, tmp_path):
        net, stats, _ = small_model
        outs = []
        for sub in ("a", "b"):
            config = ExperimentConfig(
                trials_per_action=1, seed=5, fault_profiles=clean_profiles(),
                out_dir=str(tmp_path / sub),
            )
            run_experiment(config, model=(net, stats))
            outs.append(tmp_path / sub)
        assert (outs[0] / "trials.jsonl").read_bytes() == (outs[1] / "trials.jsonl").read_bytes()
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()

    def test_faults_recorded_in_trial_records(self, small_model, tmp_path):
        net, stats, _ = small_model
        profiles = clean_profiles()
        profiles[Pipeline.TORQUE_ONLY] = FaultProfile(
            torque_misread={ActionClass.HOLD: 1.0}
        )
        config = ExperimentConfig(
            trials_per_action=1, seed=6, actions=(ActionClass.HOLD,),
            pipelines=(Pipeline.TORQUE_ONLY,), fault_profiles=profiles,
        )
        table, records = run_experiment(config, model=(net, stats))
        assert records[0].faults == ("torque_misread:hold->no_action",)
        assert not records[0].released and not records[0].success
        assert table.per_action[Pipeline.TORQUE_ONLY][ActionClass.HOLD] == (0, 1)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="trials_per_action"):
            ExperimentConfig(trials_per_action=0)
        with pytest.raises(ValueError, match="pipeline"):
            ExperimentConfig(pipelines=())
        with pytest.raises(ValueError, match="action"):
            ExperimentConfig(actions=())

    @pytest.mark.parametrize("settings, repeated", [
        ({"pipelines": (Pipeline.FUSED, Pipeline.FUSED)}, "fused"),
        ({"actions": (ActionClass.HOLD, ActionClass.PULL, ActionClass.HOLD)}, "hold"),
    ], ids=["pipeline", "action"])
    def test_repeated_entries_are_rejected(self, settings, repeated):
        # a repeat would run its trials twice under one trial index and one log name
        with pytest.raises(ValueError, match=f"repeat.*{repeated}"):
            ExperimentConfig(**settings)

    def test_missing_fault_profiles_leave_the_callers_dict_alone(self):
        profiles = {}
        config = ExperimentConfig(fault_profiles=profiles, pipelines=(Pipeline.FUSED,))
        assert profiles == {}
        assert config.fault_profiles == {Pipeline.FUSED: FaultProfile.clean()}


FUSED, TORQUE, VISION = Pipeline.FUSED, Pipeline.TORQUE_ONLY, Pipeline.VISION_ONLY


class TestGates:
    @pytest.mark.parametrize("successes, want", [
        # the paper's 95% exactly, tied with both single modalities
        ({FUSED: 171, TORQUE: 171, VISION: 171},
         {"fused_overall_at_least_min": True, "vision_only_push_all_fail": True,
          "fused_not_below_torque_only": True, "fused_not_below_vision_only": True}),
        ({FUSED: 170, TORQUE: 171, VISION: 171},
         {"fused_overall_at_least_min": False, "vision_only_push_all_fail": True,
          "fused_not_below_torque_only": False, "fused_not_below_vision_only": False}),
        # a gate that compares with a pipeline is absent when that pipeline is not run
        ({FUSED: 171, TORQUE: 160}, {"fused_overall_at_least_min": True, "fused_not_below_torque_only": True}),
        ({FUSED: 171, VISION: 160}, {"fused_overall_at_least_min": True, "vision_only_push_all_fail": True,
                                     "fused_not_below_vision_only": True}),
        ({VISION: 140}, {"vision_only_push_all_fail": True}),
    ], ids=["at-bounds", "below-bounds", "no-vision", "no-torque", "vision-alone"])
    def test_gate_boundaries(self, successes, want):
        pipelines = tuple(successes)
        per_action = {p: {ActionClass.PUSH: (0, 30)} for p in pipelines}
        overall = {p: (180, n) for p, n in successes.items()}
        table = ReportTable(trials_per_action=30, seed=0, actions=tuple(ActionClass), pipelines=pipelines,
                            per_action=per_action, overall=overall, gates={}, notes=())
        assert _evaluate_gates(table) == want


class TestRenderReport:
    def test_text_and_json_agree_field_by_field(self, tiny_run):
        _, table, _, out_dir = tiny_run
        text = (out_dir / "report.txt").read_text()
        doc = json.loads((out_dir / "report.json").read_text())
        for action in table.actions:
            row = next(
                line for line in text.splitlines()
                if line.startswith(action.name.lower())
            )
            numbers = [int(n) for n in re.findall(r"\d+", row)]
            want = [table.trials_per_action]
            for pipeline in table.pipelines:
                cell = doc["per_action"][pipeline.value][action.name.lower()]
                want += [cell["successes"], cell["failures"]]
            assert numbers == want
        for pipeline in table.pipelines:
            overall = doc["overall"][pipeline.value]
            row = next(
                line for line in text.splitlines()
                if line.startswith(pipeline.value) and "%" in line
            )
            numbers = [int(n) for n in re.findall(r"\d+", row.replace(pipeline.value, ""))]
            assert numbers == [overall["trials"], overall["successes"], overall["rate_percent"]]

    def test_rates_render_as_whole_percent(self, tiny_run):
        _, table, _, _ = tiny_run
        text = render_report(table)
        assert re.search(r"vision_only\s+12\s+10\s+83%", text)

    def test_byte_stable_rendering(self, tiny_run):
        _, table, _, _ = tiny_run
        assert render_report(table) == render_report(table)

    def test_notes_state_calibration(self, tiny_run):
        _, table, _, _ = tiny_run
        text = render_report(table)
        assert "calibrated" in text
        assert "per-action rows" in text

    def test_default_profiles_cover_all_pipelines(self):
        profiles = default_fault_profiles()
        assert set(profiles) == set(Pipeline)

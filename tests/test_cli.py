import json
from pathlib import Path

import pytest

from handover.classifier import MODEL_FORMAT_VERSION, save_model, write_dataset_jsonl
from handover.cli import main
from handover.synth import default_signature_model, generate_dataset

# a model file whose network is a JSON list, not an object
NETWORK_LIST_MODEL = json.dumps({"format": MODEL_FORMAT_VERSION, "network": [1], "normalization": {}})


@pytest.fixture(scope="module")
def saved_model(small_model, tmp_path_factory):
    net, stats, _ = small_model
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(path, net, stats)
    return path


class TestSynthTrainEval:
    def test_synth_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        assert main(["synth", "--per-class", "3", "--seed", "4", "--out", str(out)]) == 0
        assert "wrote 18 labeled windows" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 18

    def test_train_then_eval_round(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        model = tmp_path / "model.json"
        report = tmp_path / "train_report.json"
        main(["synth", "--per-class", "12", "--seed", "8", "--out", str(data)])
        code = main([
            "train", "--dataset", str(data), "--out", str(model),
            "--seed", "8", "--epochs", "4", "--report", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "held-out accuracy" in out
        assert model.exists()
        doc = json.loads(report.read_text())
        assert len(doc["epoch_losses"]) == 4

        eval_report = tmp_path / "eval.json"
        code = main([
            "eval", "--model", str(model), "--dataset", str(data),
            "--report", str(eval_report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "true \\ pred" in out
        assert "accuracy:" in out
        doc = json.loads(eval_report.read_text())
        assert doc["n_windows"] == 72
        assert len(doc["confusion_matrix"]) == 6


class TestSimulate:
    def test_simulate_with_config_and_model(self, saved_model, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "trials_per_action": 1,
            "seed": 3,
            "fault_profiles": {
                "torque_only": {}, "vision_only": {}, "fused": {},
            },
        }))
        out_dir = tmp_path / "sim"
        code = main([
            "simulate", "--config", str(config_path),
            "--out-dir", str(out_dir), "--model", str(saved_model),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "overall success rates" in out
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "report.json").exists()
        assert (out_dir / "trials.jsonl").exists()
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["trials_per_action"] == 1
        assert doc["seed"] == 3
        assert all(doc["gates"].values())

    def test_simulate_flags_override_config(self, saved_model, tmp_path, capsys):
        out_dir = tmp_path / "sim2"
        code = main([
            "simulate", "--seed", "9", "--trials", "1",
            "--out-dir", str(out_dir), "--model", str(saved_model),
            "--no-episode-logs",
        ])
        capsys.readouterr()
        assert code == 0
        assert not (out_dir / "episodes").exists()
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["seed"] == 9

    def test_simulate_exits_nonzero_when_gates_fail(self, saved_model, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "trials_per_action": 1,
            "seed": 3,
            "fault_profiles": {
                # cripple the fused pipeline so its overall rate misses 95%
                "fused": {"torque_misread": {"3": 1.0, "4": 1.0, "5": 1.0}},
            },
        }))
        out_dir = tmp_path / "sim_fail"
        code = main([
            "simulate", "--config", str(config_path),
            "--out-dir", str(out_dir), "--model", str(saved_model),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.err or "FAIL" in captured.out
        doc = json.loads((out_dir / "report.json").read_text())
        assert not doc["gates"]["fused_overall_at_least_min"]

    def test_simulate_deterministic_across_runs(self, saved_model, tmp_path, capsys):
        outs = []
        for sub in ("r1", "r2"):
            out_dir = tmp_path / sub
            main([
                "simulate", "--seed", "4", "--trials", "1",
                "--out-dir", str(out_dir), "--model", str(saved_model),
            ])
            outs.append(out_dir)
        capsys.readouterr()
        assert (outs[0] / "trials.jsonl").read_bytes() == (outs[1] / "trials.jsonl").read_bytes()
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()


@pytest.fixture
def refuse_training(monkeypatch):
    """Fail the test if simulate starts training: a bad config must be
    rejected before the expensive step."""
    def refuse(*args, **kwargs):
        raise AssertionError("simulate trained a model before checking its config")
    monkeypatch.setattr("handover.harness.train", refuse)


class TestSimulateRejectsBadConfig:
    @pytest.mark.parametrize("doc, message", [
        ({"pipelines": []}, "pipeline"),
        ({"actions": []}, "action"),
        ({"trials_per_action": 0}, "trials_per_action"),
        ({"train_per_class": 1}, "train_per_class"),
    ])
    def test_config_file_overrides_are_checked(self, refuse_training, tmp_path, capsys, doc, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_flag_is_checked(self, refuse_training, tmp_path, capsys, trials):
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--trials", trials, "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "trials_per_action" in captured.err
        assert not out_dir.exists()

    def test_train_epochs_flag_is_checked(self, refuse_training, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--train-epochs", "0", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "train_epochs" in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("doc", [
        {"sync": {"pairing_window_ms": 100}},
        {"sync": 5},
        {"fault_profiles": {"fused": {"torque_misread": [0.5]}}},
        {"fault_profiles": {"fused": {"torque_misread": {"9": 0.5}}}},
    ])
    def test_malformed_config_document_is_reported(self, refuse_training, tmp_path, capsys, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid experiment config" in captured.err
        assert "Traceback" not in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("doc", [
        {"fault_profiles": [1]},
        [1],
        {"trials": 1},
        {"fused_min_overall": 0.5},  # the fused gate is the paper's 0.95, not a setting
        {"model_path": "model.json"},
    ])
    def test_wrong_shape_or_unread_key_is_reported(self, refuse_training, tmp_path, capsys, doc):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--config", str(config_path), "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid experiment config" in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "text",
        [None, "[1]", "{}", "not json", NETWORK_LIST_MODEL],
        ids=["missing", "list", "no-format", "not-json", "network-list"],
    )
    def test_unloadable_model_file_is_reported(self, refuse_training, tmp_path, capsys, text):
        out_dir = tmp_path / "sim"
        model = tmp_path / "model_file.json"
        if text is not None:
            model.write_text(text)
        code = main(["simulate", "--model", str(model), "--trials", "1", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"cannot load model {model}" in captured.err
        assert "Traceback" not in captured.err
        assert not out_dir.exists()

    def test_missing_config_file_is_reported(self, refuse_training, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--config", str(tmp_path / "absent.json"), "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "invalid experiment config" in captured.err
        assert not out_dir.exists()


class TestSynthTrainEvalRejectBadInput:
    """Bad input ends synth, train and eval with exit 2 and one line on
    stderr, before any output file is written."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--per-class", "1", "--out", "{out}"],
        ["synth", "--noise", "-1", "--out", "{out}"],
        ["train", "--dataset", "{absent}", "--out", "{out}"],
        ["train", "--dataset", "{not_json}", "--out", "{out}"],
        ["train", "--dataset", "{data}", "--epochs", "0", "--out", "{out}"],
        ["eval", "--model", "{network_list}", "--dataset", "{data}", "--report", "{out}"],
        ["eval", "--model", "{absent}", "--dataset", "{data}", "--report", "{out}"],
        ["eval", "--model", "{model}", "--dataset", "{absent}", "--report", "{out}"],
    ], ids=[
        "synth-per-class", "synth-noise", "train-missing-dataset", "train-not-json", "train-epochs",
        "eval-network-list", "eval-missing-model", "eval-missing-dataset",
    ])
    def test_bad_input_is_reported(self, saved_model, tmp_path, capsys, argv):
        files = {name: tmp_path / f"{name}.json" for name in ("out", "absent", "not_json", "data", "network_list")}
        files["not_json"].write_text("not json\n")
        write_dataset_jsonl(files["data"], generate_dataset(default_signature_model(), per_class_count=2))
        files["network_list"].write_text(NETWORK_LIST_MODEL)
        code = main([arg.format(model=saved_model, **files) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not files["out"].exists()


HEADER = {"type": "header", "pipeline": "fused", "action": 4, "faults": [],
          "slab": {"z_back": 0.55, "z_front": 0.4},
          "sync_config": {"debounce_frames": 3, "pairing_window_ms": 100}}
SUMMARY = {"type": "summary", "released": False, "release_time_ms": None,
           "dropped_torque_events": 0, "n_samples": 0}


class TestReplay:
    def test_replay_of_a_log_without_steps_matches(self, tmp_path, capsys):
        log = tmp_path / "episode.jsonl"
        log.write_text("".join(json.dumps(line) + "\n" for line in (HEADER, SUMMARY)))
        assert main(["replay", "--log", str(log)]) == 0
        assert "replay matches the logged decisions" in capsys.readouterr().out

    @pytest.mark.parametrize("text, reason", [
        (None, "No such file"),
        (json.dumps(HEADER) + "\nnot json\n" + json.dumps(SUMMARY) + "\n", "line 2 is not JSON"),
        (json.dumps(SUMMARY) + "\n", "must start with a header"),
        (json.dumps(HEADER) + "\n" + json.dumps({"t": 5}) + "\n" + json.dumps(SUMMARY) + "\n",
         "line 2 is not a JSON object with a type"),
        (json.dumps(HEADER) + "\n[5]\n" + json.dumps(SUMMARY) + "\n", "line 2 is not a JSON object with a type"),
    ], ids=["missing", "not-json", "no-header", "no-type", "not-object"])
    def test_bad_log_is_reported_apart_from_a_mismatch(self, tmp_path, capsys, text, reason):
        log = tmp_path / "episode.jsonl"
        if text is not None:
            log.write_text(text)
        code = main(["replay", "--log", str(log)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("invalid episode log: ")
        assert reason in captured.err
        assert "MISMATCH" not in captured.err

    def test_replay_episode_log(self, saved_model, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        main([
            "simulate", "--seed", "2", "--trials", "1",
            "--out-dir", str(out_dir), "--model", str(saved_model),
        ])
        capsys.readouterr()
        log = next((out_dir / "episodes").glob("fused_pull_*.jsonl"))
        code = main(["replay", "--log", str(log)])
        out = capsys.readouterr().out
        assert code == 0
        assert "replay matches the logged decisions" in out

    def test_replay_flags_tampered_log(self, saved_model, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        main([
            "simulate", "--seed", "2", "--trials", "1",
            "--out-dir", str(out_dir), "--model", str(saved_model),
        ])
        capsys.readouterr()
        log = next((out_dir / "episodes").glob("fused_pull_*.jsonl"))
        lines = log.read_text().splitlines()
        doc = json.loads(lines[-1])
        doc["released"] = not doc["released"]
        lines[-1] = json.dumps(doc, sort_keys=True)
        log.write_text("\n".join(lines) + "\n")
        code = main(["replay", "--log", str(log)])
        captured = capsys.readouterr()
        assert code == 1
        assert "MISMATCH" in captured.err

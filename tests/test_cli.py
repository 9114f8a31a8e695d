import json

import numpy as np
import pytest

from handover.classifier import (
    MODEL_FORMAT_VERSION,
    NormalizationStats,
    build_network,
    save_model,
    write_dataset_jsonl,
)
from handover.cli import CLASS_NAMES, main
from handover.synth import default_signature_model, generate_dataset

# a model file whose arrays are a JSON list, not an object
ARRAYS_LIST_MODEL = json.dumps({"format": MODEL_FORMAT_VERSION, "arrays": [1], "normalization": {}})


@pytest.fixture(scope="module")
def saved_model(small_model, tmp_path_factory):
    net, stats, _ = small_model
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(path, net, stats)
    return path


@pytest.fixture(scope="module")
def inputs(saved_model, tmp_path_factory):
    """Named input files, each good or bad in one way."""
    root = tmp_path_factory.mktemp("inputs")
    names = ("absent", "not_json", "data", "network_list", "empty", "deficient", "huge_data",
             "huge_model", "non_preset", "v1_model")
    files = {name: root / f"{name}.json" for name in names}
    files["model"] = saved_model
    files["not_json"].write_text("not json\n")
    write_dataset_jsonl(files["data"], generate_dataset(default_signature_model(), per_class_count=2))
    files["network_list"].write_text(ARRAYS_LIST_MODEL)
    files["empty"].write_text("")
    lines = files["data"].read_text().splitlines(keepends=True)
    files["deficient"].write_text("".join(lines[:4]))  # two classes, two windows each
    # an integer beyond float range, as a torque sample and as a mean
    doc = json.loads(lines[0])
    doc["window"]["samples"][0][0] = 10**400
    files["huge_data"].write_text(json.dumps(doc) + "\n" + "".join(lines[1:]))
    doc = json.loads(saved_model.read_text())
    doc["normalization"]["mean"][0] = 10**400
    files["huge_model"].write_text(json.dumps(doc))
    # a network without the preset's first block
    net = build_network()
    net.layers = net.layers[3:]
    save_model(files["non_preset"], net, NormalizationStats(mean=np.zeros(7), std=np.ones(7)))
    # a file of the retired v1 format, batch norm settings and all
    layers = [{"kind": "batchnorm1d", "epsilon": 1, "momentum": 0.1}]
    files["v1_model"].write_text(json.dumps({
        "format": "handover-model-v1", "network": {"layers": layers, "version": "tcnn-v1"},
        "normalization": json.loads(saved_model.read_text())["normalization"],
    }))
    return files


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


def simulate_rejects(tmp_path, capsys, doc=None, flags=(), model=None, named=()):
    """Run simulate and check that it exits 2 with one stderr line that
    names each of ``named``, and writes no output directory. ``model``
    defaults to a path that does not exist, so a config error must be
    found before the model file is read."""
    out_dir = tmp_path / "sim"
    argv = ["simulate", "--model", str(model or tmp_path / "absent_model.json"), "--out-dir", str(out_dir), *flags]
    if doc is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        argv += ["--config", str(config_path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1, err
    assert "invalid experiment config" in err
    for name in named:
        assert name in err
    assert not out_dir.exists()
    return err


class TestSimulateRejectsBadConfig:
    def test_simulate_requires_a_model(self, tmp_path, capsys):
        # the grid scores a trained model; synth and train make one
        out_dir = tmp_path / "sim"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--trials", "1", "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("doc, message", [
        ({"pipelines": []}, "pipeline"),
        ({"actions": []}, "action"),
        ({"trials_per_action": 0}, "trials_per_action"),
        # a setting of the retired inline training is an unread key
        ({"train_per_class": 1}, "train_per_class"),
        # a repeat would run each of its trials twice under one log name
        ({"pipelines": ["fused", "fused"]}, "pipelines"),
        ({"actions": ["hold", 3]}, "actions"),  # one action by name and by code
        # an object is not the array of names, whatever its keys
        ({"pipelines": {"fused": 1}}, "pipelines"),
        ({"actions": {"hold": 0}}, "actions"),
    ])
    def test_config_file_overrides_are_checked(self, tmp_path, capsys, doc, message):
        simulate_rejects(tmp_path, capsys, doc, named=[message])

    def test_unknown_action_name_is_named(self, tmp_path, capsys):
        # an unknown name is a bad value, not a missing key: the error
        # names it and every valid name, as an unknown pipeline's does
        err = simulate_rejects(tmp_path, capsys, {"actions": ["foo"]},
                               named=["'foo' is not a valid action", *CLASS_NAMES])
        assert "missing key" not in err

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_flag_is_checked(self, tmp_path, capsys, trials):
        simulate_rejects(tmp_path, capsys, flags=["--trials", trials], named=["trials_per_action"])

    @pytest.mark.parametrize("doc, named", [
        ({"train_epochs": 5}, "train_epochs"),
        ({"train_per_class": 3, "seed": 1}, "train_per_class"),
    ], ids=["epochs-key", "per-class-key"])
    def test_training_settings_beside_a_model_are_rejected(self, saved_model, tmp_path, capsys, doc, named):
        # simulate trains nothing, so an old config's training setting is an unread key
        simulate_rejects(tmp_path, capsys, doc, flags=["--trials", "1"], model=saved_model,
                         named=[f"simulate reads no key {named!r}"])

    @pytest.mark.parametrize("doc", [
        {"sync": {"pairing_window_ms": 100}},
        {"sync": 5},
        {"fault_profiles": {"fused": {"torque_misread": [0.5]}}},
        {"fault_profiles": {"fused": {"torque_misread": {"9": 0.5}}}},
        # a value of the wrong JSON type is refused, never cast
        {"sync": {"pairing_window_ms": 100, "debounce_frames": 2.9}},
        {"sync": {"pairing_window_ms": "100", "debounce_frames": 3}},
        {"sync": {"pairing_window_ms": True, "debounce_frames": 3}},
        {"trials_per_action": 1.7},
        {"seed": True},
        {"train_epochs": "3"},
        {"actions": [True]},
        {"actions": [3.0]},
        {"fault_profiles": {"fused": {"torque_misread": {"+3": 0.5}}}},
        {"fault_profiles": {"fused": {"torque_extra_noise": "0.5"}}},
    ])
    def test_malformed_config_document_is_reported(self, tmp_path, capsys, doc):
        simulate_rejects(tmp_path, capsys, doc, named=list(doc))

    @pytest.mark.parametrize("doc", [
        {"fault_profiles": [1]},
        [1],
        {"trials": 1},
        {"fused_min_overall": 0.5},  # the fused gate is the paper's 0.95, not a setting
        {"model_path": "model.json"},
    ])
    def test_wrong_shape_or_unread_key_is_reported(self, tmp_path, capsys, doc):
        simulate_rejects(tmp_path, capsys, doc, named=list(doc) if isinstance(doc, dict) else ())

    @pytest.mark.parametrize(
        "text",
        [None, "[1]", "{}", "not json", ARRAYS_LIST_MODEL],
        ids=["missing", "list", "no-format", "not-json", "network-list"],
    )
    def test_unloadable_model_file_is_reported(self, tmp_path, capsys, text):
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

    @pytest.mark.parametrize("name, reason", [
        ("non_preset", "preset"),
        ("huge_model", "too large"),
        ("v1_model", "'handover-model-v1'; retrain"),
    ])
    def test_rejected_model_file_is_reported(
        self, inputs, tmp_path, capsys, name, reason
    ):
        out_dir = tmp_path / "sim"
        code = main(["simulate", "--model", str(inputs[name]), "--trials", "1", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"cannot load model {inputs[name]}" in captured.err
        assert reason in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("text", [
        '{"seed": 1e400}',
        '{"sync": {"pairing_window_ms": 1e400, "debounce_frames": 3}}',
    ], ids=["seed", "pairing-window"])
    def test_number_beyond_range_is_reported(self, tmp_path, capsys, text):
        # json reads 1e400 as inf, which no integer or millisecond setting accepts
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        simulate_rejects(tmp_path, capsys, flags=["--config", str(config_path)], named=list(json.loads(text)))

    def test_missing_config_file_is_reported(self, tmp_path, capsys):
        simulate_rejects(tmp_path, capsys, flags=["--config", str(tmp_path / "absent.json")])


class TestSynthTrainEvalRejectBadInput:
    """Bad input ends synth, train and eval with exit 2 and one line on
    stderr, before any output file is written."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--per-class", "1", "--out", "{out}"],
        ["synth", "--noise", "-1", "--out", "{out}"],
        ["synth", "--noise", "nan", "--out", "{out}"],
        ["synth", "--noise", "inf", "--out", "{out}"],
        ["train", "--dataset", "{absent}", "--out", "{out}"],
        ["train", "--dataset", "{not_json}", "--out", "{out}"],
        ["train", "--dataset", "{data}", "--epochs", "0", "--out", "{out}"],
        ["train", "--dataset", "{data}", "--learning-rate", "0", "--out", "{out}"],
        ["train", "--dataset", "{data}", "--learning-rate", "-1", "--out", "{out}"],
        ["train", "--dataset", "{data}", "--learning-rate", "nan", "--out", "{out}"],
        ["train", "--dataset", "{huge_data}", "--out", "{out}"],
        ["train", "--dataset", "{empty}", "--out", "{out}"],
        ["train", "--dataset", "{deficient}", "--out", "{out}"],
        ["eval", "--model", "{network_list}", "--dataset", "{data}", "--report", "{out}"],
        ["eval", "--model", "{absent}", "--dataset", "{data}", "--report", "{out}"],
        ["eval", "--model", "{model}", "--dataset", "{absent}", "--report", "{out}"],
        ["eval", "--model", "{huge_model}", "--dataset", "{data}", "--report", "{out}"],
        ["eval", "--model", "{non_preset}", "--dataset", "{data}", "--report", "{out}"],
        ["eval", "--model", "{model}", "--dataset", "{huge_data}", "--report", "{out}"],
        ["eval", "--model", "{model}", "--dataset", "{empty}", "--report", "{out}"],
        ["eval", "--model", "{v1_model}", "--dataset", "{data}", "--report", "{out}"],
    ], ids=[
        "synth-per-class", "synth-noise", "synth-noise-nan", "synth-noise-inf", "train-missing-dataset", "train-not-json", "train-epochs",
        "train-learning-rate-0", "train-learning-rate-negative", "train-learning-rate-nan",
        "train-huge-sample", "train-empty", "train-deficient",
        "eval-network-list", "eval-missing-model", "eval-missing-dataset",
        "eval-huge-mean", "eval-non-preset", "eval-huge-sample", "eval-empty", "eval-v1-model",
    ])
    def test_bad_input_is_reported(self, inputs, tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        code = main([arg.format(out=out, **inputs) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()


HEADER = {"type": "header", "pipeline": "fused", "action": 4, "faults": [],
          "slab": {"z_back": 0.55, "z_front": 0.4},
          "sync_config": {"debounce_frames": 3, "pairing_window_ms": 100}}
TORQUE_HEADER = {**HEADER, "pipeline": "torque_only"}  # the pipeline whose log holds torque votes
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
        (json.dumps(HEADER).replace('"debounce_frames": 3', '"debounce_frames": 1e400') + "\n"
         + json.dumps(SUMMARY) + "\n", "expected a JSON int, got inf"),
        # a logged step's fields keep their JSON types: nothing is cast
        (json.dumps(TORQUE_HEADER) + "\n" + json.dumps({"type": "vote_sample", "source": "torque", "t": 125,
                                                 "vote": "false", "predicted": 0})
         + "\n" + json.dumps(SUMMARY) + "\n", "expected a JSON bool, got 'false'"),
        (json.dumps(TORQUE_HEADER) + "\n" + json.dumps({"type": "vote_sample", "source": "torque", "t": "abc",
                                                 "vote": False, "predicted": 0})
         + "\n" + json.dumps(SUMMARY) + "\n", "expected a JSON int, got 'abc'"),
        (json.dumps(HEADER) + "\n" + json.dumps({"type": "unpaired_torque", "t": "abc"})
         + "\n" + json.dumps(SUMMARY) + "\n", "expected a JSON int, got 'abc'"),
        # the summary's counts are non-negative JSON integers
        (json.dumps(HEADER) + "\n" + json.dumps({**SUMMARY, "n_samples": 999, "dropped_torque_events": -5})
         + "\n", "summary counts must be non-negative"),
        (json.dumps(HEADER) + "\n" + json.dumps({**SUMMARY, "n_samples": "0"}) + "\n",
         "expected a JSON int, got '0'"),
    ], ids=["missing", "not-json", "no-header", "no-type", "not-object", "huge-number",
            "string-vote", "string-time", "string-unpaired-time", "negative-count", "string-count"])
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

    def test_replay_flags_counts_an_unreleased_log_does_not_hold(self, tmp_path, capsys):
        log = tmp_path / "episode.jsonl"
        log.write_text(json.dumps(HEADER) + "\n" + json.dumps({**SUMMARY, "n_samples": 1}) + "\n")
        assert main(["replay", "--log", str(log)]) == 1
        assert "n_samples differs" in capsys.readouterr().err

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

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handover.classifier import (
    _find_runs,
    LabeledWindow,
    NormalizationStats,
    TorqueNetConfig,
    build_network,
    classify_window,
    classify_windows,
    evaluate,
    load_model,
    normalize_input,
    read_dataset_jsonl,
    save_model,
    torque_vote,
    train,
    write_dataset_jsonl,
)
from handover.core import (
    SAMPLE_DT_MS,
    ActionClass,
    ActionScores,
    Decision,
    TorqueWindow,
    expected_decision,
)
from handover.nn_kernel import BatchNorm1D
from handover.synth import (
    ActionProfile,
    ProfileShape,
    TorqueSignatureModel,
    default_signature_model,
    generate_dataset,
    generate_window,
)
from test_json_golden import MODEL_TEXT

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def damaged_model_docs(draw):
    """The save file of a hand-built network with one value, at any depth,
    replaced by any JSON value, or one key deleted. Each step down is a
    coin flip, so the top-level keys are damaged about half the time."""
    doc = json.loads(MODEL_TEXT)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    return doc


@pytest.fixture(scope="module")
def damaged_file(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "model.json"


def trained_arrays(net):
    return [arr for layer in net.layers for arr in layer.params().values()]


def stored_values(net, include_running_stats=True):
    """Total values a network stores; batch-norm running stats count by default."""
    total = sum(arr.size for arr in trained_arrays(net))
    if include_running_stats:
        total += sum(
            layer.running_mean.size + layer.running_var.size
            for layer in net.layers if isinstance(layer, BatchNorm1D)
        )
    return total


class TestBuildNetwork:
    def test_parameter_count_matches_architecture(self):
        net = build_network(TorqueNetConfig())
        # conv blocks: (1*64*3+64) + 2*(64*64*3+64); batch norm: 3*4*64;
        # head: 64*6+6
        expected = (1 * 64 * 3 + 64) + 2 * (64 * 64 * 3 + 64) + 3 * 4 * 64 + (64 * 6 + 6)
        assert expected == 26118
        assert stored_values(net) == expected
        assert stored_values(net, include_running_stats=False) == expected - 2 * 3 * 64

    def test_same_seed_is_bit_identical(self):
        a = build_network(TorqueNetConfig(seed=99))
        b = build_network(TorqueNetConfig(seed=99))
        for pa, pb in zip(trained_arrays(a), trained_arrays(b)):
            assert np.array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a = build_network(TorqueNetConfig(seed=1))
        b = build_network(TorqueNetConfig(seed=2))
        assert not np.array_equal(a.layers[0].weight, b.layers[0].weight)

    def test_forward_yields_probability_vector(self, rng):
        net = build_network(TorqueNetConfig())
        probs = net.predict_proba(rng.standard_normal((3, 1, 280)))
        assert probs.shape == (3, 6)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0.0)

    @pytest.mark.parametrize("bad", [
        pytest.param(dict(blocks=0), id="bad0"),
        pytest.param(dict(kernel_size=4), id="bad1"),
        pytest.param(dict(epochs=0), id="bad4"),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            TorqueNetConfig(**bad)


class TestNormalization:
    def test_window_at_training_mean_maps_to_zero(self, rng):
        samples = rng.uniform(-5, 5, (7, 40))
        w = TorqueWindow(samples=samples, start_time=0)
        stats = NormalizationStats(mean=samples.mean(axis=1), std=samples.std(axis=1))
        out = normalize_input(
            TorqueWindow(samples=np.repeat(samples.mean(axis=1)[:, None], 40, axis=1), start_time=0),
            stats,
        )
        assert np.abs(out).max() < 1e-9
        assert out.shape == (1, 280)

    def test_constant_joint_gets_floored_std(self):
        windows = [TorqueWindow(samples=np.ones((7, 40)) * 3.0, start_time=i) for i in range(4)]
        stats = NormalizationStats.from_windows(windows)
        assert np.all(stats.std == 1e-6)
        out = normalize_input(windows[0], stats)
        assert np.all(np.isfinite(out))

    def test_matches_zscore_oracle(self, rng):
        samples = rng.uniform(-10, 10, (7, 40))
        mean = rng.uniform(-2, 2, 7)
        std = rng.uniform(0.5, 3.0, 7)
        stats = NormalizationStats(mean=mean, std=std)
        out = normalize_input(TorqueWindow(samples=samples, start_time=0), stats)
        want = ((samples - mean[:, None]) / std[:, None]).reshape(1, 280)
        assert np.abs(out - want).max() < 1e-12


class TestTrain:
    def tiny_dataset(self, per_class=6, seed=3):
        return generate_dataset(default_signature_model(), per_class_count=per_class, seed=seed)

    def tiny_config(self, **overrides):
        kwargs = dict(seed=5, epochs=2)
        kwargs.update(overrides)
        return TorqueNetConfig(**kwargs)

    def test_single_class_rejected(self):
        items = [w for w in self.tiny_dataset() if w.label is ActionClass.PULL]
        with pytest.raises(ValueError, match="deficient"):
            train(items, self.tiny_config())

    def test_missing_class_named_in_error(self):
        items = [w for w in self.tiny_dataset() if w.label is not ActionClass.BUMP]
        with pytest.raises(ValueError, match="BUMP"):
            train(items, self.tiny_config())

    def test_deterministic_given_seed(self):
        data = self.tiny_dataset()
        net_a, stats_a, _ = train(data, self.tiny_config())
        net_b, stats_b, _ = train(data, self.tiny_config())
        for pa, pb in zip(trained_arrays(net_a), trained_arrays(net_b)):
            assert np.array_equal(pa, pb)
        assert np.array_equal(stats_a.mean, stats_b.mean)

    def test_report_shape_and_confusion_row_sums(self):
        data = self.tiny_dataset(per_class=10)
        _, _, report = train(data, self.tiny_config(epochs=3))
        assert len(report.epoch_losses) == 3
        assert len(report.epoch_holdout_accuracy) == 3
        assert report.n_train + report.n_holdout == 60
        # stratified 80/20: each class contributes 2 of its 10 windows
        assert report.confusion_matrix.sum(axis=1).tolist() == [2] * 6
        trace_rate = np.trace(report.confusion_matrix) / report.confusion_matrix.sum()
        assert report.holdout_accuracy == pytest.approx(trace_rate)


class TestClassifyWindow(object):
    def test_training_exemplar_is_memorized(self, small_model):
        net, stats, _ = small_model
        exemplar = generate_window(
            default_signature_model(), ActionClass.PULL,
            np.random.SeedSequence(11, spawn_key=(int(ActionClass.PULL), 0)),
        )
        scores = classify_window(net, stats, exemplar.window)
        assert scores.predicted is ActionClass.PULL

    def test_quiescent_window_is_no_action(self, small_model):
        # the generator's no-action signature is the bare baseline posture
        net, stats, _ = small_model
        model = default_signature_model(noise_sigma=0.0)
        quiet = generate_window(model, ActionClass.NO_ACTION, seed=0)
        scores = classify_window(net, stats, quiet.window)
        assert scores.predicted is ActionClass.NO_ACTION

    def test_zero_window_with_zero_baseline_generator(self):
        # train a tiny model whose no-action class is near-zero noise: the
        # all-zero window must then classify as no-action
        base = default_signature_model()
        model = TorqueSignatureModel(
            baseline=np.zeros(7),
            profiles=base.profiles,
            noise_sigma=0.3,
            amplitude_jitter=0.15,
        )
        dataset = generate_dataset(model, per_class_count=24, seed=21)
        net, stats, report = train(dataset, TorqueNetConfig(seed=21, epochs=10))
        assert report.holdout_accuracy >= 0.8  # enough training to anchor no-action
        scores = classify_window(net, stats, TorqueWindow(np.zeros((7, 40)), start_time=0))
        assert scores.predicted is ActionClass.NO_ACTION

    def test_pure_and_deterministic(self, small_model, rng):
        net, stats, _ = small_model
        w = TorqueWindow(samples=rng.uniform(-5, 5, (7, 40)), start_time=0)
        first = classify_window(net, stats, w)
        # interleave other classifications, then repeat
        classify_window(net, stats, TorqueWindow(rng.uniform(-5, 5, (7, 40)), 0))
        second = classify_window(net, stats, w)
        assert np.array_equal(first.probabilities, second.probabilities)

    def test_batched_matches_single(self, small_model, rng):
        # GEMM summation order differs with batch size, so bitwise equality
        # is not guaranteed; agreement to 1e-12 is
        net, stats, _ = small_model
        windows = [TorqueWindow(rng.uniform(-5, 5, (7, 40)), start_time=i) for i in range(5)]
        batched = classify_windows(net, stats, windows)
        for w, scores in zip(windows, batched):
            single = classify_window(net, stats, w)
            assert np.allclose(scores.probabilities, single.probabilities, atol=1e-12)
            assert scores.predicted is single.predicted

    def test_rejects_non_window(self, small_model):
        net, stats, _ = small_model
        with pytest.raises(TypeError):
            classify_window(net, stats, np.zeros((7, 40)))


def random_model(seed, blocks, kernel):
    """A small build_network net with random batch-norm statistics and
    random input statistics."""
    rng = np.random.default_rng(seed)
    config = TorqueNetConfig(blocks=blocks, filters_per_block=4, kernel_size=kernel, seed=seed)
    net = build_network(config)
    for layer in net.layers:
        if isinstance(layer, BatchNorm1D):
            layer.gamma = rng.uniform(0.5, 1.5, layer.channels)
            layer.beta = rng.normal(0.0, 0.5, layer.channels)
            layer.running_mean = rng.normal(0.0, 0.5, layer.channels)
            layer.running_var = rng.uniform(0.2, 2.0, layer.channels)
    stats = NormalizationStats(mean=rng.normal(0.0, 3.0, 7), std=rng.uniform(0.5, 5.0, 7))
    return net, stats


def sliding_windows(seed, length, stride, t0=0):
    stream = np.random.default_rng([seed, 1]).uniform(-30.0, 30.0, (7, length))
    return [
        TorqueWindow(stream[:, s:s + 40], start_time=t0 + s * SAMPLE_DT_MS)
        for s in range(0, length - 39, stride)
    ]


def assert_matches_single(net, stats, windows):
    batched = classify_windows(net, stats, windows)
    assert len(batched) == len(windows)
    for window, scores in zip(windows, batched):
        single = classify_window(net, stats, window)
        assert np.max(np.abs(scores.probabilities - single.probabilities)) <= 1e-9
        assert scores.predicted is single.predicted


def merged_across(runs, index):
    """True when windows index - 1 and index sit in one run."""
    return any(first < index < first + count for first, count, _ in runs)


networks = dict(
    seed=st.integers(0, 2**32 - 1),
    blocks=st.integers(1, 3),
    # kernel 15 with 3 blocks reaches 21 samples: 2R >= W, the flat forward
    kernel=st.sampled_from([1, 3, 5, 15]),
)


class TestClassifyWindowsRuns:
    """classify_windows shares per-joint features across sliding windows;
    classify_window on each window is the oracle."""

    @given(**networks, length=st.integers(40, 120), stride=st.integers(1, 39),
           t0=st.integers(-10**6, 10**6))
    def test_sliding_windows_match_single(self, seed, blocks, kernel, length, stride, t0):
        net, stats = random_model(seed, blocks, kernel)
        windows = sliding_windows(seed, length, stride, t0)
        assert _find_runs(windows) == [(0, len(windows), stride if len(windows) > 1 else 0)]
        assert_matches_single(net, stats, windows)

    @given(**networks, length=st.integers(100, 140), stride=st.integers(1, 20),
           edit=st.sampled_from(["shuffle", "drop", "time_gap", "same_start", "altered"]),
           pick=st.integers(0, 10**6))
    def test_unmergeable_windows_match_single(self, seed, blocks, kernel, length, stride, edit, pick):
        net, stats = random_model(seed, blocks, kernel)
        windows = sliding_windows(seed, length, stride)
        # windows k - 2 and k - 1 already fix their run's step, so dropping
        # window k leaves a step the run cannot take
        k = 2 + pick % (len(windows) - 3)
        if edit == "shuffle":
            windows = [windows[i] for i in np.random.default_rng(pick).permutation(len(windows))]
        elif edit == "drop":
            del windows[k]  # the step doubles at k, or the windows stop overlapping
        elif edit == "time_gap":
            windows[k:] = [TorqueWindow(w.samples, w.start_time + 40 * SAMPLE_DT_MS) for w in windows[k:]]
        elif edit == "same_start":
            windows.insert(k, windows[k - 1])
        else:
            samples = np.array(windows[k].samples)
            col = pick % (40 - stride)  # a sample window k shares with window k - 1
            samples[pick % 7, col] += 1.0 if samples[pick % 7, col] < 0.0 else -1.0
            windows[k] = TorqueWindow(samples, windows[k].start_time)
        runs = _find_runs(windows)
        assert sum(count for _, count, _ in runs) == len(windows)
        if edit in ("drop", "time_gap", "same_start", "altered"):
            assert not merged_across(runs, k)
        assert_matches_single(net, stats, windows)

    def test_lone_and_empty(self):
        net, stats = random_model(3, 3, 3)
        assert classify_windows(net, stats, []) == []
        windows = sliding_windows(3, 40, 1)
        assert _find_runs(windows) == [(0, 1, 0)]
        assert_matches_single(net, stats, windows)


class TestTorqueVote:
    @pytest.mark.parametrize("action,expected", [
        (ActionClass.NO_ACTION, False), (ActionClass.BUMP, False), (ActionClass.PUSH, False),
        (ActionClass.HOLD, True), (ActionClass.PULL, True), (ActionClass.PULL_UP, True),
    ])
    def test_vote_table(self, action, expected):
        probs = np.zeros(6)
        probs[int(action)] = 1.0
        assert torque_vote(ActionScores.from_probabilities(probs)) is expected

    def test_consistent_with_expected_decision(self):
        for action in ActionClass:
            probs = np.zeros(6)
            probs[int(action)] = 1.0
            vote = torque_vote(ActionScores.from_probabilities(probs))
            assert vote == (expected_decision(action) is Decision.RELEASE)


class TestModelAndDatasetFiles:
    def test_model_roundtrip_preserves_outputs(self, small_model, tmp_path, rng):
        net, stats, _ = small_model
        path = tmp_path / "model.json"
        save_model(path, net, stats)
        net2, stats2 = load_model(path)
        w = TorqueWindow(samples=rng.uniform(-5, 5, (7, 40)), start_time=0)
        assert np.array_equal(
            classify_window(net, stats, w).probabilities,
            classify_window(net2, stats2, w).probabilities,
        )

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}', encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            load_model(path)

    @staticmethod
    def corrupt_model(small_model, tmp_path, edit):
        net, stats, _ = small_model
        path = tmp_path / "model.json"
        save_model(path, net, stats)
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_load_rejects_broadcasting_linear_bias(self, small_model, tmp_path):
        def edit(doc):
            doc["network"]["layers"][-1]["bias"] = {"shape": [1], "data": [0.0]}

        with pytest.raises(ValueError, match="shape"):
            load_model(self.corrupt_model(small_model, tmp_path, edit))

    def test_load_rejects_negative_running_var(self, small_model, tmp_path):
        def edit(doc):
            doc["network"]["layers"][1]["running_var"]["data"][0] = -1.0

        with pytest.raises(ValueError, match="running_var"):
            load_model(self.corrupt_model(small_model, tmp_path, edit))

    @pytest.mark.parametrize("momentum", [5.0, -1.0, float("nan")])
    def test_load_rejects_bad_momentum(self, small_model, tmp_path, momentum):
        def edit(doc):
            doc["network"]["layers"][1]["momentum"] = momentum

        with pytest.raises(ValueError, match="momentum"):
            load_model(self.corrupt_model(small_model, tmp_path, edit))

    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_load_rejects_non_finite_normalization(self, small_model, tmp_path, field):
        def edit(doc):
            doc["normalization"][field][3] = float("nan")

        with pytest.raises(ValueError, match="finite"):
            load_model(self.corrupt_model(small_model, tmp_path, edit))

    @pytest.mark.parametrize("bad", [-3.0, 0.0])
    def test_load_rejects_non_positive_std(self, small_model, tmp_path, bad):
        def edit(doc):
            doc["normalization"]["std"] = [bad] * 7

        with pytest.raises(ValueError, match="positive"):
            load_model(self.corrupt_model(small_model, tmp_path, edit))

    @settings(max_examples=300, deadline=None)
    @given(doc=damaged_model_docs())
    def test_damaged_file_loads_or_raises_a_reported_error(self, damaged_file, doc):
        # simulate and eval report these four as a bad model file (exit 2)
        damaged_file.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_model(damaged_file)
        except (OSError, KeyError, TypeError, ValueError):
            pass

    def test_dataset_jsonl_roundtrip(self, tmp_path):
        items = generate_dataset(default_signature_model(), per_class_count=2, seed=9)
        path = tmp_path / "data.jsonl"
        assert write_dataset_jsonl(path, items) == 12
        back = read_dataset_jsonl(path)
        assert len(back) == 12
        for a, b in zip(items, back):
            assert a.label == b.label
            assert np.array_equal(a.window.samples, b.window.samples)

    def test_evaluate_confusion_row_sums(self, small_model):
        net, stats, _ = small_model
        items = generate_dataset(default_signature_model(), per_class_count=3, seed=33)
        accuracy, confusion = evaluate(net, stats, items)
        assert confusion.sum(axis=1).tolist() == [3] * 6
        assert accuracy == pytest.approx(np.trace(confusion) / 18)

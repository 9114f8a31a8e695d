import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from handover.classifier import (
    _run_plan,
    _stored_arrays,
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
    ActionClass,
    Decision,
    TorqueWindow,
    expected_decision,
)
from handover import nn_kernel as nn
from handover.synth import (
    ActionProfile,
    ProfileShape,
    TorqueSignatureModel,
    default_signature_model,
    generate_dataset,
    generate_window,
)
from oracles import scores, window_scores
from test_json_golden import GOLDEN, MODEL_ARRAYS

JSON_VALUES = st.recursive(
    # integers from 2**1024 up overflow a float64
    st.none() | st.booleans() | st.integers() | st.integers(2**1024, 2**1100) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def damaged_model_docs(draw, text):
    """The model file ``text`` with one value, at any depth, replaced by any
    JSON value, or one key deleted. Each step down is a coin flip, so the
    top-level keys are damaged about half the time."""
    doc = json.loads(text)
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


@pytest.fixture(scope="module")
def preset_model_text(tmp_path_factory):
    """The save file of the preset network with the golden input statistics."""
    path = tmp_path_factory.mktemp("preset") / "model.json"
    save_model(path, build_network(), GOLDEN["NormalizationStats"][0])
    return path.read_text(encoding="utf-8")


def trained_arrays(net):
    return [arr for layer in net.layers for arr in layer.params().values()]


def stored_values(net, include_running_stats=True):
    """Total values a network stores; batch-norm running stats count by default."""
    total = sum(arr.size for arr in trained_arrays(net))
    if include_running_stats:
        total += sum(
            layer.running_mean.size + layer.running_var.size
            for layer in net.layers if isinstance(layer, nn.BatchNorm1D)
        )
    return total


class TestBuildNetwork:
    def test_parameter_count_matches_architecture(self):
        net = build_network(TorqueNetConfig())
        # conv weights: 1*64*3 + 2*64*64*3; batch norm: 3*4*64; head: 64*6+6.
        # The three conv biases, which the batch norms cancel, are not
        # trained or stored: 26,118 - 3*64 = 25,926
        expected = (1 * 64 * 3) + 2 * (64 * 64 * 3) + 3 * 4 * 64 + (64 * 6 + 6)
        assert expected == 26118 - 3 * 64 == 25926
        assert stored_values(net) == expected
        assert sum(arr.size for arr in _stored_arrays(net).values()) == expected
        assert stored_values(net, include_running_stats=False) == expected - 2 * 3 * 64

    def test_same_seed_is_bit_identical(self):
        a = build_network(TorqueNetConfig(seed=99))
        b = build_network(TorqueNetConfig(seed=99))
        for pa, pb in zip(trained_arrays(a), trained_arrays(b)):
            assert np.array_equal(pa, pb)

    def test_seeded_initial_draw_is_pinned(self):
        # He-uniform from one generator, convs 0, 3 and 6 then the head; a
        # reordered or rescaled draw changes every model file trained after it
        arrays = _stored_arrays(build_network(TorqueNetConfig(seed=7)))
        digest = hashlib.sha256()
        for key in sorted(arrays):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(arrays[key]).tobytes())
        assert digest.hexdigest() == "9f674f5a4d07e51ccd1e4fbee79e975e35f9072edf5005bbbe2d587ba8425acb"

    def test_different_seeds_differ(self):
        a = build_network(TorqueNetConfig(seed=1))
        b = build_network(TorqueNetConfig(seed=2))
        assert not np.array_equal(a.layers[0].weight, b.layers[0].weight)

    def test_forward_yields_probability_vector(self, rng):
        net = build_network(TorqueNetConfig())
        probs = nn.softmax(net.frozen().forward(rng.standard_normal((3, 1, 280))))
        assert probs.shape == (3, 6)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0.0)

    @pytest.mark.parametrize("bad", [
        pytest.param(dict(epochs=0), id="bad4"),
        pytest.param(dict(batch_size=0), id="batch-size-0"),
        pytest.param(dict(learning_rate=0.0), id="learning-rate-0"),
        pytest.param(dict(learning_rate=-1.0), id="learning-rate-negative"),
        pytest.param(dict(learning_rate=float("nan")), id="learning-rate-nan"),
        pytest.param(dict(learning_rate=float("inf")), id="learning-rate-inf"),
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            TorqueNetConfig(**bad)

    def test_one_epoch_of_single_window_batches_is_accepted(self):
        config = TorqueNetConfig(epochs=1, batch_size=1)
        assert (config.epochs, config.batch_size) == (1, 1)


class TestNormalization:
    def test_window_at_training_mean_maps_to_zero(self, rng):
        samples = rng.uniform(-5, 5, (7, 40))
        stats = NormalizationStats(mean=samples.mean(axis=1), std=samples.std(axis=1))
        out = normalize_input(np.repeat(samples.mean(axis=1)[None, :, None], 40, axis=2), stats)
        assert np.abs(out).max() < 1e-9
        assert out.shape == (1, 1, 280)

    def test_constant_joint_gets_floored_std(self):
        samples = np.ones((4, 7, 40)) * 3.0
        stats = NormalizationStats.from_samples(samples)
        assert np.all(stats.std == 1e-6)
        out = normalize_input(samples, stats)
        assert np.all(np.isfinite(out))

    def test_matches_zscore_oracle(self, rng):
        samples = rng.uniform(-10, 10, (3, 7, 40))
        mean = rng.uniform(-2, 2, 7)
        std = rng.uniform(0.5, 3.0, 7)
        stats = NormalizationStats(mean=mean, std=std)
        out = normalize_input(samples, stats)
        assert out.shape == (3, 1, 280)
        for row, window in zip(out, samples):
            want = ((window - mean[:, None]) / std[:, None]).reshape(1, 280)
            assert np.abs(row - want).max() < 1e-12

    def test_a_stack_normalizes_as_its_rows_do(self, rng):
        samples = rng.uniform(-30, 30, (5, 7, 40))
        stats = NormalizationStats(mean=rng.uniform(-2, 2, 7), std=rng.uniform(0.5, 3.0, 7))
        rows = [normalize_input(window[None], stats)[0] for window in samples]
        assert np.array_equal(normalize_input(samples, stats), np.stack(rows))

    def test_stats_are_each_joints_mean_and_std(self, rng):
        samples = rng.standard_normal((6, 7, 40)) * np.arange(1, 8)[:, None] + np.arange(7)[:, None]
        stats = NormalizationStats.from_samples(samples)
        joint_major = samples.transpose(1, 0, 2).reshape(7, -1)
        assert np.allclose(stats.mean, joint_major.mean(axis=1), rtol=0, atol=1e-12)
        assert np.allclose(stats.std, joint_major.std(axis=1), rtol=0, atol=1e-12)


class TestTrain:
    def tiny_dataset(self, per_class=6, seed=3):
        return generate_dataset(default_signature_model(), per_class_count=per_class, seed=seed)

    def tiny_config(self, **overrides):
        kwargs = dict(seed=5, epochs=2)
        kwargs.update(overrides)
        return TorqueNetConfig(**kwargs)

    def test_one_epoch_on_the_paper_set_peaks_below_41_mb(self):
        # 1,800 windows: the epoch holds the two normalized splits but no third,
        # full stack, and no conv builds a (c·k, B·L) tap matrix
        dataset = generate_dataset(default_signature_model(), per_class_count=300, seed=1)
        tracemalloc.start()
        try:
            train(dataset, TorqueNetConfig(epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 41e6

    @settings(max_examples=5)
    @given(seed=st.integers(0, 2**16))
    def test_leaves_the_dataset_untouched(self, seed):
        data = self.tiny_dataset(per_class=2, seed=seed)
        kept = [(item.window.samples.copy(), item.label) for item in data]
        train(data, self.tiny_config(epochs=1))
        for item, (samples, label) in zip(data, kept):
            assert np.array_equal(item.window.samples, samples) and item.label is label

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
        torques = rng.uniform(-5, 5, (7, 200))
        batched = classify_windows(net, stats, range(0, 200, 40), torques)
        for start, scores in zip(range(0, 200, 40), batched):
            single = classify_window(net, stats, TorqueWindow(torques[:, start:start + 40], start_time=0))
            assert np.allclose(scores.probabilities, single.probabilities, atol=1e-12)
            assert scores.predicted is single.predicted

    def test_rejects_non_window(self, small_model):
        net, stats, _ = small_model
        with pytest.raises(TypeError):
            classify_window(net, stats, np.zeros((7, 40)))


def random_model(seed):
    """The preset network with random batch-norm statistics and random
    input statistics."""
    rng = np.random.default_rng(seed)
    net = build_network(TorqueNetConfig(seed=seed))
    for layer in net.layers:
        if isinstance(layer, nn.BatchNorm1D):
            layer.gamma = rng.uniform(0.5, 1.5, layer.channels)
            layer.beta = rng.normal(0.0, 0.5, layer.channels)
            layer.running_mean = rng.normal(0.0, 0.5, layer.channels)
            layer.running_var = rng.uniform(0.2, 2.0, layer.channels)
    stats = NormalizationStats(mean=rng.normal(0.0, 3.0, 7), std=rng.uniform(0.5, 5.0, 7))
    return net, stats


def random_stream(seed, length):
    return np.random.default_rng([seed, 1]).uniform(-30.0, 30.0, (7, length))


def assert_matches_single(net, stats, windows, torques):
    """classify_windows, and classify_window on each window, within 1e-9 of
    the per-window forward and with its predicted class."""
    batched = classify_windows(net, stats, windows, torques)
    assert len(batched) == len(windows)
    for start, from_run in zip(windows, batched):
        window = TorqueWindow(torques[:, start:start + 40], start_time=0)
        want = window_scores(net, stats, window)
        for got in (from_run, classify_window(net, stats, window)):
            assert np.max(np.abs(got.probabilities - want.probabilities)) <= 1e-9
            assert got.predicted is want.predicted


networks = dict(seed=st.integers(0, 2**32 - 1))


class TestClassifyWindowsRuns:
    """classify_windows scores the windows of one stream that start at a
    range of samples; the per-window forward is the oracle for it and for
    classify_window."""

    # up to 40 windows, so a range can span two plans of 32
    @given(**networks, start=st.integers(0, 50), step=st.integers(1, 60), count=st.integers(1, 40),
           tail=st.integers(0, 30))
    def test_sliding_windows_match_single(self, seed, start, step, count, tail):
        net, stats = random_model(seed)
        windows = range(start, start + count * step, step)
        assert_matches_single(net, stats, windows, random_stream(seed, windows[-1] + 40 + tail))


def spiked(row, col, value):
    torques = np.zeros((7, 80))
    torques[row, col] = value
    return torques


class TestClassifyWindowsRejects:
    """The stream and the range are checked where classify_windows takes them."""

    @pytest.mark.parametrize("windows, torques, match", [
        (range(0, 41, 5), np.zeros((6, 80)), "torque stream"),
        (range(0, 1), np.zeros(280), "torque stream"),
        (range(40, 0, -5), np.zeros((7, 80)), "step"),
        (range(-1, 40, 5), np.zeros((7, 80)), "do not fit"),
        (range(1, 42, 5), np.zeros((7, 80)), "do not fit"),  # the last window ends at 81
        (range(0, 41, 5), spiked(2, 79, np.nan), "finite"),
        (range(0, 41, 5), spiked(4, 0, 40.0), "out of range"),
    ], ids=["six-joints", "flat", "negative-step", "negative-start", "one-past-the-end", "nan", "40-nm"])
    def test_bad_input_rejected(self, windows, torques, match):
        net, stats = random_model(2)
        with pytest.raises(ValueError, match=match):
            classify_windows(net, stats, windows, torques)

    def test_a_window_ending_at_the_stream_end_is_accepted(self):
        net, stats = random_model(2)
        assert_matches_single(net, stats, range(0, 41, 5), random_stream(2, 80))

    def test_empty_range(self):
        net, stats = random_model(2)
        assert classify_windows(net, stats, range(0), random_stream(2, 80)) == []
        assert classify_windows(net, stats, range(50, 50, 5), random_stream(2, 80)) == []


class TestRunPlan:
    """The cached plan of a window geometry: its column counts, no computed
    band column left unread, and one plan for every single window."""

    def test_conv_columns_of_an_episode(self):
        # 7 joint series of 120 samples, then 14 segment-end positions per
        # window for each conv so far
        plan = _run_plan(17, 5)
        assert [gather.shape for gather in plan.gathers] == [(3, 1078), (3, 1316), (3, 1554)]
        assert plan.pool.shape == (17, 1555)

    @pytest.mark.parametrize("count, step", [(17, 5), (1, 0), (2, 39), (30, 1)])
    def test_every_computed_band_column_is_read(self, count, step):
        plan = _run_plan(count, step)
        n_series = 7 * (40 + (count - 1) * step)
        readers = [*plan.gathers[1:], np.flatnonzero(plan.pool.any(axis=0))]
        for gather, read in zip(plan.gathers, readers):
            assert np.isin(np.arange(n_series, gather.shape[1]), read).all()
        assert np.array_equal(plan.pool.sum(axis=1), np.full(count, 280.0))
        assert not any(array.flags.writeable for array in (*plan.gathers, plan.pool))

    def test_a_single_window_has_step_zero(self):
        # whatever its range's step, a single window shares the (1, 0) plan
        net, stats = random_model(4)
        torques = random_stream(4, 100)
        _run_plan.cache_clear()
        for windows in (range(0, 1), range(7, 8, 5), range(60, 61, 39)):
            assert_matches_single(net, stats, windows, torques)
        assert _run_plan.cache_info().currsize == 1

    def test_a_run_longer_than_one_plan(self):
        net, stats = random_model(12)
        # 81 windows: plans of 32, 32 and 17
        assert_matches_single(net, stats, range(0, 81, 1), random_stream(12, 120))


class TestTorqueVote:
    @pytest.mark.parametrize("action,expected", [
        (ActionClass.NO_ACTION, False), (ActionClass.BUMP, False), (ActionClass.PUSH, False),
        (ActionClass.HOLD, True), (ActionClass.PULL, True), (ActionClass.PULL_UP, True),
    ])
    def test_vote_table(self, action, expected):
        probs = np.zeros(6)
        probs[int(action)] = 1.0
        assert torque_vote(scores(probs)) is expected

    def test_consistent_with_expected_decision(self):
        for action in ActionClass:
            probs = np.zeros(6)
            probs[int(action)] = 1.0
            vote = torque_vote(scores(probs))
            assert vote == (expected_decision(action) is Decision.RELEASE)


def narrow_stack(filters):
    """The preset's layer kinds with ``filters`` filters per block."""
    rng = np.random.default_rng(0)
    layers = []
    for in_ch in (1, filters, filters):
        bn = nn.BatchNorm1D(np.ones(filters), np.zeros(filters), np.zeros(filters), np.ones(filters))
        layers += [nn.Conv1D(rng.standard_normal((filters, in_ch, 3)), np.zeros(filters)), bn, nn.ReLU()]
    return layers + [nn.GlobalAvgPool1D(), nn.Linear(rng.standard_normal((6, filters)), np.zeros(6))]


# the preset's layers with one edit each
NON_PRESET_STACKS = {
    "block-dropped": lambda layers: layers[:3] + layers[6:],
    "kernel-5": lambda layers: layers[:3] + [nn.Conv1D(np.zeros((64, 64, 5)), np.zeros(64))] + layers[4:],
    "32-filters": lambda layers: narrow_stack(32),
    "pooling-removed": lambda layers: layers[:9] + layers[10:],
    "kind-swapped": lambda layers: layers[:4] + [layers[5], layers[4]] + layers[6:],
}


def set_first(value):
    """An edit that writes ``value`` over an array's first element."""
    def edit(arrays, key):
        cell = arrays[key]
        while isinstance(cell[0], list):
            cell = cell[0]
        cell[0] = value
    return edit


# each way to damage one stored array: (edit, error, message)
ARRAY_DAMAGE = {
    "first-row": (lambda arrays, key: arrays.update({key: arrays[key][:1]}), ValueError, "shape"),
    "nan": (set_first(float("nan")), ValueError, "non-finite"),
    "inf": (set_first(float("inf")), ValueError, "non-finite"),
    "-inf": (set_first(-float("inf")), ValueError, "non-finite"),
    "bool": (set_first(True), TypeError, "JSON number"),
    "string": (set_first("0.5"), TypeError, "JSON number"),
    "missing": (lambda arrays, key: arrays.pop(key), ValueError, "preset"),
    "extra": (lambda arrays, key: arrays.update({f"{key}2": arrays[key]}), ValueError, "preset"),
}


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

    @settings(max_examples=20)
    @given(data=st.data())
    def test_drawn_arrays_survive_the_file_bit_for_bit(self, damaged_file, data):
        net = build_network()
        for key, arr in _stored_arrays(net).items():
            values = st.floats(0.0 if key.endswith(".running_var") else None, allow_nan=False, allow_infinity=False)
            arr[...] = data.draw(hnp.arrays(np.float64, arr.shape, elements=values), label=key)
        save_model(damaged_file, net, GOLDEN["NormalizationStats"][0])
        back, _stats = load_model(damaged_file)
        loaded = _stored_arrays(back)
        for key, arr in _stored_arrays(net).items():
            assert loaded[key].tobytes() == arr.tobytes(), key
        assert not any(np.any(layer.bias) for layer in back.layers if isinstance(layer, nn.Conv1D))

    @pytest.mark.parametrize("damage", sorted(ARRAY_DAMAGE))
    @pytest.mark.parametrize("key", MODEL_ARRAYS)
    def test_load_rejects_a_damaged_array(self, damaged_file, preset_model_text, key, damage):
        edit, error, match = ARRAY_DAMAGE[damage]
        doc = json.loads(preset_model_text)
        edit(doc["arrays"], key)
        damaged_file.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(error, match=match):
            load_model(damaged_file)

    @pytest.mark.parametrize("key", [key for key in MODEL_ARRAYS if key.endswith(".running_var")])
    def test_load_rejects_a_negative_running_var(self, damaged_file, preset_model_text, key):
        doc = json.loads(preset_model_text)
        doc["arrays"][key][5] = -1e-300
        damaged_file.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=f"{key} must be non-negative"):
            load_model(damaged_file)

    # no key sets a conv bias, a batch norm's epsilon or momentum, or the stack
    @pytest.mark.parametrize("key", ["0.bias", "6.bias", "1.epsilon", "7.momentum", "2.kind"])
    def test_load_rejects_an_array_the_preset_does_not_store(self, damaged_file, preset_model_text, key):
        doc = json.loads(preset_model_text)
        doc["arrays"][key] = [0.0] * 64
        damaged_file.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=f"preset's in \\['{key}'\\]"):
            load_model(damaged_file)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(network={}),
        lambda doc: doc.pop("normalization"),
    ], ids=["extra", "missing"])
    def test_load_rejects_other_file_keys(self, damaged_file, preset_model_text, edit):
        doc = json.loads(preset_model_text)
        edit(doc)
        damaged_file.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="keys"):
            load_model(damaged_file)

    def test_load_rejects_a_v1_file_and_says_to_retrain(self, damaged_file):
        doc = {"format": "handover-model-v1", "network": {"layers": [], "version": "tcnn-v1"},
               "normalization": {"mean": [0.0] * 7, "std": [1.0] * 7}}
        damaged_file.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match="'handover-model-v1'; retrain"):
            load_model(damaged_file)

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

    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_load_reports_a_number_beyond_float_range(self, small_model, tmp_path, field):
        def edit(doc):
            doc["normalization"][field][0] = 10**400

        with pytest.raises(OverflowError):
            load_model(self.corrupt_model(small_model, tmp_path, edit))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_file_loads_or_raises_a_reported_error(self, damaged_file, preset_model_text, data):
        # simulate and eval report these five as a bad model file (exit 2)
        doc = data.draw(damaged_model_docs(preset_model_text))
        damaged_file.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_model(damaged_file)
        except (OSError, KeyError, TypeError, ValueError, OverflowError):
            pass

    @pytest.mark.parametrize("edit", sorted(NON_PRESET_STACKS))
    def test_load_rejects_a_non_preset_stack(self, tmp_path, edit):
        net = nn.Network(NON_PRESET_STACKS[edit](build_network().layers))
        path = tmp_path / "model.json"
        save_model(path, net, NormalizationStats(mean=np.zeros(7), std=np.ones(7)))
        with pytest.raises(ValueError, match="preset"):
            load_model(path)

    def test_dataset_jsonl_roundtrip(self, tmp_path):
        items = generate_dataset(default_signature_model(), per_class_count=2, seed=9)
        path = tmp_path / "data.jsonl"
        assert write_dataset_jsonl(path, items) == 12
        back = read_dataset_jsonl(path)
        assert len(back) == 12
        for a, b in zip(items, back):
            assert a.label == b.label
            assert np.array_equal(a.window.samples, b.window.samples)

    def test_evaluate_matches_classify_window(self, small_model):
        net, stats, _ = small_model
        items = generate_dataset(default_signature_model(), per_class_count=10, seed=34)
        want = np.zeros((6, 6), dtype=np.int64)
        for item in items:
            want[int(item.label), int(classify_window(net, stats, item.window).predicted)] += 1
        accuracy, confusion = evaluate(net, stats, items)
        assert np.array_equal(confusion, want)
        assert accuracy == np.trace(want) / 60

    def test_evaluate_confusion_row_sums(self, small_model):
        net, stats, _ = small_model
        items = generate_dataset(default_signature_model(), per_class_count=3, seed=33)
        accuracy, confusion = evaluate(net, stats, items)
        assert confusion.sum(axis=1).tolist() == [3] * 6
        assert accuracy == pytest.approx(np.trace(confusion) / 18)

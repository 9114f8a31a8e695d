"""Backward-pass checks against finite differences and analytic identities."""
import numpy as np
import pytest

import handover.nn_kernel as nn


def tiny_network(seed=42):
    gen = np.random.default_rng(seed)
    return nn.Network([
        nn.Conv1D(1, 4, 3, rng=gen), nn.BatchNorm1D(4), nn.ReLU(),
        nn.Conv1D(4, 4, 3, rng=gen), nn.BatchNorm1D(4), nn.ReLU(),
        nn.Conv1D(4, 4, 3, rng=gen), nn.BatchNorm1D(4), nn.ReLU(),
        nn.GlobalAvgPool1D(), nn.Linear(4, 6, rng=gen),
    ])


def training_loss(net, x, targets):
    logits = net.forward(x, training=True)
    return nn.mean_cross_entropy(nn.softmax(logits), targets)


def finite_difference(net, x, targets, layer_idx, name, flat_idx, h=1e-4):
    flat = net.layers[layer_idx].params()[name].ravel()
    orig = flat[flat_idx]
    flat[flat_idx] = orig + h
    plus = training_loss(net, x, targets)
    flat[flat_idx] = orig - h
    minus = training_loss(net, x, targets)
    flat[flat_idx] = orig
    return (plus - minus) / (2.0 * h)


def sample_coordinates(net, n, seed):
    gen = np.random.default_rng(seed)
    slots = []
    for li, layer in enumerate(net.layers):
        for name, arr in layer.params().items():
            slots.append((li, name, arr.size))
    coords = []
    for _ in range(n):
        li, name, size = slots[int(gen.integers(len(slots)))]
        coords.append((li, name, int(gen.integers(size))))
    return coords


def relative_error(a, b, floor=1e-3):
    return abs(a - b) / max(abs(a), abs(b), floor)


class TestFiniteDifferences:
    def test_gradient_matches_central_differences(self):
        net = tiny_network()
        gen = np.random.default_rng(1)
        x = gen.standard_normal((6, 1, 16))
        targets = gen.integers(0, 6, 6)
        _, _, tape = nn.backward(net, x, targets)
        for li, name, idx in sample_coordinates(net, 40, seed=2):
            analytic = tape.per_layer[li][name].ravel()[idx]
            numeric = finite_difference(net, x, targets, li, name, idx)
            assert relative_error(analytic, numeric) < 1e-4, (li, name, idx)

    def test_final_bias_gradient_is_softmax_minus_onehot(self):
        net = tiny_network(seed=9)
        gen = np.random.default_rng(3)
        x = gen.standard_normal((5, 1, 16))
        targets = gen.integers(0, 6, 5)
        _, probs, tape = nn.backward(net, x, targets)
        one_hot = np.zeros_like(probs)
        one_hot[np.arange(5), targets] = 1.0
        want = (probs - one_hot).mean(axis=0)
        assert np.abs(tape.per_layer[-1]["bias"] - want).max() < 1e-12

    def test_saturated_perfect_batch_has_zero_gradient(self):
        net = tiny_network(seed=11)
        head = net.layers[-1]
        head.weight = np.zeros_like(head.weight)
        head.bias = np.zeros_like(head.bias)
        head.bias[0] = 40.0  # saturates softmax onto class 0
        gen = np.random.default_rng(4)
        x = gen.standard_normal((4, 1, 16))
        targets = np.zeros(4, dtype=np.int64)
        loss, _, tape = nn.backward(net, x, targets)
        assert loss < 1e-12
        norm = np.sqrt(sum(
            float(np.sum(g**2)) for grads in tape.per_layer for g in grads.values()
        ))
        assert norm < 1e-6

    def test_batch_size_mismatch_rejected(self):
        net = tiny_network()
        with pytest.raises(ValueError, match="batch"):
            nn.backward(net, np.zeros((3, 1, 16)), np.zeros(4, dtype=int))

    def test_backward_without_forward_rejected(self):
        layer = nn.Conv1D(1, 2, 3)
        with pytest.raises(ValueError, match="training forward"):
            layer.backward(np.zeros((1, 2, 8)))

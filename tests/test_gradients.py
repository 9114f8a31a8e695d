"""Backward-pass checks against finite differences and analytic identities."""
import numpy as np
import pytest

import handover.nn_kernel as nn


def tiny_network(seed=42):
    """The preset's layers at 4 filters, initialized as build_network does."""
    gen = np.random.default_rng(seed)

    def he_uniform(*shape):
        bound = np.sqrt(6.0 / np.prod(shape[1:]))
        return gen.uniform(-bound, bound, size=shape)

    layers = []
    for in_ch in (1, 4, 4):
        bn = nn.BatchNorm1D(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
        layers += [nn.Conv1D(he_uniform(4, in_ch, 3), np.zeros(4)), bn, nn.ReLU()]
    return nn.Network(layers + [nn.GlobalAvgPool1D(), nn.Linear(he_uniform(6, 4), np.zeros(6))])


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
        nn.backward(net, x, targets)
        for li, name, idx in sample_coordinates(net, 40, seed=2):
            analytic = net.layers[li].grads[name].ravel()[idx]
            numeric = finite_difference(net, x, targets, li, name, idx)
            assert relative_error(analytic, numeric) < 1e-4, (li, name, idx)

    def test_final_bias_gradient_is_softmax_minus_onehot(self):
        net = tiny_network(seed=9)
        gen = np.random.default_rng(3)
        x = gen.standard_normal((5, 1, 16))
        targets = gen.integers(0, 6, 5)
        _, probs = nn.backward(net, x, targets)
        one_hot = np.zeros_like(probs)
        one_hot[np.arange(5), targets] = 1.0
        want = (probs - one_hot).mean(axis=0)
        assert np.abs(net.layers[-1].grads["bias"] - want).max() < 1e-12

    def test_saturated_perfect_batch_has_zero_gradient(self):
        net = tiny_network(seed=11)
        head = net.layers[-1]
        head.weight = np.zeros_like(head.weight)
        head.bias = np.zeros_like(head.bias)
        head.bias[0] = 40.0  # saturates softmax onto class 0
        gen = np.random.default_rng(4)
        x = gen.standard_normal((4, 1, 16))
        targets = np.zeros(4, dtype=np.int64)
        loss, _ = nn.backward(net, x, targets)
        assert loss < 1e-12
        norm = np.sqrt(sum(
            float(np.sum(g**2)) for layer in net.layers for g in layer.grads.values()
        ))
        assert norm < 1e-6

    def test_batch_size_mismatch_rejected(self):
        net = tiny_network()
        with pytest.raises(ValueError, match="batch"):
            nn.backward(net, np.zeros((3, 1, 16)), np.zeros(4, dtype=int))

    def test_backward_without_forward_rejected(self):
        layer = nn.Conv1D(np.zeros((2, 1, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="training forward"):
            layer.backward(np.zeros((1, 2, 8)))

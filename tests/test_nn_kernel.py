import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import handover.nn_kernel as nn
from handover.classifier import TorqueNetConfig, build_network
from oracles import reference_step


def conv1d_brute_force(x, weight, bias):
    """Triple-loop same-padded convolution, the independent oracle."""
    out_ch, in_ch, k = weight.shape
    length = x.shape[1]
    p = (k - 1) // 2
    out = np.zeros((out_ch, length))
    for o in range(out_ch):
        for t in range(length):
            acc = bias[o]
            for i in range(in_ch):
                for j in range(k):
                    src = t + j - p
                    if 0 <= src < length:
                        acc += weight[o, i, j] * x[i, src]
            out[o, t] = acc
    return out


def he_uniform(gen, *shape):
    """Weights drawn as build_network draws its initial ones."""
    bound = np.sqrt(6.0 / np.prod(shape[1:]))
    return gen.uniform(-bound, bound, size=shape)


def make_conv(in_ch, out_ch, k, seed):
    """A conv with standard normal weight and bias."""
    gen = np.random.default_rng(seed + 1)
    return nn.Conv1D(gen.standard_normal((out_ch, in_ch, k)), gen.standard_normal(out_ch))


def make_batchnorm(channels):
    """A batch norm as build_network makes it: the identity at unit running variance."""
    return nn.BatchNorm1D(np.ones(channels), np.zeros(channels), np.zeros(channels), np.ones(channels))


class TestConv1d:
    def test_identity_kernel(self):
        layer = nn.Conv1D(np.array([[[0.0, 1.0, 0.0]]]), np.zeros(1))
        out = layer.forward(np.array([[1.0, 2.0, 3.0, 4.0]])[None])[0]
        assert np.allclose(out, [[1.0, 2.0, 3.0, 4.0]])

    def test_zero_kernel(self, rng):
        layer = nn.Conv1D(np.zeros((4, 3, 3)), np.zeros(4))
        out = layer.forward(rng.standard_normal((3, 10))[None])[0]
        assert np.all(out == 0.0)

    def test_matches_brute_force_on_random_shapes(self, rng):
        for trial in range(60):
            in_ch = int(rng.integers(1, 9))
            out_ch = int(rng.integers(1, 9))
            k = int(rng.choice([1, 3, 5]))
            length = int(rng.integers(max(k, 2), 65))
            layer = make_conv(in_ch, out_ch, k, seed=trial)
            x = rng.standard_normal((in_ch, length))
            got = layer.forward(x[None])[0]
            want = conv1d_brute_force(x, layer.weight, layer.bias)
            assert np.abs(got - want).max() < 1e-9

    def test_batched_matches_single(self, rng):
        layer = make_conv(3, 5, 3, seed=7)
        batch = rng.standard_normal((4, 3, 12))
        got = layer.forward(batch)
        for b in range(4):
            assert np.allclose(got[b], layer.forward(batch[b][None])[0])

    def test_channel_mismatch_rejected(self, rng):
        layer = make_conv(3, 4, 3, seed=0)
        with pytest.raises(ValueError, match="channels"):
            layer.forward(rng.standard_normal((2, 10))[None])

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            nn.Conv1D(np.zeros((1, 1, 2)), np.zeros(1))

    def test_mismatched_bias_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            nn.Conv1D(np.zeros((4, 3, 3)), np.zeros(3))

    def test_training_forward_keeps_no_more_than_its_input(self, rng):
        # the backward pass needs the input, not its k-times-larger im2col matrix
        layer = nn.Conv1D(he_uniform(rng, 64, 64, 3), np.zeros(64))
        x = rng.standard_normal((32, 64, 280))
        layer.forward(x, training=True)
        own = [id(getattr(layer, name)) for name in layer.arrays]
        kept = [a for a in vars(layer).values() if isinstance(a, np.ndarray) and id(a) not in own]
        assert sum(a.nbytes for a in kept) <= x.nbytes


class TestBatchNorm:
    def test_constant_channel_maps_to_zero(self):
        layer = make_batchnorm(2)
        x = np.full((3, 2, 5), 4.0)
        out = layer.forward(x, training=True)
        assert np.abs(out).max() < 1e-6  # epsilon guards the zero variance

    def test_affine_on_standardized_input(self, rng):
        layer = nn.BatchNorm1D(np.full(3, 2.0), np.full(3, 1.0), np.zeros(3), np.ones(3))
        x = rng.standard_normal((8, 3, 20))
        x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
        out = layer.forward(x, training=True)
        assert np.allclose(out, 2.0 * x + 1.0, atol=1e-4)

    def test_train_statistics_oracle(self, rng):
        layer = nn.BatchNorm1D(rng.uniform(0.5, 2.0, 4), rng.uniform(-1.0, 1.0, 4), np.zeros(4), np.ones(4))
        x = rng.standard_normal((16, 4, 30)) * 3.0 + 1.5
        out = layer.forward(x, training=True)
        # recompute statistics directly from the output
        assert np.allclose(out.mean(axis=(0, 2)), layer.beta, atol=1e-6)
        assert np.allclose(out.var(axis=(0, 2)), layer.gamma**2, atol=1e-4)

    def test_infer_mode_is_frozen_and_deterministic(self, rng):
        layer = make_batchnorm(2)
        layer.forward(rng.standard_normal((8, 2, 10)), training=True)
        frozen_mean = layer.running_mean.copy()
        x = rng.standard_normal((4, 2, 10))
        first = layer.forward(x, training=False)
        layer.forward(rng.standard_normal((6, 2, 10)) + 10.0, training=False)
        second = layer.forward(x, training=False)
        assert np.array_equal(first, second)
        assert np.array_equal(layer.running_mean, frozen_mean)

    def test_running_stats_track_batches(self, rng):
        layer = make_batchnorm(1)
        x = rng.standard_normal((10, 1, 50)) + 5.0
        for _ in range(200):
            layer.forward(x.copy(), training=True)  # a channel-major input is centred in place
        assert abs(layer.running_mean[0] - x.mean()) < 1e-3

    def test_empty_batch_rejected(self):
        layer = make_batchnorm(2)
        with pytest.raises(ValueError, match="non-empty"):
            layer.forward(np.zeros((0, 2, 5)), training=True)

    def test_zero_running_var_accepted(self):
        # a constant channel's variance; epsilon keeps its inference finite
        layer = nn.BatchNorm1D(np.ones(2), np.zeros(2), np.zeros(2), np.zeros(2))
        assert np.all(np.isfinite(layer.forward(np.ones((1, 2, 3)))))

    @pytest.mark.parametrize("index", range(4))
    def test_mismatched_array_rejected(self, index):
        # gamma sets the channel count, so a longer gamma is beta's mismatch
        arrays = [np.ones(2), np.zeros(2), np.zeros(2), np.ones(2)]
        arrays[index] = np.ones(3)
        with pytest.raises(ValueError, match=f"batchnorm {nn.BatchNorm1D.arrays[max(index, 1)]} shape"):
            nn.BatchNorm1D(*arrays)

    def test_negative_running_var_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            nn.BatchNorm1D(np.ones(2), np.zeros(2), np.zeros(2), np.array([1.0, -1e-300]))

    @pytest.mark.parametrize("shape", [(2, 5), (2, 3, 5)])
    def test_wrong_input_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="batchnorm expects"):
            make_batchnorm(2).forward(np.zeros(shape))

    def test_second_backward_needs_a_new_forward(self, rng):
        # backward builds dx in the centred rows, so they serve one backward
        layer = make_batchnorm(2)
        layer.forward(rng.standard_normal((3, 2, 4)), training=True)
        layer.backward(np.ones((3, 2, 4)))
        with pytest.raises(ValueError, match="training forward"):
            layer.backward(np.ones((3, 2, 4)))

    def test_training_forward_needs_one_output(self, rng):
        # the centred rows are written over the channel-major input, so only the output is new
        layer = make_batchnorm(64)
        x = channel_major_view(rng.standard_normal((32, 64, 280)))
        tracemalloc.start()
        try:
            layer.forward(x, training=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + 2**20

    def test_training_forward_moves_running_statistics_by_the_momentum_constant(self, rng):
        # the preset's 0.1 of the batch's statistics, 0.9 of the old ones
        start_mean, start_var = np.array([1.0, -2.0]), np.array([0.5, 3.0])
        layer = nn.BatchNorm1D(np.ones(2), np.zeros(2), start_mean, start_var)
        x = rng.standard_normal((4, 2, 6))
        layer.forward(x, training=True)
        want_mean = 0.9 * start_mean + 0.1 * x.mean(axis=(0, 2))
        want_var = 0.9 * start_var + 0.1 * x.var(axis=(0, 2))
        assert np.allclose(layer.running_mean, want_mean, rtol=1e-12, atol=0.0)
        assert np.allclose(layer.running_var, want_var, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("momentum", [0.0, 1.0])
    def test_momentum_bounds_accepted(self, rng, monkeypatch, momentum):
        # the update's ends: 0 keeps the running statistics, 1 takes the batch's
        monkeypatch.setattr(nn, "RUNNING_MOMENTUM", momentum)
        layer = make_batchnorm(2)
        x = rng.standard_normal((4, 2, 6))
        layer.forward(x, training=True)
        want = x.var(axis=(0, 2)) if momentum == 1.0 else np.ones(2)
        assert np.allclose(layer.running_var, want, rtol=1e-12, atol=0.0)


class TestRelu:
    def test_definition(self):
        assert np.array_equal(nn.ReLU().forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative(self):
        assert np.all(nn.ReLU().forward(np.full((3, 4), -2.0)) == 0.0)

    def test_idempotent(self, rng):
        relu = nn.ReLU().forward
        once = relu(rng.standard_normal((5, 17)))
        assert np.array_equal(relu(once.copy()), once)

    @pytest.mark.parametrize("training", [False, True])
    def test_forward_writes_over_its_input(self, rng, training):
        x = rng.standard_normal((2, 3, 4))
        want = np.maximum(x, 0.0)
        out = nn.ReLU().forward(x, training=training)
        assert np.shares_memory(out, x) and np.array_equal(x, want)

    def test_network_forward_leaves_its_input_unchanged(self, rng):
        x = rng.standard_normal((2, 3, 4))
        kept = x.copy()
        assert np.array_equal(nn.Network([nn.ReLU()]).forward(x), np.maximum(kept, 0.0))
        assert np.array_equal(x, kept)

    def test_gradient_at_zero_is_zero(self):
        relu = nn.ReLU()
        relu.forward(np.array([-1.0, 0.0, 2.0]), training=True)
        assert np.array_equal(relu.backward(np.ones(3)), [0.0, 0.0, 1.0])


class TestLinear:
    def test_mismatched_bias_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            nn.Linear(np.zeros((4, 3)), np.zeros(3))

    @pytest.mark.parametrize("shape", [(2, 4), (2, 3, 1)])
    def test_wrong_input_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="linear expects"):
            nn.Linear(np.zeros((4, 3)), np.zeros(4)).forward(np.zeros(shape))


class TestGlobalAvgPool:
    def test_simple_mean(self):
        assert nn.GlobalAvgPool1D().forward(np.array([[2.0, 4.0]]))[0] == 3.0

    def test_constant_channel(self):
        assert np.allclose(nn.GlobalAvgPool1D().forward(np.full((3, 9), 7.5)), 7.5)

    def test_matches_summation_oracle(self, rng):
        x = rng.standard_normal((6, 33))
        want = np.array([sum(row) / len(row) for row in x])
        assert np.abs(nn.GlobalAvgPool1D().forward(x) - want).max() < 1e-12

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            nn.GlobalAvgPool1D().forward(np.zeros((3, 0)))


# per layer kind: the layer, its forward input shape, its backward gradient shape
ONE_BACKWARD_LAYERS = {
    "conv": (lambda: make_conv(2, 3, 3, seed=0), (4, 2, 9), (4, 3, 9)),
    "pool": (nn.GlobalAvgPool1D, (4, 2, 9), (4, 2)),
    "linear": (lambda: nn.Linear(np.ones((3, 2)), np.zeros(3)), (4, 2), (4, 3)),
}


class TestOneBackwardPerForward:
    """A backward consumes what its training forward kept, and may write
    over it, so a second backward needs a new forward."""

    @pytest.mark.parametrize("kind", sorted(ONE_BACKWARD_LAYERS))
    def test_second_backward_needs_a_new_forward(self, rng, kind):
        make, x_shape, grad_shape = ONE_BACKWARD_LAYERS[kind]
        layer = make()
        layer.forward(rng.standard_normal(x_shape), training=True)
        layer.backward(rng.standard_normal(grad_shape))
        with pytest.raises(ValueError, match="training forward"):
            layer.backward(rng.standard_normal(grad_shape))
        layer.forward(rng.standard_normal(x_shape), training=True)
        layer.backward(rng.standard_normal(grad_shape))

    def test_relu_keeps_its_mask_and_repeats_exactly(self, rng):
        # its backward writes over the incoming gradient, never over the mask
        relu = nn.ReLU()
        x = rng.standard_normal((4, 2, 9))
        want = (x > 0.0) * 1.0
        relu.forward(x, training=True)
        assert np.array_equal(relu.backward(np.ones(x.shape)), want)
        assert np.array_equal(relu.backward(np.ones(x.shape)), want)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = nn.softmax(np.full(6, 3.7))
        assert np.allclose(out, 1.0 / 6.0)

    def test_shift_invariance(self, rng):
        z = rng.standard_normal(6)
        assert np.allclose(nn.softmax(z), nn.softmax(z + 123.456), atol=1e-12)

    def test_matches_direct_oracle(self, rng):
        z = rng.standard_normal(9)
        want = np.exp(z) / np.exp(z).sum()
        assert np.abs(nn.softmax(z) - want).max() < 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
    def test_extreme_logits_stay_normalized(self, rng, scale):
        z = rng.standard_normal(6) * scale
        out = nn.softmax(z)
        assert np.all(out >= 0.0)
        assert abs(out.sum() - 1.0) < 1e-9

    def test_order_preserving(self, rng):
        z = rng.standard_normal(8)
        assert np.array_equal(np.argsort(nn.softmax(z)), np.argsort(z))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            nn.softmax(np.array([1.0, np.inf]))


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        p = np.zeros(6)
        p[2] = 1.0
        assert nn.cross_entropy_loss(p, 2) == 0.0

    def test_uniform_six_classes(self):
        assert abs(nn.cross_entropy_loss(np.full(6, 1 / 6), 4) - math.log(6)) < 1e-12

    def test_matches_oracle(self, rng):
        p = rng.uniform(0.01, 1.0, 6)
        p /= p.sum()
        for target in range(6):
            assert abs(nn.cross_entropy_loss(p, target) + math.log(p[target])) < 1e-12

    def test_clamps_zero_probability(self):
        p = np.zeros(3)
        p[0] = 1.0
        assert nn.cross_entropy_loss(p, 2) == pytest.approx(-math.log(1e-12))

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            nn.cross_entropy_loss(np.full(4, 0.25), 4)


class TestOptimizers:
    def single_linear_net(self, seed=0):
        layer = nn.Linear(he_uniform(np.random.default_rng(seed), 2, 2), np.zeros(2))
        return nn.Network([layer]), layer

    def test_zero_gradient_leaves_parameters(self):
        net, layer = self.single_linear_net()
        before = layer.weight.copy()
        layer.grads = {"weight": np.zeros_like(layer.weight), "bias": np.zeros_like(layer.bias)}
        nn.MomentumSGD(net, learning_rate=0.5).step()
        assert np.array_equal(layer.weight, before)

    def test_unit_learning_rate_subtracts_gradient(self):
        # the first step starts at rest, so it is -learning_rate * grad
        net, layer = self.single_linear_net()
        before = layer.weight.copy()
        layer.grads = {"weight": np.full_like(layer.weight, 0.25), "bias": np.zeros_like(layer.bias)}
        nn.MomentumSGD(net, learning_rate=1.0).step()
        assert np.allclose(layer.weight, before - 0.25)

    def test_non_positive_learning_rate_rejected(self):
        net, _ = self.single_linear_net()
        with pytest.raises(ValueError, match="learning rate"):
            nn.MomentumSGD(net, learning_rate=0.0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, rate):
        net, _ = self.single_linear_net()
        with pytest.raises(ValueError, match="learning rate"):
            nn.MomentumSGD(net, learning_rate=rate)

    def test_step_before_backward_rejected(self):
        net, layer = self.single_linear_net()
        before = layer.weight.copy()
        with pytest.raises(ValueError, match="backward"):
            nn.MomentumSGD(net, learning_rate=0.1).step()
        assert np.array_equal(layer.weight, before)

    def set_quadratic_grads(self, layer):
        # gradient of 0.5 * ||params||^2 is the parameters themselves
        layer.grads = {"weight": layer.weight.copy(), "bias": layer.bias.copy()}

    def quadratic_loss(self, layer):
        return 0.5 * (np.sum(layer.weight**2) + np.sum(layer.bias**2))

    def test_steps_follow_the_heavy_ball_recurrence(self):
        # v <- 0.9 v + g, then each array moves by -learning_rate * v
        net, layer = self.single_linear_net(seed=3)
        layer.bias = np.array([1.0, -2.0])
        opt = nn.MomentumSGD(net, learning_rate=0.1)
        want = {name: arr.copy() for name, arr in layer.params().items()}
        velocity = {name: np.zeros_like(arr) for name, arr in want.items()}
        for _ in range(5):
            self.set_quadratic_grads(layer)
            opt.step()
            for name, arr in layer.params().items():
                velocity[name] = 0.9 * velocity[name] + want[name]
                want[name] = want[name] - 0.1 * velocity[name]
                assert np.array_equal(arr, want[name]), name

    def test_momentum_converges_on_convex_quadratic(self):
        net, layer = self.single_linear_net(seed=4)
        layer.bias = np.array([1.0, -2.0])
        opt = nn.MomentumSGD(net, learning_rate=0.05)
        start = self.quadratic_loss(layer)
        for _ in range(200):
            self.set_quadratic_grads(layer)
            opt.step()
        assert self.quadratic_loss(layer) < 1e-4 * start

    def test_momentum_validates_hyperparameters(self):
        net, _ = self.single_linear_net()
        with pytest.raises(ValueError):
            nn.MomentumSGD(net, learning_rate=-1.0)


def channel_major_view(x):
    """The same values as x, stored as a contiguous (channels, batch, length) buffer."""
    return np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)


def is_channel_major(x):
    return x.transpose(1, 0, 2).flags.c_contiguous


def channel_sums(buf):
    """Per-channel sums of a (channels, batch, length) buffer: each sample
    summed over length, then the samples added in order."""
    return np.ascontiguousarray(buf.sum(axis=2).T).sum(axis=0)


def batchnorm_forward_oracle(x, gamma, beta, epsilon):
    """The per-sample-ordered training forward: statistics by channel_sums,
    x_hat scaled on its own. Returns (out, mean, var, x_hat, inv_std)."""
    xc = np.ascontiguousarray(x.transpose(1, 0, 2))
    m = xc.shape[1] * xc.shape[2]
    mean = channel_sums(xc) / m
    x_hat = xc - mean[:, None, None]
    var = channel_sums(np.square(x_hat)) / m
    inv_std = 1.0 / np.sqrt(var + epsilon)
    x_hat *= inv_std[:, None, None]
    out = gamma[:, None, None] * x_hat + beta[:, None, None]
    return out.transpose(1, 0, 2), mean, var, x_hat, inv_std


def batchnorm_backward_oracle(grad, x_hat, inv_std, gamma):
    """Returns (dx, dgamma, dbeta) with sums by channel_sums."""
    g = np.ascontiguousarray(grad.transpose(1, 0, 2))
    m = g.shape[1] * g.shape[2]
    sum_g, sum_gx = channel_sums(g), channel_sums(g * x_hat)
    dx = g - (sum_g / m)[:, None, None] - x_hat * (sum_gx / m)[:, None, None]
    dx *= (gamma * inv_std)[:, None, None]
    return dx.transpose(1, 0, 2), sum_gx, sum_g


def conv_backward_oracle(x, weight, grad):
    """im2col from a zero-padded copy, col2im scattered into zeros.
    Returns (dx, dweight)."""
    out_ch, in_ch, k = weight.shape
    batch, _, length = x.shape
    p = (k - 1) // 2
    padded = np.pad(x, ((0, 0), (0, 0), (p, p)))
    cols = np.stack([padded[:, :, j:j + length] for j in range(k)], axis=2)  # (B, C, k, L)
    cols = cols.transpose(1, 2, 0, 3).reshape(in_ch * k, batch * length)
    g = np.ascontiguousarray(grad.transpose(1, 0, 2))
    g2 = g.reshape(out_ch, batch * length)
    dcols = (weight.reshape(out_ch, in_ch * k).T @ g2).reshape(in_ch, k, batch, length)
    dx = np.zeros((in_ch, batch, length + 2 * p))
    for j in range(k):
        dx[:, :, j:j + length] += dcols[:, j]
    dx = dx[:, :, p:p + length]
    return dx.transpose(1, 0, 2), (g2 @ cols.T).reshape(weight.shape)


def assert_close(got, want, scale):
    """Equal within 1e-12 of ``scale``, the magnitude of the terms whose
    summation order may differ; catches any error of a term's size."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


@st.composite
def kernel_cases(draw):
    """Shapes across the network's range, a seed for the values, and
    whether the inputs come in channel-major strides."""
    return (
        draw(st.integers(1, 33)), draw(st.integers(1, 64)), draw(st.integers(1, 300)),
        draw(st.integers(0, 2**16)), draw(st.booleans()),
    )


class TestTrainingKernelsMatchOracles:
    """The row-reduction training kernels against the per-sample-ordered
    formulas they replaced, on contiguous and channel-major inputs."""

    @given(case=kernel_cases())
    def test_batchnorm(self, case):
        batch, channels, length, seed, strided = case
        gen = np.random.default_rng(seed)
        # a random scale and offset, so the centring has something to cancel
        x = gen.standard_normal((batch, channels, length)) * gen.uniform(0.1, 10.0) + gen.uniform(-5.0, 5.0)
        grad = gen.standard_normal(x.shape)
        gamma, beta = gen.uniform(-2.0, 2.0, channels), gen.standard_normal(channels)
        start_mean, start_var = gen.standard_normal(channels), gen.uniform(0.1, 4.0, channels)
        layer = nn.BatchNorm1D(gamma, beta, start_mean.copy(), start_var.copy())
        momentum = nn.RUNNING_MOMENTUM
        view = channel_major_view if strided else np.ascontiguousarray
        want, mean, var, x_hat, inv_std = batchnorm_forward_oracle(x, gamma, beta, 1e-5)
        got = layer.forward(view(x), training=True)
        x_max, scale_max = np.abs(x).max(), np.abs(layer.gamma * inv_std).max()
        assert_close(got, want, scale_max * 2.0 * x_max + np.abs(layer.beta).max())
        want_mean = (1.0 - momentum) * start_mean + momentum * mean
        assert_close(layer.running_mean, want_mean, x_max + np.abs(start_mean).max())
        want_var = (1.0 - momentum) * start_var + momentum * var
        assert_close(layer.running_var, want_var, 4.0 * x_max**2 + start_var.max())
        want_dx, want_dgamma, want_dbeta = batchnorm_backward_oracle(grad, x_hat, inv_std, layer.gamma)
        got_dx = layer.backward(view(grad))
        g_max, xh_max = np.abs(grad).max(), np.abs(x_hat).max()
        assert_close(got_dx, want_dx, scale_max * g_max * (2.0 + xh_max**2))
        g_cm = grad.transpose(1, 0, 2)
        assert_close(layer.grads["gamma"], want_dgamma, np.abs(g_cm * x_hat).sum(axis=(1, 2)).max())
        assert_close(layer.grads["beta"], want_dbeta, np.abs(g_cm).sum(axis=(1, 2)).max())

    @given(case=kernel_cases(), out_channels=st.integers(1, 64), k=st.sampled_from([1, 3, 5, 15]))
    def test_conv_backward(self, case, out_channels, k):
        batch, channels, length, seed, strided = case
        layer = make_conv(channels, out_channels, k, seed)
        gen = np.random.default_rng(seed + 2)
        x = gen.standard_normal((batch, channels, length))
        grad = gen.standard_normal((batch, out_channels, length))
        view = channel_major_view if strided else np.ascontiguousarray
        want_dx, want_dw = conv_backward_oracle(x, layer.weight, grad)
        layer.forward(view(x), training=True)
        got_dx = layer.backward(view(grad))
        assert is_channel_major(got_dx)
        w_abs, g_abs = np.abs(layer.weight), np.abs(grad)
        assert_close(got_dx, want_dx, w_abs.sum(axis=(0, 2)).max() * g_abs.max())
        assert_close(layer.grads["weight"], want_dw, g_abs.sum(axis=(0, 2)).max() * np.abs(x).max())
        assert layer.grads.keys() == {"weight"}  # the batch norm after a conv cancels its bias


def conv_oracle(rows, weight, length):
    """Each tap's GEMM on a zero-padded copy of flat (channels, batch * length)
    rows, added in tap order into (out_channels, batch * length)."""
    out_ch, in_ch, k = weight.shape
    p = (k - 1) // 2
    padded = np.pad(rows.reshape(in_ch, -1, length), ((0, 0), (0, 0), (p, p)))
    out = np.zeros((out_ch, rows.shape[1]))
    for j in range(k):
        out += weight[:, :, j] @ padded[:, :, j:j + length].reshape(in_ch, -1)
    return out


# k up to 5 on lengths 1-9, so a side tap's shift |j - p| reaches and passes the length
shifted_gemm_cases = st.tuples(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 9), st.sampled_from([1, 3, 5]),
    st.integers(0, 2**16),
)


class TestShiftedGemmConv:
    """``_conv``, the one routine behind the forward and the input
    gradient, and the conv backward's per-tap weight gradient."""

    @given(case=shifted_gemm_cases)
    def test_matches_the_zero_padded_oracle_exactly(self, case):
        # small integers make every sum exact, so any tap or column order agrees bit for bit
        in_ch, out_ch, batch, length, k, seed = case
        gen = np.random.default_rng(seed)
        rows = gen.integers(-8, 9, (in_ch, batch * length)).astype(np.float64)
        weight = gen.integers(-8, 9, (out_ch, in_ch, k)).astype(np.float64)
        assert np.array_equal(nn._conv(rows, weight, length), conv_oracle(rows, weight, length))

    @given(case=shifted_gemm_cases)
    def test_backward_matches_the_zero_padded_oracle_exactly(self, case):
        in_ch, out_ch, batch, length, k, seed = case
        gen = np.random.default_rng(seed)
        layer = nn.Conv1D(gen.integers(-8, 9, (out_ch, in_ch, k)).astype(np.float64), np.zeros(out_ch))
        x = gen.integers(-8, 9, (batch, in_ch, length)).astype(np.float64)
        grad = gen.integers(-8, 9, (batch, out_ch, length)).astype(np.float64)
        want_dx, want_dw = conv_backward_oracle(x, layer.weight, grad)
        layer.forward(x, training=True)
        assert np.array_equal(layer.backward(grad), want_dx)
        assert np.array_equal(layer.grads["weight"], want_dw)

    @given(case=shifted_gemm_cases)
    def test_flipped_transposed_kernel_is_the_adjoint(self, case):
        # <conv(x, W), Y> = <x, conv(Y, W')>, within 1e-12 of the sum of |terms|
        in_ch, out_ch, batch, length, k, seed = case
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((in_ch, batch * length))
        weight = gen.standard_normal((out_ch, in_ch, k))
        y = gen.standard_normal((out_ch, batch * length))
        flipped = weight[:, :, ::-1].transpose(1, 0, 2)
        terms = np.vdot(nn._conv(np.abs(x), np.abs(weight), length), np.abs(y))
        assert abs(np.vdot(nn._conv(x, weight, length), y) - np.vdot(x, nn._conv(y, flipped, length))) <= 1e-12 * terms

    def test_forward_needs_one_output_of_scratch(self, rng):
        # the output and one reused block of side-tap scratch, not a second
        # output; an im2col matrix alone is 3 * x.nbytes
        layer = nn.Conv1D(he_uniform(rng, 64, 64, 3), np.zeros(64))
        x = channel_major_view(rng.standard_normal((32, 64, 280)))
        tracemalloc.start()
        try:
            layer.forward(x, training=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + nn.SCRATCH_BYTES + 2**20

    def test_narrow_conv_forward_needs_its_output_and_tap_stack(self, rng):
        # the preset's 1 -> 64 conv: one GEMM over its 3-row tap stack, no side-tap scratch
        layer = nn.Conv1D(he_uniform(rng, 64, 1, 3), np.zeros(64))
        x = rng.standard_normal((32, 1, 280))
        tracemalloc.start()
        try:
            layer.forward(x, training=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * x.nbytes + 3 * x.nbytes + 2**20

    @pytest.mark.parametrize("in_ch, out_ch, k", [(1, 3, 3), (2, 6, 3), (1, 5, 5), (1, 64, 3)])
    def test_a_stack_no_larger_than_the_output_is_one_gemm(self, rng, in_ch, out_ch, k):
        # c·k <= o, the boundary included: bit-equal to one GEMM over the zero-padded tap stack
        rows, weight = rng.standard_normal((in_ch, 6 * 40)), rng.standard_normal((out_ch, in_ch, k))
        p = k // 2
        padded = np.pad(rows.reshape(in_ch, 6, 40), ((0, 0), (0, 0), (p, p)))
        stack = np.stack([padded[:, :, j:j + 40] for j in range(k)], axis=1).reshape(in_ch * k, -1)
        assert np.array_equal(nn._conv(rows, weight, 40), weight.reshape(out_ch, -1) @ stack)

    def test_narrow_conv_of_zero_length_samples_is_empty(self):
        # no sample count can be read off zero columns, so the tap path takes it
        assert nn._conv(np.zeros((1, 0)), np.ones((4, 1, 3)), 0).shape == (4, 0)

    def test_preset_first_conv_matches_the_zero_padded_oracle_exactly(self, rng):
        # 1 -> 64, k = 3 takes the tap-stack GEMM forward and the shifted-GEMM input gradient
        layer = nn.Conv1D(rng.integers(-8, 9, (64, 1, 3)).astype(np.float64), np.zeros(64))
        x = rng.integers(-8, 9, (8, 1, 280)).astype(np.float64)
        grad = rng.integers(-8, 9, (8, 64, 280)).astype(np.float64)
        want_out = conv_oracle(x.transpose(1, 0, 2).reshape(1, -1), layer.weight, 280)
        want_dx, want_dw = conv_backward_oracle(x, layer.weight, grad)
        out = layer.forward(x, training=True)
        assert np.array_equal(out, want_out.reshape(64, 8, 280).transpose(1, 0, 2))
        assert np.array_equal(layer.backward(grad), want_dx)
        assert np.array_equal(layer.grads["weight"], want_dw)

    def test_backward_needs_one_input_of_scratch(self, rng):
        # one reused block of side-tap scratch, not an input's worth; the
        # input gradient is written over the kept input
        layer = nn.Conv1D(he_uniform(rng, 64, 64, 3), np.zeros(64))
        x = rng.standard_normal((32, 64, 280))
        layer.forward(x, training=True)
        grad = channel_major_view(rng.standard_normal((32, 64, 280)))
        tracemalloc.start()
        try:
            layer.backward(grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= nn.SCRATCH_BYTES + 2**20


class TestChannelMajorLayout:
    """Layers store activations channel-major but must not care how their
    (batch, channels, length) input is laid out."""

    def layers(self, seed):
        gen = np.random.default_rng(seed)
        bn = nn.BatchNorm1D(gen.uniform(0.5, 2.0, 3), gen.standard_normal(3),
                            gen.standard_normal(3), gen.uniform(0.5, 2.0, 3))
        return [make_conv(3, 3, 3, seed), make_conv(3, 3, 5, seed + 1), bn, nn.ReLU()]

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("training", [False, True])
    def test_forward_and_backward_ignore_input_strides(self, rng, index, training):
        x = rng.standard_normal((4, 3, 9))
        grad = rng.standard_normal((4, 3, 9))
        plain, strided = self.layers(3)[index], self.layers(3)[index]
        out_strided = strided.forward(channel_major_view(x), training=training)
        out_plain = plain.forward(x, training=training)  # the ReLU writes over x
        assert np.array_equal(out_plain, out_strided)
        assert is_channel_major(out_strided)
        if training:
            back_plain = plain.backward(grad)
            back_strided = strided.backward(channel_major_view(grad))
            assert np.array_equal(back_plain, back_strided)
            assert is_channel_major(back_strided)
            for name, g in plain.grads.items():
                assert np.array_equal(g, strided.grads[name])

    def test_pool_ignores_input_strides(self, rng):
        x = rng.standard_normal((4, 3, 9))
        pool = nn.GlobalAvgPool1D()
        assert np.array_equal(pool.forward(x), pool.forward(channel_major_view(x)))

    def test_contiguous_channel_major_input_is_not_copied(self, rng):
        x = channel_major_view(rng.standard_normal((2, 3, 5)))
        assert np.shares_memory(nn._channel_major(x), x)


def random_network(seed, in_ch, width, blocks, k):
    """Conv/BN/ReLU blocks with random affine parameters and running statistics."""
    gen = np.random.default_rng(seed)
    layers = []
    ch = in_ch
    for i in range(blocks):
        conv = make_conv(ch, width, k, seed=seed + i)
        bn = nn.BatchNorm1D(gen.uniform(-2.0, 2.0, width), gen.standard_normal(width),
                            gen.standard_normal(width), gen.uniform(0.05, 4.0, width))
        layers += [conv, bn, nn.ReLU()]
        ch = width
    layers += [nn.GlobalAvgPool1D(), nn.Linear(he_uniform(gen, 4, width), np.zeros(4))]
    return nn.Network(layers)


def folded_convs(net):
    return [layer for layer in net.layers if isinstance(layer, nn.Conv1D)]


network_shapes = st.tuples(
    st.integers(0, 2**16), st.integers(1, 3), st.integers(1, 6), st.integers(1, 3), st.sampled_from([1, 3, 5]),
)


class TestFrozen:
    @given(shape=network_shapes, batch=st.integers(1, 4), length=st.integers(1, 20))
    def test_folded_forward_matches_batchnorm_inference(self, shape, batch, length):
        net = random_network(*shape)
        x = np.random.default_rng(shape[0]).standard_normal((batch, shape[1], length))
        want = net.forward(x, training=False)
        got = net.frozen().forward(x)
        assert np.abs(got - want).max() <= 1e-9
        assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))

    @given(shape=network_shapes)
    def test_copy_drops_batchnorm_and_leaves_source_untouched(self, shape):
        net = random_network(*shape)
        before = [
            {k: v.copy() for k, v in vars(layer).items() if isinstance(v, np.ndarray)}
            for layer in net.layers
        ]
        frozen = net.frozen()
        assert not any(isinstance(layer, nn.BatchNorm1D) for layer in frozen.layers)
        assert len(frozen.layers) == len(net.layers) - shape[3]
        assert frozen.layers[-1] is net.layers[-1]  # unfolded layers are reused, not copied
        for layer, arrays in zip(net.layers, before):
            for name, arr in arrays.items():
                assert np.array_equal(getattr(layer, name), arr), name
        theirs = [getattr(layer, name) for layer in net.layers for name in layer.arrays]
        for conv in folded_convs(frozen):
            for arr in theirs:
                assert not np.shares_memory(conv.weight, arr)
                assert not np.shares_memory(conv.bias, arr)

    def test_training_the_source_leaves_the_folded_convs_unchanged(self, rng):
        net = random_network(5, 2, 4, 2, 3)
        x = rng.standard_normal((6, 2, 12))
        frozen = net.frozen()
        before = [(conv.weight.copy(), conv.bias.copy()) for conv in folded_convs(frozen)]
        nn.backward(net, x, np.arange(6) % 4)
        nn.MomentumSGD(net, learning_rate=0.5).step()
        assert not np.array_equal(net.frozen().forward(x), frozen.forward(x))
        assert len(before) == 2
        for conv, (weight, bias) in zip(folded_convs(frozen), before):
            assert np.array_equal(conv.weight, weight) and np.array_equal(conv.bias, bias)

    def test_folded_probabilities_match_the_inference_forward(self, rng):
        net = random_network(9, 1, 5, 3, 3)
        x = rng.standard_normal((3, 1, 30))
        assert np.abs(nn.softmax(net.frozen().forward(x)) - nn.softmax(net.forward(x))).max() <= 1e-12


# preset-shaped: one input channel, kernel 3, up to the preset's three blocks
preset_shapes = st.tuples(st.integers(0, 2**16), st.integers(1, 6), st.integers(1, 3))


class TestCallerArrays:
    """Layers write over the buffers their network pass made, never over
    the caller's, and every buffer they read is fully written first."""

    @given(shape=preset_shapes, batch=st.integers(1, 5), length=st.integers(1, 20))
    def test_untouched_and_grads_repeat_bit_for_bit(self, shape, batch, length):
        seed, width, blocks = shape
        net = random_network(seed, 1, width, blocks, 3)
        first, second = copy.deepcopy(net), copy.deepcopy(net)
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((batch, 1, length))
        targets = gen.integers(0, 4, batch)
        kept_x, kept_targets = x.copy(), targets.copy()
        loss_a, probs_a = nn.backward(first, x, targets)
        loss_b, probs_b = nn.backward(second, x, targets)
        assert loss_a == loss_b and np.array_equal(probs_a, probs_b)
        for a, b in zip(first.layers, second.layers):
            assert a.grads.keys() == b.grads.keys()
            for name, g in a.grads.items():
                assert np.array_equal(g, b.grads[name]), name
        net.forward(x, training=True)
        net.forward(x)
        net.frozen().forward(x)
        assert np.array_equal(x, kept_x) and np.array_equal(targets, kept_targets)


class TestTrainingStep:
    """``backward`` drops each conv's kept input that is the ReLU of a batch
    norm's output and rebuilds it before the conv's backward; the step must
    equal, bit for bit, the one that keeps every input, in less memory."""

    @staticmethod
    def assert_same_step(net, x, targets):
        reference = copy.deepcopy(net)
        loss, probs = nn.backward(net, x, targets)
        want_loss, want_probs = reference_step(reference, x, targets)
        assert loss == want_loss and np.array_equal(probs, want_probs)
        for got, want in zip(net.layers, reference.layers):
            assert got.grads.keys() == want.grads.keys()
            for name, g in want.grads.items():
                assert np.array_equal(got.grads[name], g), name
            for name in want.arrays:  # the running statistics moved alike
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**16), batch=st.integers(1, 32))
    def test_a_preset_step_equals_the_step_that_keeps_every_input(self, seed, batch):
        gen = np.random.default_rng(seed)
        net = build_network(TorqueNetConfig(seed=seed))
        for layer in net.layers:
            if isinstance(layer, nn.BatchNorm1D):  # trained-like, so the rebuild's affine shows
                layer.gamma[...], layer.beta[...] = gen.uniform(-2.0, 2.0, 64), gen.standard_normal(64)
        x = gen.standard_normal((batch, 1, 280))
        self.assert_same_step(net, x, gen.integers(0, 6, batch))

    @given(shape=network_shapes, batch=st.integers(1, 5), length=st.integers(1, 20))
    def test_any_block_stack_step_equals_the_step_that_keeps_every_input(self, shape, batch, length):
        net = random_network(*shape)
        gen = np.random.default_rng(shape[0])
        x = gen.standard_normal((batch, shape[1], length))
        self.assert_same_step(net, x, gen.integers(0, 4, batch))

    def test_a_preset_step_at_batch_32_peaks_at_four_activations(self, rng):
        # conv 3's backward: batch norm 1's and 2's centred rows, the gradient and
        # the rebuilt input it writes dx over, plus the block scratch and the
        # ReLU masks; keeping both ReLU outputs made it six activations
        net = build_network()
        x, targets = rng.standard_normal((32, 1, 280)), rng.integers(0, 6, 32)
        nn.backward(net, x, targets)  # the gradients the measured step replaces
        tracemalloc.start()
        try:
            nn.backward(net, x, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        activation = 64 * 32 * 280 * 8  # one (64, B·L) float64 buffer, 4.59 MB
        masks = 3 * activation // 8  # three (64, B·L) boolean masks
        assert peak <= 4 * activation + nn.SCRATCH_BYTES + masks + 2**20

"""From-scratch 1D conv-net primitives with explicit forward and backward.

Everything is float64 numpy. There is no autograd graph: each layer class
implements its own adjoint and caches whatever the backward pass needs
during a training-mode forward. Convolutions use same padding and stride 1
so the temporal axis is preserved end to end.

Layout: at every layer boundary a tensor has the logical shape
(batch, channels, length), and (batch, features) after pooling. In memory
the activations are channel-major: a layer computes into a contiguous
(channels, batch, length) buffer and returns its ``transpose(1, 0, 2)``
view, and the next layer recovers that buffer without a copy. So the
batch-norm reductions and the conv products run on contiguous
(channels, batch * length) rows, while callers index samples as usual.
A conv product is one GEMM per tap on the flat (c, B·L) rows, with no
(c·k, B·L) tap matrix (Anderson et al., arXiv 1709.03395): ``_conv``
adds each side tap's GEMM, by blocks of whole samples in one scratch of
at most ``SCRATCH_BYTES``, into the output shifted by j - p, unless that
matrix is no larger than the output (c·k <= o: the preset's 1-channel
first conv), when it is one GEMM. The input gradient is ``_conv`` of the
flipped, transposed kernel; the weight gradient's tap j is one GEMM of
the shifted rows, less the few pairs that cross a sample boundary.

One rule: a layer writes its result over a same-shape buffer that its
own network pass made and no longer needs: ReLU's forward and backward
over their input, batch norm's over its input rows (centred in place)
and then those rows, the conv's and the pool's backward over the input
their forward kept. ``Network.forward`` and ``backward`` copy their
input, so no pass (but a lone layer may) writes over a caller's array.

What a training-mode forward keeps for backward, which consumes it, so a
second backward raises ``ValueError`` (but see ReLU):

- ``Conv1D``: its channel-major input, a reference, not a copy, whenever
  the input has that layout already (the ReLU output before a conv, or a
  one-channel batch); ``backward`` drops and rebuilds a batch norm's ReLU
  (Chen et al., arXiv 1604.06174): a preset step peaks at 4 activations.
- ``BatchNorm1D``: the centred rows and the per-channel ``1/std``.
- ``ReLU``: the mask of positive inputs, until the next forward: its
  backward writes only over the gradient, so a repeat is exact (freeing
  the mask there doubled a training epoch's page faults).
- ``GlobalAvgPool1D`` and ``Linear``: the input.

Reductions are row sums: a training-mode batch norm takes its mean,
variance and gradient sums as one sum or dot product per channel row,
and each conv tap is a GEMM over B·L columns or a block of samples. So
results agree with sums taken over each sample, or over all taps in one
GEMM (``Conv1D.gemm``), within 1e-12 relative, not bit for bit.

Each layer's ``backward`` leaves its parameter gradients in its ``grads``;
``backward(net, x, targets)`` returns (loss, probabilities) and
``MomentumSGD.step()`` reads the gradients there.

A layer's one constructor takes and checks its arrays and draws nothing
(``classifier.build_network`` draws the preset's); the batch norm and SGD
settings the preset fixes are the module constants below.

A conv's bias is not trained: the batch norm after each conv subtracts
the channel mean, which cancels any bias (Ioffe & Szegedy, arXiv
1502.03167, §3.2). It stays zero until ``Network.frozen()`` returns an
inference network with each batch norm folded into a new conv in place
of the conv before it, its shift in that conv's bias; the classifier
scores only through that network, so inference never runs the training
kernels.
"""
from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

LOG_CLAMP = 1e-12
BATCHNORM_EPSILON = 1e-5  # added to each variance before its square root
RUNNING_MOMENTUM = 0.1  # a training forward's weight in the running statistics
SGD_MOMENTUM = 0.9  # heavy-ball SGD's velocity decay
SCRATCH_BYTES = 2**21  # the most a conv's side-tap scratch holds, in whole samples


# ---------------------------------------------------------------------------
# functional ops
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis (max-subtracted before exp)."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax requires finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_loss(probabilities: np.ndarray, target: int) -> float:
    """-log p[target] with the probability clamped to >= 1e-12."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("cross_entropy_loss takes a single probability vector")
    if not 0 <= int(target) < probs.shape[0]:
        raise ValueError(f"target {target} out of range for {probs.shape[0]} classes")
    return float(-np.log(max(float(probs[int(target)]), LOG_CLAMP)))


def mean_cross_entropy(probabilities: np.ndarray, targets: np.ndarray) -> float:
    """Mean -log p[target] over a (batch, classes) probability matrix."""
    probs = np.asarray(probabilities, dtype=np.float64)
    idx = np.asarray(targets, dtype=np.int64)
    picked = np.clip(probs[np.arange(probs.shape[0]), idx], LOG_CLAMP, None)
    return float(-np.log(picked).mean())


def _channel_major(x: np.ndarray) -> np.ndarray:
    """The contiguous (channels, batch, length) buffer behind a logical
    (batch, channels, length) tensor; no copy when x already has it."""
    return np.ascontiguousarray(x.transpose(1, 0, 2))


def _tap_views(out_rows: np.ndarray, in_rows: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """The column slices of two flat (·, B·L) row blocks where output t meets input t + shift."""
    n = out_rows.shape[1]
    return out_rows[:, max(0, -shift):n - max(0, shift)], in_rows[:, max(0, shift):n - max(0, -shift)]


def _seams(view: np.ndarray, length: int, shift: int) -> np.ndarray:
    """The columns of a ``_tap_views`` slice whose partner lies in another
    sample: the last |shift| of each of its whole samples."""
    whole = (view.shape[1] + abs(shift)) // length - 1
    return view[:, :whole * length].reshape(view.shape[0], whole, length)[:, :, length - abs(shift):]


def _live_taps(k: int, length: int) -> range:
    """The taps j of a k-tap kernel whose shift j - k // 2 is shorter than
    a sample; a tap shifted by a whole sample or more reads only padding."""
    return range(max(0, k // 2 - length + 1), min(k, k // 2 + length))


def _conv(rows: np.ndarray, weight: np.ndarray, length: int, out: np.ndarray | None = None) -> np.ndarray:
    """The same-padded conv of flat channel-major (c, B·L) rows, samples
    ``length`` long, by an (o, c, k) kernel, into ``out`` if given: the
    (o, B·L) sum over taps j of ``weight[:, :, j] @ rows`` shifted by j - p.
    A tap stack no larger than the output is one GEMM; else, per block of
    whole samples (``SCRATCH_BYTES`` of scratch, or one sample), each side
    tap's GEMM has its columns across a sample boundary zeroed."""
    o, c, k = weight.shape
    p = k // 2
    if c * k <= o and length > 0:
        padded = np.pad(rows.reshape(c, -1, length), ((0, 0), (0, 0), (p, p)))
        stack = np.stack([padded[:, :, j:j + length] for j in range(k)], axis=1)
        return np.matmul(weight.reshape(o, -1), stack.reshape(c * k, -1), out=out)
    taps = np.ascontiguousarray(weight.transpose(2, 0, 1))
    out = np.empty((o, rows.shape[1])) if out is None else out
    n = rows.shape[1] // length if length else 0
    # the fewest blocks of whole samples, evenly sized, whose scratch fits in SCRATCH_BYTES
    blocks = -(-n // max(1, SCRATCH_BYTES // max(1, o * length * rows.itemsize)))
    scratch = np.empty((o, -(-n // max(1, blocks)) * length))
    for b in range(blocks):
        cols = slice(n * b // blocks * length, n * (b + 1) // blocks * length)
        block, into = rows[:, cols], np.matmul(taps[p], rows[:, cols], out=out[:, cols])
        for j in _live_taps(k, length):
            if j != p:
                dst, src = _tap_views(into, np.matmul(taps[j], block, out=scratch[:, :block.shape[1]]), j - p)
                _seams(src, length, j - p)[...] = 0.0
                dst += src
    return out


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class Layer:
    """Base of the layers. Each declares once its ``arrays``, in the order
    its constructor takes, checks and keeps them (not copied); ``trained``
    are the ones SGD updates, which ``params()`` returns. No layer draws
    its own initial values.

    ``grads`` maps each trained array to its gradient from the layer's
    last ``backward``, a new dict per call; it is empty before the first.
    """

    arrays: tuple[str, ...] = ()
    trained: tuple[str, ...] = ()
    grads: Mapping[str, np.ndarray] = MappingProxyType({})

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.trained}


class Conv1D(Layer):
    """1D convolution, kernel weights (out_channels, in_channels, k). Only
    the weight is trained; the bias is zero unless ``Network.frozen()``
    has folded a batch norm's shift into it."""

    arrays = ("weight", "bias")
    trained = ("weight",)
    _x: np.ndarray | None = None  # a training forward's channel-major input

    def __init__(self, weight: np.ndarray, bias: np.ndarray) -> None:
        if weight.ndim != 3 or bias.shape != weight.shape[:1]:
            raise ValueError(f"conv weight shape {weight.shape} and bias shape {bias.shape} disagree")
        if weight.shape[2] % 2 == 0:
            raise ValueError("same padding requires an odd kernel size >= 1")
        self.out_channels, self.in_channels, self.kernel_size = weight.shape
        self.weight, self.bias = weight, bias

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        xc = _channel_major(x)
        channels, batch, length = xc.shape
        if channels != self.in_channels:
            raise ValueError(f"conv input has {channels} channels, layer expects {self.in_channels}")
        out = _conv(xc.reshape(channels, -1), self.weight, length)
        out += self.bias[:, None]
        if training:
            self._x = xc
        return out.reshape(self.out_channels, batch, length).transpose(1, 0, 2)

    def gemm(self, cols: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``weight @ cols + bias`` for gathered tap columns, rows in
        (channel, tap) order as ``classify_windows``' plan builds them,
        written into ``out`` when one is given."""
        out = np.matmul(self.weight.reshape(self.out_channels, -1), cols, out=out)
        out += self.bias[:, None]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ValueError("backward called without a training forward")
        xc, self._x = self._x, None
        o, c, k = self.weight.shape
        length, p = xc.shape[2], k // 2
        g2, x2 = _channel_major(grad).reshape(o, -1), xc.reshape(c, -1)
        dw = np.zeros((o, c, k))
        for j in _live_taps(k, length):
            g, x = _tap_views(g2, x2, j - p)
            # one GEMM of the shifted rows, less the pairs that cross a seam
            dw[:, :, j] = g @ x.T - np.einsum("obs,cbs->oc", _seams(g, length, j - p), _seams(x, length, j - p))
        self.grads = {"weight": dw}
        _conv(g2, self.weight[:, :, ::-1].transpose(1, 0, 2), length, out=x2)  # dx over the dead input
        return xc.transpose(1, 0, 2)


class BatchNorm1D(Layer):
    """Per-channel batch norm with running statistics for inference."""

    arrays = ("gamma", "beta", "running_mean", "running_var")
    trained = ("gamma", "beta")
    # a training forward's centred rows and per-channel 1/std
    _centred: np.ndarray | None = None
    _inv_std: np.ndarray | None = None

    def __init__(
        self, gamma: np.ndarray, beta: np.ndarray, running_mean: np.ndarray, running_var: np.ndarray
    ) -> None:
        channels = gamma.size
        for name, arr in zip(self.arrays, (gamma, beta, running_mean, running_var)):
            if arr.shape != (channels,):
                raise ValueError(f"batchnorm {name} shape {arr.shape} != ({channels},)")
        if np.any(running_var < 0.0):
            raise ValueError("batchnorm running_var must be non-negative")
        self.channels = channels
        self.gamma, self.beta = gamma, beta
        self.running_mean, self.running_var = running_mean, running_var

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise ValueError(f"batchnorm expects (batch, {self.channels}, length), got {x.shape}")
        batch, channels, length = x.shape
        m = batch * length
        rows = _channel_major(x).reshape(channels, m)
        if training:
            if batch == 0:
                raise ValueError("batchnorm training forward requires a non-empty batch")
            mean = rows.sum(axis=1) / m
            centred = np.subtract(rows, mean[:, None], out=rows)
            var = np.einsum("ij,ij->i", centred, centred) / m  # biased, as normalized
            self.running_mean = (1.0 - RUNNING_MOMENTUM) * self.running_mean + RUNNING_MOMENTUM * mean
            self.running_var = (1.0 - RUNNING_MOMENTUM) * self.running_var + RUNNING_MOMENTUM * var
        else:
            centred = rows - self.running_mean[:, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + BATCHNORM_EPSILON)
        if training:
            self._centred, self._inv_std = centred, inv_std
        return self._affine(centred, inv_std).reshape(channels, batch, length).transpose(1, 0, 2)

    def _affine(self, centred: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
        """``gamma * x_hat + beta`` of centred rows, new: the output ``backward`` rebuilds."""
        out = centred * (self.gamma * inv_std)[:, None]
        out += self.beta[:, None]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._centred is None or self._inv_std is None:
            raise ValueError("backward called without a training forward")
        dx, inv_std, self._centred = self._centred, self._inv_std, None
        channels, m = dx.shape
        batch, length = grad.shape[0], grad.shape[2]
        g = _channel_major(grad).reshape(channels, m)
        sum_g = g.sum(axis=1)
        sum_gx = np.einsum("ij,ij->i", g, dx) * inv_std  # sum of g * x_hat
        self.grads = {"gamma": sum_gx, "beta": sum_g}
        # dx = gamma * inv_std * (g - mean(g) - x_hat * mean(g * x_hat))
        dx *= (-inv_std * sum_gx / m)[:, None]
        dx += g
        dx -= (sum_g / m)[:, None]
        dx *= (self.gamma * inv_std)[:, None]
        return dx.reshape(channels, batch, length).transpose(1, 0, 2)


class ReLU(Layer):
    """Elementwise; forward and backward write over the array they are
    given (in a network, a buffer that pass made) and so keep its strides."""

    _mask: np.ndarray | None = None  # a training forward's positive inputs

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0.0
        return np.maximum(x, 0.0, out=x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ValueError("backward called without a training forward")
        return np.multiply(grad, self._mask, out=grad)


class GlobalAvgPool1D(Layer):
    """Collapses (batch, channels, length) to (batch, channels) means.

    The means come back C-contiguous whatever the input strides, so the
    Linear GEMMs that follow see one operand layout and round alike."""

    _x: np.ndarray | None = None  # a training forward's input

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] == 0:
            raise ValueError("global_avg_pool requires length >= 1")
        if training:
            self._x = x
        return np.ascontiguousarray(x.mean(axis=-1))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ValueError("backward called without a training forward")
        dx, self._x = self._x, None
        dx[...] = (grad / dx.shape[-1])[:, :, None]
        return dx


class Linear(Layer):
    """Dense map (batch, in_features) -> (batch, out_features)."""

    arrays = trained = ("weight", "bias")
    _x: np.ndarray | None = None  # a training forward's input

    def __init__(self, weight: np.ndarray, bias: np.ndarray) -> None:
        if weight.ndim != 2 or bias.shape != weight.shape[:1]:
            raise ValueError(f"linear weight shape {weight.shape} and bias shape {bias.shape} disagree")
        self.out_features, self.in_features = weight.shape
        self.weight, self.bias = weight, bias

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"linear expects (batch, {self.in_features}), got {x.shape}")
        if training:
            self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ValueError("backward called without a training forward")
        x, self._x = self._x, None
        self.grads = {"weight": grad.T @ x, "bias": grad.sum(axis=0)}
        return grad @ self.weight


# ---------------------------------------------------------------------------
# network, gradients, optimizer
# ---------------------------------------------------------------------------

class Network:
    """A plain layer stack ending in class logits (softmax applied outside)."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.array(x, dtype=np.float64)  # a copy: layers may write over their input
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def frozen(self) -> "Network":
        """An inference network: each BatchNorm1D after a Conv1D is dropped,
        folded into a new conv in that conv's place. Its forward equals
        ``forward(x, training=False)`` up to rounding. The other layers are
        this network's own, which an inference forward does not write, so
        training this network later moves them in both."""
        layers: list[Layer] = []
        for layer in self.layers:
            prev = layers[-1] if layers else None
            if isinstance(layer, BatchNorm1D) and isinstance(prev, Conv1D):
                scale = layer.gamma / np.sqrt(layer.running_var + BATCHNORM_EPSILON)
                shift = (prev.bias - layer.running_mean) * scale + layer.beta
                layers[-1] = Conv1D(prev.weight * scale[:, None, None], shift)
            else:
                layers.append(layer)
        return Network(layers)


def backward(net: Network, x: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """One training step's worth of differentiation.

    Runs the training-mode forward, then backpropagates the mean cross-
    entropy into each layer's ``grads``; returns (loss, batch probabilities).
    A conv's input that is a batch norm's ReLU is dropped after its forward
    and rebuilt by that norm's ``_affine`` and ``max(., 0)`` for its backward.
    """
    out = np.array(x, dtype=np.float64)  # a copy, as Network.forward makes
    idx = np.asarray(targets, dtype=np.int64)
    if out.shape[0] != idx.shape[0]:
        raise ValueError("inputs and targets disagree on batch size")
    layers = net.layers  # each conv with a ReLU of a batch norm for input, by index, to that batch norm
    rebuilt = {i + 2: bn for i, (bn, relu, conv) in enumerate(zip(layers, layers[1:], layers[2:]))
               if isinstance(bn, BatchNorm1D) and isinstance(relu, ReLU) and isinstance(conv, Conv1D)}
    for i, layer in enumerate(layers):
        out = layer.forward(out, training=True)
        if i in rebuilt:
            layer._x = None
    probs = softmax(out)
    loss = mean_cross_entropy(probs, idx)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(idx.shape[0]), idx] = 1.0
    grad = (probs - one_hot) / idx.shape[0]
    for i in reversed(range(len(layers))):
        if (bn := rebuilt.get(i)) is not None:
            rows = bn._affine(bn._centred, bn._inv_std)
            layers[i]._x = np.maximum(rows, 0.0, out=rows).reshape(bn.channels, idx.shape[0], -1)
        grad = layers[i].backward(grad)
    return loss, probs


class MomentumSGD:
    """Heavy-ball SGD: each step sets ``v = SGD_MOMENTUM * v + grad`` and
    moves the array by ``-learning_rate * v``, from ``v = 0``."""

    def __init__(self, net: Network, learning_rate: float) -> None:
        if not 0.0 < learning_rate < np.inf:
            raise ValueError("learning rate must be positive and finite")
        self.net = net
        self.learning_rate = learning_rate
        self._velocity = [
            {name: np.zeros_like(arr) for name, arr in layer.params().items()}
            for layer in net.layers
        ]

    def step(self) -> None:
        """Move each trained array against the gradient that ``backward`` left in
        its layer's ``grads``; before any backward, raise ``ValueError``."""
        if any(set(layer.grads) != set(layer.trained) for layer in self.net.layers):
            raise ValueError("step needs the gradients of a backward pass first")
        for layer, vel in zip(self.net.layers, self._velocity):
            for name, g in layer.grads.items():
                vel[name] = SGD_MOMENTUM * vel[name] + g
                layer.params()[name] -= self.learning_rate * vel[name]

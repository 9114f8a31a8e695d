"""From-scratch 1D conv-net primitives with explicit forward and backward.

Everything is float64 numpy. There is no autograd graph: each layer class
implements its own adjoint and caches whatever the backward pass needs
during a training-mode forward. Convolutions use same padding and stride 1
so the temporal axis is preserved end to end.

Layout: at every layer boundary a tensor has the logical shape
(batch, channels, length), and (batch, features) after pooling. In memory
the activations are channel-major: a layer computes into a contiguous
(channels, batch, length) buffer and returns its ``transpose(1, 0, 2)``
view, and the next layer recovers that buffer without a copy. So the conv
im2col and GEMM and the batch-norm reductions run on contiguous
(channels, batch * length) rows, while callers index samples as usual.

What a training-mode forward keeps for backward:

- ``Conv1D``: its channel-major input, not the k-times-larger im2col
  matrix. This is a reference, not a copy, whenever the input already has
  that layout (the ReLU output before a conv, or a one-channel batch), so
  a caller must not modify a conv's input between forward and backward.
- ``BatchNorm1D``: the centred rows and the per-channel ``1/std``; its
  backward builds dx in the centred buffer and drops it.
- ``ReLU``: the boolean mask of positive inputs.
- ``GlobalAvgPool1D``: the length.
- ``Linear``: its input.

Training reductions are row sums: a training-mode batch norm takes its
mean, variance and gradient sums as one sum or dot product per channel
row, and the conv bias gradient is a row sum. The conv weight gradient
is one GEMM per tap over the flat rows shifted by the tap's offset, less
the pairs that the shift carries across a sample boundary. That rounds
differently from summing each sample over length and then the samples
in order, or from one im2col GEMM, so training results are not
bit-identical to those orders; they agree within 1e-12 relative.

``Network.frozen()`` returns an inference copy with each batch norm
folded into the conv before it; ``predict_proba`` runs that copy, so
inference never runs the training kernels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import json_object

NETWORK_FORMAT_VERSION = "tcnn-v1"
LOG_CLAMP = 1e-12


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


def _tap_span(shift: int, length: int) -> tuple[int, int]:
    """Output positions [lo, hi) whose tap source t + shift lies inside
    the signal; same padding supplies zeros everywhere else."""
    lo = min(length, max(0, -shift))
    return lo, max(lo, min(length, length - shift))


def _check_kernel(kernel_size: int) -> None:
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ValueError("same padding requires an odd kernel size >= 1")


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base of the layers. Each declares once what it holds:

    - ``kind``: its name in model files;
    - ``arrays``: its arrays, in ``from_params`` order; ``trained`` are
      the ones SGD updates, which ``params()`` returns;
    - ``scalars``: its constructor scalars, keywords of ``from_params``;
    - ``shapes``: the attributes its arrays fix, written to model files
      and checked against the arrays on load.

    ``from_params`` builds a layer on given arrays through ``_assign``,
    which checks them; the layer copy, ``params()`` and the model file
    form are derived from the declaration.
    """

    kind: str
    arrays: tuple[str, ...] = ()
    trained: tuple[str, ...] = ()
    scalars: tuple[str, ...] = ()
    shapes: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._assign()

    def _assign(self) -> None:
        self.grads: dict[str, np.ndarray] = {}

    @classmethod
    def from_params(cls, *arrays: np.ndarray, **scalars: Any) -> "Layer":
        """A layer holding these arrays (not copied); draws no random init."""
        layer = cls.__new__(cls)
        layer._assign(*arrays, **scalars)
        return layer

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.trained}

    def copy(self) -> "Layer":
        """A fresh layer with copies of this one's arrays and its scalars."""
        return self.from_params(
            *(getattr(self, name).copy() for name in self.arrays),
            **{name: getattr(self, name) for name in self.scalars},
        )


class Conv1D(Layer):
    """1D convolution, kernel weights (out_channels, in_channels, k)."""

    kind = "conv1d"
    arrays = trained = ("weight", "bias")
    shapes = ("in_channels", "out_channels", "kernel_size")
    _x: np.ndarray | None = None  # a training forward's channel-major input

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        rng: np.random.Generator | None = None,
    ) -> None:
        _check_kernel(kernel_size)
        rng = rng if rng is not None else np.random.default_rng()
        self._assign(
            _he_uniform(rng, (out_channels, in_channels, kernel_size), in_channels * kernel_size),
            np.zeros(out_channels),
        )

    def _assign(self, weight: np.ndarray, bias: np.ndarray) -> None:
        if weight.ndim != 3 or bias.shape != weight.shape[:1]:
            raise ValueError(f"conv weight shape {weight.shape} and bias shape {bias.shape} disagree")
        _check_kernel(weight.shape[2])
        self.out_channels, self.in_channels, self.kernel_size = weight.shape
        self.weight = weight
        self.bias = bias
        self.grads = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        xc = _channel_major(x)
        channels, batch, length = xc.shape
        if channels != self.in_channels:
            raise ValueError(f"conv input has {channels} channels, layer expects {self.in_channels}")
        k, p = self.kernel_size, (self.kernel_size - 1) // 2
        # im2col rows in (channel, tap) order, matching weight.reshape(out, in*k);
        # tap j of output position t reads input position t + j - p
        cols = np.empty((channels, k, batch, length))
        for j in range(k):
            lo, hi = _tap_span(j - p, length)
            cols[:, j, :, :lo] = 0.0
            cols[:, j, :, hi:] = 0.0
            cols[:, j, :, lo:hi] = xc[:, :, lo + j - p:hi + j - p]
        cols = cols.reshape(channels * k, batch * length)
        out = self.weight.reshape(self.out_channels, channels * k) @ cols
        out += self.bias[:, None]
        if training:
            self._x = xc
        return out.reshape(self.out_channels, batch, length).transpose(1, 0, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ValueError("backward called without a training forward")
        o, c, k = self.weight.shape
        p = (k - 1) // 2
        batch, length = grad.shape[0], grad.shape[2]
        n = batch * length
        x, g = self._x, _channel_major(grad)
        x2, g2 = x.reshape(c, n), g.reshape(o, n)
        # tap j pairs output t with input t + s: one GEMM over the flat rows
        # shifted by s, minus the |s| pairs per sample where the flat shift
        # runs from one sample's edge into its neighbour
        dw = np.zeros((o, c, k))
        for j in range(k):
            s = j - p
            lo, hi = _tap_span(s, length)
            if lo == hi:
                continue
            tap = g2[:, lo:n - length + hi] @ x2[:, lo + s:n - length + hi + s].T
            if s > 0:
                tap -= g[:, :-1, hi:].reshape(o, -1) @ x[:, 1:, :s].reshape(c, -1).T
            elif s < 0:
                tap -= g[:, 1:, :lo].reshape(o, -1) @ x[:, :-1, length + s:].reshape(c, -1).T
            dw[:, :, j] = tap
        self.grads["weight"] = dw
        self.grads["bias"] = g2.sum(axis=1)
        dcols = (self.weight.reshape(o, c * k).T @ g2).reshape(c, k, batch, length)
        # col2im: scatter each tap's slab back to the input positions it read;
        # the centre tap reads every position, so it seeds dx
        dx = dcols[:, p].copy()
        for j in (*range(p), *range(p + 1, k)):
            lo, hi = _tap_span(j - p, length)
            dx[:, :, lo + j - p:hi + j - p] += dcols[:, j, :, lo:hi]
        return dx.transpose(1, 0, 2)


class BatchNorm1D(Layer):
    """Per-channel batch norm with running statistics for inference."""

    kind = "batchnorm1d"
    arrays = ("gamma", "beta", "running_mean", "running_var")
    trained = ("gamma", "beta")
    scalars = ("epsilon", "momentum")
    shapes = ("channels",)
    # a training forward's centred rows and per-channel 1/std
    _centred: np.ndarray | None = None
    _inv_std: np.ndarray | None = None

    def __init__(self, channels: int, epsilon: float = 1e-5, momentum: float = 0.1) -> None:
        self._assign(np.ones(channels), np.zeros(channels), np.zeros(channels), np.ones(channels),
                     epsilon, momentum)

    def _assign(
        self,
        gamma: np.ndarray,
        beta: np.ndarray,
        running_mean: np.ndarray,
        running_var: np.ndarray,
        epsilon: float = 1e-5,
        momentum: float = 0.1,
    ) -> None:
        if not 0.0 < epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 <= momentum <= 1.0:
            raise ValueError("momentum must be finite and lie in [0, 1]")
        channels = gamma.size
        for name, arr in zip(self.arrays, (gamma, beta, running_mean, running_var)):
            if arr.shape != (channels,):
                raise ValueError(f"batchnorm {name} shape {arr.shape} != ({channels},)")
        if np.any(running_var < 0.0):
            raise ValueError("batchnorm running_var must be non-negative")
        self.channels = channels
        self.epsilon = epsilon
        self.momentum = momentum
        self.gamma, self.beta = gamma, beta
        self.running_mean, self.running_var = running_mean, running_var
        self.grads = {}

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
            centred = rows - mean[:, None]
            var = np.einsum("ij,ij->i", centred, centred) / m  # biased, as normalized
            self.running_mean = (1.0 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1.0 - self.momentum) * self.running_var + self.momentum * var
        else:
            centred = rows - self.running_mean[:, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        if training:
            self._centred, self._inv_std = centred, inv_std
        out = centred * (self.gamma * inv_std)[:, None]
        out += self.beta[:, None]
        return out.reshape(channels, batch, length).transpose(1, 0, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._centred is None or self._inv_std is None:
            raise ValueError("backward called without a training forward")
        # the centred rows are not needed again, so dx is built in their buffer
        dx, inv_std = self._centred, self._inv_std
        self._centred = None
        channels, m = dx.shape
        batch, length = grad.shape[0], grad.shape[2]
        g = _channel_major(grad).reshape(channels, m)
        sum_g = g.sum(axis=1)
        sum_gx = np.einsum("ij,ij->i", g, dx) * inv_std  # sum of g * x_hat
        self.grads["gamma"] = sum_gx
        self.grads["beta"] = sum_g
        # dx = gamma * inv_std * (g - mean(g) - x_hat * mean(g * x_hat))
        dx *= (-inv_std * sum_gx / m)[:, None]
        dx += g
        dx -= (sum_g / m)[:, None]
        dx *= (self.gamma * inv_std)[:, None]
        return dx.reshape(channels, batch, length).transpose(1, 0, 2)


class ReLU(Layer):
    """Elementwise, so the output keeps the input's (channel-major) strides."""

    kind = "relu"
    _mask: np.ndarray | None = None  # a training forward's positive inputs

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0.0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ValueError("backward called without a training forward")
        return grad * self._mask


class GlobalAvgPool1D(Layer):
    """Collapses (batch, channels, length) to (batch, channels) means.

    The means come back C-contiguous whatever the input strides, so the
    Linear GEMMs that follow see one operand layout and round alike."""

    kind = "global_avg_pool"
    _length: int | None = None  # a training forward's length

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] == 0:
            raise ValueError("global_avg_pool requires length >= 1")
        if training:
            self._length = x.shape[-1]
        return np.ascontiguousarray(x.mean(axis=-1))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._length is None:
            raise ValueError("backward called without a training forward")
        spread = (grad / self._length)[:, :, None]
        return np.broadcast_to(spread, (*grad.shape, self._length))


class Linear(Layer):
    """Dense map (batch, in_features) -> (batch, out_features)."""

    kind = "linear"
    arrays = trained = ("weight", "bias")
    shapes = ("in_features", "out_features")
    _x: np.ndarray | None = None  # a training forward's input

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None) -> None:
        rng = rng if rng is not None else np.random.default_rng()
        self._assign(_he_uniform(rng, (out_features, in_features), in_features), np.zeros(out_features))

    def _assign(self, weight: np.ndarray, bias: np.ndarray) -> None:
        if weight.ndim != 2 or bias.shape != weight.shape[:1]:
            raise ValueError(f"linear weight shape {weight.shape} and bias shape {bias.shape} disagree")
        self.out_features, self.in_features = weight.shape
        self.weight = weight
        self.bias = bias
        self.grads = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"linear expects (batch, {self.in_features}), got {x.shape}")
        if training:
            self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise ValueError("backward called without a training forward")
        self.grads["weight"] = grad.T @ self._x
        self.grads["bias"] = grad.sum(axis=0)
        return grad @ self.weight


LAYER_KINDS: dict[str, type[Layer]] = {
    cls.kind: cls for cls in (Conv1D, BatchNorm1D, ReLU, GlobalAvgPool1D, Linear)
}


# ---------------------------------------------------------------------------
# network, gradients, optimizer
# ---------------------------------------------------------------------------

class Network:
    """A plain layer stack ending in class logits (softmax applied outside)."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.frozen().forward(x))

    def frozen(self) -> "Network":
        """An inference copy: every BatchNorm1D that follows a Conv1D is
        folded into that conv's weight and bias and dropped. Its forward
        equals ``forward(x, training=False)`` up to rounding. The copy
        shares no array with this network, which it leaves untouched."""
        layers: list[Layer] = []
        for layer in self.layers:
            prev = layers[-1] if layers else None
            if isinstance(layer, BatchNorm1D) and isinstance(prev, Conv1D):
                scale = layer.gamma / np.sqrt(layer.running_var + layer.epsilon)
                layers[-1] = Conv1D.from_params(
                    prev.weight * scale[:, None, None],
                    (prev.bias - layer.running_mean) * scale + layer.beta,
                )
            else:
                layers.append(layer.copy())
        return Network(layers)


@dataclass
class GradientTape:
    """Per-layer parameter gradients, shapes mirroring the layer params."""

    per_layer: list[dict[str, np.ndarray]]

    def validate_against(self, net: Network) -> None:
        if len(self.per_layer) != len(net.layers):
            raise ValueError("gradient tape does not match network depth")
        for layer, grads in zip(net.layers, self.per_layer):
            params = layer.params()
            if set(grads) != set(params):
                raise ValueError(f"gradient names {set(grads)} != params {set(params)}")
            for name, g in grads.items():
                if g.shape != params[name].shape:
                    raise ValueError(f"gradient shape {g.shape} != param shape {params[name].shape}")


def backward(net: Network, x: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray, GradientTape]:
    """One training step's worth of differentiation.

    Runs the training-mode forward, then backpropagates the mean
    cross-entropy; returns (loss, batch probabilities, gradient tape).
    """
    batch = np.asarray(x, dtype=np.float64)
    idx = np.asarray(targets, dtype=np.int64)
    if batch.shape[0] != idx.shape[0]:
        raise ValueError("inputs and targets disagree on batch size")
    logits = net.forward(batch, training=True)
    probs = softmax(logits)
    loss = mean_cross_entropy(probs, idx)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(idx.shape[0]), idx] = 1.0
    grad = (probs - one_hot) / idx.shape[0]
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
    tape = GradientTape([{k: v.copy() for k, v in layer.grads.items()} for layer in net.layers])
    return loss, probs, tape


class MomentumSGD:
    """Heavy-ball SGD; momentum 0 reduces to the plain step."""

    def __init__(self, net: Network, learning_rate: float, momentum: float = 0.9) -> None:
        if learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.net = net
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity = [
            {name: np.zeros_like(arr) for name, arr in layer.params().items()}
            for layer in net.layers
        ]

    def step(self, tape: GradientTape) -> None:
        tape.validate_against(self.net)
        for layer, grads, vel in zip(self.net.layers, tape.per_layer, self._velocity):
            for name, g in grads.items():
                vel[name] = self.momentum * vel[name] + g
                layer.params()[name] -= self.learning_rate * vel[name]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _array_doc(arr: np.ndarray) -> dict[str, Any]:
    return {"shape": list(arr.shape), "data": arr.ravel().tolist()}


def _array_from_doc(entry: dict[str, Any], name: str) -> np.ndarray:
    doc = entry[name]
    arr = np.asarray(doc["data"], dtype=np.float64).reshape(doc["shape"])
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{entry['kind']} {name} contains non-finite values")
    return arr


def network_to_json(net: Network) -> dict[str, Any]:
    """Each layer as its kind, shape attributes, scalars and arrays."""
    layers: list[dict[str, Any]] = []
    for layer in net.layers:
        entry: dict[str, Any] = {"kind": layer.kind}
        entry.update((name, getattr(layer, name)) for name in (*layer.shapes, *layer.scalars))
        entry.update((name, _array_doc(getattr(layer, name))) for name in layer.arrays)
        layers.append(entry)
    return {"version": NETWORK_FORMAT_VERSION, "layers": layers}


def network_from_json(doc: dict[str, Any]) -> Network:
    if json_object(doc).get("version") != NETWORK_FORMAT_VERSION:
        raise ValueError(f"unsupported network format {doc.get('version')!r}")
    layers: list[Layer] = []
    for entry in doc["layers"]:
        kind = entry["kind"]
        cls = LAYER_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"unknown layer kind {kind!r}")
        layer = cls.from_params(
            *(_array_from_doc(entry, name) for name in cls.arrays),
            **{name: entry[name] for name in cls.scalars},
        )
        for name in cls.shapes:
            if entry[name] != getattr(layer, name):
                raise ValueError(
                    f"{entry['kind']} declares {name}={entry[name]!r} but its parameter shapes "
                    f"give {getattr(layer, name)}"
                )
        layers.append(layer)
    return Network(layers)

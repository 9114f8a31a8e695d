"""From-scratch 1D conv-net primitives with explicit forward and backward.

Everything is float64 numpy. There is no autograd graph: each layer class
implements its own adjoint and caches whatever the backward pass needs
during a training-mode forward. Tensors are arrays shaped
(channels, length) for a single sample or (batch, channels, length) for a
batch; convolutions use same padding and stride 1 so the temporal axis is
preserved end to end.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

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


def _pad_same(x: np.ndarray, kernel_size: int) -> np.ndarray:
    p = (kernel_size - 1) // 2
    return np.pad(x, ((0, 0), (0, 0), (p, p)))


def _conv1d_batch(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # im2col with a single layout copy, then one GEMM; the copy order
    # (channel, tap, batch, time) matches weight.reshape(out, in*k)
    batch, channels, length = x.shape
    out_channels, in_channels, kernel_size = weight.shape
    if channels != in_channels:
        raise ValueError(f"conv input has {channels} channels, layer expects {in_channels}")
    xp = _pad_same(x, kernel_size)
    taps = np.lib.stride_tricks.sliding_window_view(xp, kernel_size, axis=2)  # (B, C, L, k)
    cols = np.ascontiguousarray(taps.transpose(1, 3, 0, 2)).reshape(
        channels * kernel_size, batch * length
    )
    out2 = weight.reshape(out_channels, channels * kernel_size) @ cols
    out2 += bias[:, None]
    out = np.ascontiguousarray(out2.reshape(out_channels, batch, length).transpose(1, 0, 2))
    return out, cols


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def _he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv1D:
    """1D convolution, kernel weights (out_channels, in_channels, k)."""

    kind = "conv1d"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        rng: np.random.Generator | None = None,
    ) -> None:
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ValueError("same padding requires an odd kernel size >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.weight = _he_uniform(
            rng, (out_channels, in_channels, kernel_size), in_channels * kernel_size
        )
        self.bias = np.zeros(out_channels)
        self.grads: dict[str, np.ndarray] = {}
        self._cols: np.ndarray | None = None

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out, cols = _conv1d_batch(x, self.weight, self.bias)
        if training:
            self._cols = cols
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None:
            raise ValueError("backward called without a training forward")
        o, c, k = self.weight.shape
        batch, length = grad.shape[0], grad.shape[2]
        p = (k - 1) // 2
        g2 = np.ascontiguousarray(grad.transpose(1, 0, 2)).reshape(o, batch * length)
        self.grads["weight"] = (g2 @ self._cols.T).reshape(o, c, k)
        self.grads["bias"] = grad.sum(axis=(0, 2))
        dcols = (self.weight.reshape(o, c * k).T @ g2).reshape(c, k, batch, length)
        dxp = np.zeros((batch, c, length + 2 * p))
        for j in range(k):
            dxp[:, :, j:j + length] += dcols[:, j].transpose(1, 0, 2)
        return dxp[:, :, p:p + length]


class BatchNorm1D:
    """Per-channel batch norm with running statistics for inference."""

    kind = "batchnorm1d"

    def __init__(self, channels: int, epsilon: float = 1e-5, momentum: float = 0.1) -> None:
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        self.channels = channels
        self.epsilon = epsilon
        self.momentum = momentum
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.grads: dict[str, np.ndarray] = {}
        self._x_hat: np.ndarray | None = None
        self._inv_std: np.ndarray | None = None

    def params(self) -> dict[str, np.ndarray]:
        return {"gamma": self.gamma, "beta": self.beta}

    def forward(self, x: np.ndarray, training: bool = False, update_running: bool = True) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise ValueError(f"batchnorm expects (batch, {self.channels}, length), got {x.shape}")
        if training:
            if x.shape[0] == 0:
                raise ValueError("batchnorm training forward requires a non-empty batch")
            mean = x.mean(axis=(0, 2))
            var = x.var(axis=(0, 2))  # biased, matches the normalization path
            if update_running:
                self.running_mean = (1.0 - self.momentum) * self.running_mean + self.momentum * mean
                self.running_var = (1.0 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        x_hat = (x - mean[None, :, None]) * inv_std[None, :, None]
        if training:
            self._x_hat = x_hat
            self._inv_std = inv_std
        return self.gamma[None, :, None] * x_hat + self.beta[None, :, None]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x_hat is None or self._inv_std is None:
            raise ValueError("backward called without a training forward")
        x_hat, inv_std = self._x_hat, self._inv_std
        m = grad.shape[0] * grad.shape[2]
        sum_g = grad.sum(axis=(0, 2))
        sum_gx = (grad * x_hat).sum(axis=(0, 2))
        self.grads["gamma"] = sum_gx
        self.grads["beta"] = sum_g
        scale = self.gamma * inv_std
        return scale[None, :, None] * (
            grad - (sum_g / m)[None, :, None] - x_hat * (sum_gx / m)[None, :, None]
        )


class ReLU:
    kind = "relu"

    def __init__(self) -> None:
        self.grads: dict[str, np.ndarray] = {}
        self._mask: np.ndarray | None = None

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0.0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise ValueError("backward called without a training forward")
        return grad * self._mask


class GlobalAvgPool1D:
    """Collapses (batch, channels, length) to (batch, channels) means."""

    kind = "global_avg_pool"

    def __init__(self) -> None:
        self.grads: dict[str, np.ndarray] = {}
        self._length: int | None = None

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] == 0:
            raise ValueError("global_avg_pool requires length >= 1")
        if training:
            self._length = x.shape[-1]
        return x.mean(axis=-1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._length is None:
            raise ValueError("backward called without a training forward")
        spread = (grad / self._length)[:, :, None]
        return np.broadcast_to(spread, (*grad.shape, self._length))


class Linear:
    """Dense map (batch, in_features) -> (batch, out_features)."""

    kind = "linear"

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None) -> None:
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = _he_uniform(rng, (out_features, in_features), in_features)
        self.bias = np.zeros(out_features)
        self.grads: dict[str, np.ndarray] = {}
        self._x: np.ndarray | None = None

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

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


Layer = Conv1D | BatchNorm1D | ReLU | GlobalAvgPool1D | Linear


# ---------------------------------------------------------------------------
# network, gradients, optimizer
# ---------------------------------------------------------------------------

class Network:
    """A plain layer stack ending in class logits (softmax applied outside)."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False, update_running: bool = True) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            if isinstance(layer, BatchNorm1D):
                out = layer.forward(out, training, update_running)
            else:
                out = layer.forward(out, training)
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.forward(x, training=False))

    def parameters(self) -> list[tuple[int, str, np.ndarray]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                out.append((i, name, arr))
        return out


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


def backward(
    net: Network,
    x: np.ndarray,
    targets: np.ndarray,
    update_running: bool = True,
) -> tuple[float, np.ndarray, GradientTape]:
    """One training step's worth of differentiation.

    Runs the training-mode forward, then backpropagates the mean
    cross-entropy; returns (loss, batch probabilities, gradient tape).
    """
    batch = np.asarray(x, dtype=np.float64)
    idx = np.asarray(targets, dtype=np.int64)
    if batch.shape[0] != idx.shape[0]:
        raise ValueError("inputs and targets disagree on batch size")
    logits = net.forward(batch, training=True, update_running=update_running)
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


def _array_from_doc(doc: dict[str, Any]) -> np.ndarray:
    return np.asarray(doc["data"], dtype=np.float64).reshape(doc["shape"])


def network_to_json(net: Network) -> dict[str, Any]:
    layers: list[dict[str, Any]] = []
    for layer in net.layers:
        if isinstance(layer, Conv1D):
            layers.append({
                "kind": layer.kind,
                "in_channels": layer.in_channels,
                "out_channels": layer.out_channels,
                "kernel_size": layer.kernel_size,
                "weight": _array_doc(layer.weight),
                "bias": _array_doc(layer.bias),
            })
        elif isinstance(layer, BatchNorm1D):
            layers.append({
                "kind": layer.kind,
                "channels": layer.channels,
                "epsilon": layer.epsilon,
                "momentum": layer.momentum,
                "gamma": _array_doc(layer.gamma),
                "beta": _array_doc(layer.beta),
                "running_mean": _array_doc(layer.running_mean),
                "running_var": _array_doc(layer.running_var),
            })
        elif isinstance(layer, Linear):
            layers.append({
                "kind": layer.kind,
                "in_features": layer.in_features,
                "out_features": layer.out_features,
                "weight": _array_doc(layer.weight),
                "bias": _array_doc(layer.bias),
            })
        elif isinstance(layer, (ReLU, GlobalAvgPool1D)):
            layers.append({"kind": layer.kind})
        else:
            raise ValueError(f"cannot serialize layer {layer!r}")
    return {"version": NETWORK_FORMAT_VERSION, "layers": layers}


def network_from_json(doc: dict[str, Any]) -> Network:
    if doc.get("version") != NETWORK_FORMAT_VERSION:
        raise ValueError(f"unsupported network format {doc.get('version')!r}")
    layers: list[Layer] = []
    for entry in doc["layers"]:
        kind = entry["kind"]
        if kind == "conv1d":
            layer = Conv1D(entry["in_channels"], entry["out_channels"], entry["kernel_size"])
            layer.weight = _array_from_doc(entry["weight"])
            layer.bias = _array_from_doc(entry["bias"])
        elif kind == "batchnorm1d":
            layer = BatchNorm1D(entry["channels"], entry["epsilon"], entry["momentum"])
            layer.gamma = _array_from_doc(entry["gamma"])
            layer.beta = _array_from_doc(entry["beta"])
            layer.running_mean = _array_from_doc(entry["running_mean"])
            layer.running_var = _array_from_doc(entry["running_var"])
        elif kind == "linear":
            layer = Linear(entry["in_features"], entry["out_features"])
            layer.weight = _array_from_doc(entry["weight"])
            layer.bias = _array_from_doc(entry["bias"])
        elif kind == "relu":
            layer = ReLU()
        elif kind == "global_avg_pool":
            layer = GlobalAvgPool1D()
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
        layers.append(layer)
    return Network(layers)

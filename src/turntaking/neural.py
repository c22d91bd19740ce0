"""Minimal dense feed-forward networks with analytic backpropagation.

Small scalar-in/scalar-out perceptrons with tanh hidden layers and a sigmoid
output head, used to map traits to speaking scores and gaps to proclivity
values. Gradients are computed analytically and are verified against central
finite differences in the test suite. Networks are treated as values:
``apply_update`` returns a fresh network and never mutates its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

def sigmoid(z):
    """Logistic function, evaluated piecewise to stay finite for large |z|."""
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out[0]) if scalar else out


_ACTIVATIONS = {
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0).astype(float)),
}


@dataclass(frozen=True)
class DenseNet:
    """Fully connected layers; tanh (default) hidden units, sigmoid output."""

    weights: tuple  # weights[l] has shape (n_out, n_in)
    biases: tuple  # biases[l] has shape (n_out,)
    activation: str = "tanh"

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must pair up layer by layer")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {self.activation!r}")
        for W, b in zip(self.weights, self.biases):
            if W.shape[0] != b.shape[0]:
                raise ValueError("bias length must match the layer's output size")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError("parameters must be finite")

    @property
    def layer_sizes(self) -> tuple:
        return (self.weights[0].shape[1],) + tuple(W.shape[0] for W in self.weights)

    def forward(self, x) -> np.ndarray | float:
        """Evaluate the network; scalar in, scalar out, or batched over axis 0."""
        y = _forward_cached(self, x)[0]
        return y

    def __eq__(self, other):
        if not isinstance(other, DenseNet):
            return NotImplemented
        return (
            self.activation == other.activation
            and len(self.weights) == len(other.weights)
            and all(np.array_equal(a, b) for a, b in zip(self.weights, other.weights))
            and all(np.array_equal(a, b) for a, b in zip(self.biases, other.biases))
        )


@dataclass
class GradientSet:
    """Per-parameter gradients, shaped exactly like a DenseNet."""

    weights: list
    biases: list

    def norm(self) -> float:
        total = sum(float(np.sum(W * W)) for W in self.weights)
        total += sum(float(np.sum(b * b)) for b in self.biases)
        return float(np.sqrt(total))

    def scaled(self, factor: float) -> "GradientSet":
        return GradientSet(
            weights=[W * factor for W in self.weights],
            biases=[b * factor for b in self.biases],
        )

    def add(self, other: "GradientSet") -> None:
        for W, oW in zip(self.weights, other.weights):
            W += oW
        for b, ob in zip(self.biases, other.biases):
            b += ob

    @classmethod
    def zeros_like(cls, net: DenseNet) -> "GradientSet":
        return cls(
            weights=[np.zeros_like(W) for W in net.weights],
            biases=[np.zeros_like(b) for b in net.biases],
        )


def init_net(layer_sizes, seed, activation: str = "tanh") -> DenseNet:
    """Build a network with the given layer sizes, deterministically per seed.

    Hidden weights are zero-mean normal draws scaled by 1/sqrt(fan_in); the
    output layer starts at zero, as do all biases, so a fresh network returns
    sigmoid(0) = 0.5 for every input. Starting neutral keeps early training
    steps well-conditioned regardless of the input scale.
    """
    sizes = list(layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("layer_sizes needs at least [in, out] with positive sizes")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights = []
    biases = []
    last = len(sizes) - 2
    for l, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        if l == last:
            W = np.zeros((n_out, n_in))
        else:
            W = rng.normal(size=(n_out, n_in)) / np.sqrt(n_in)
        weights.append(W)
        biases.append(np.zeros(n_out))
    return DenseNet(weights=tuple(weights), biases=tuple(biases), activation=activation)


def _prepare_input(net: DenseNet, x):
    n_in = net.weights[0].shape[1]
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1, n_in)
    elif arr.ndim == 1:
        if n_in != 1:
            raise ValueError(f"expected inputs of width {n_in}")
        arr = arr.reshape(-1, 1)
    return arr, scalar


def _forward_cached(net: DenseNet, x):
    """Forward pass returning output plus the activations needed by backward."""
    a, scalar = _prepare_input(net, x)
    act, _ = _ACTIVATIONS[net.activation]
    pre = []
    acts = [a]
    last = len(net.weights) - 1
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ W.T + b
        a = sigmoid(z) if l == last else act(z)
        pre.append(z)
        acts.append(a)
    if not np.all(np.isfinite(a)):
        raise FloatingPointError("non-finite value in forward pass")
    out = a[:, 0] if a.shape[1] == 1 else a
    if scalar:
        out = float(out[0])
    return out, (pre, acts)


def backward(net: DenseNet, x, upstream) -> GradientSet:
    """Gradients of ``sum(upstream * net(x))`` w.r.t. every parameter.

    ``upstream`` carries d(loss)/d(output) per input row; the result is the
    exact chain-ruled loss gradient accumulated over the batch.
    """
    _, (pre, acts) = _forward_cached(net, x)
    up = np.asarray(upstream, dtype=float)
    B = acts[0].shape[0]
    out_dim = net.weights[-1].shape[0]
    up = up.reshape(B, out_dim)
    _, act_prime = _ACTIVATIONS[net.activation]

    y = acts[-1]
    dz = up * y * (1.0 - y)  # sigmoid head
    grads = GradientSet.zeros_like(net)
    for l in range(len(net.weights) - 1, -1, -1):
        grads.weights[l][...] = dz.T @ acts[l]
        grads.biases[l][...] = dz.sum(axis=0)
        if l > 0:
            da = dz @ net.weights[l]
            dz = da * act_prime(pre[l - 1], acts[l])
    return grads


def apply_update(net: DenseNet, grads: GradientSet, step: float) -> DenseNet:
    """One plain gradient-descent step; returns a new network.

    Raises FloatingPointError when the step leaves a parameter non-finite,
    so a diverging fit is told apart from invalid input.
    """
    if not np.isfinite(step):
        raise ValueError("step size must be finite")
    weights = tuple(W - step * dW for W, dW in zip(net.weights, grads.weights))
    biases = tuple(b - step * db for b, db in zip(net.biases, grads.biases))
    if not all(np.isfinite(p).all() for p in weights + biases):
        raise FloatingPointError("gradient step produced non-finite parameters")
    return DenseNet(weights=weights, biases=biases, activation=net.activation)


def clip_gradients(grad_sets: list, max_norm: float) -> list:
    """Jointly rescale a block of gradients so the global norm is bounded."""
    total = float(np.sqrt(sum(g.norm() ** 2 for g in grad_sets)))
    if total <= max_norm or total == 0.0:
        return grad_sets
    factor = max_norm / total
    return [g.scaled(factor) for g in grad_sets]

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
    """Logistic function, evaluated piecewise to stay finite for large |z|.

    Both branches use ``e = exp(-|z|)``, which never overflows: 1/(1+e) for
    z >= 0 and e/(1+e) below.
    """
    arr = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(arr))
    denom = 1.0 + e
    out = np.where(arr >= 0, 1.0 / denom, e / denom)
    return float(out) if arr.ndim == 0 else out


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
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")

    @property
    def layer_sizes(self) -> tuple:
        return (self.weights[0].shape[1],) + tuple(W.shape[0] for W in self.weights)

    def forward(self, x) -> np.ndarray | float:
        """Evaluate the network; scalar in, scalar out, or batched over axis 0."""
        return _forward_cached(self, x)[0]

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

    def map(self, fn, *others) -> "GradientSet":
        """``fn`` applied array by array to this set and ``others``, as a new set."""
        return GradientSet(
            weights=[fn(*arrays) for arrays in zip(self.weights, *(o.weights for o in others))],
            biases=[fn(*arrays) for arrays in zip(self.biases, *(o.biases for o in others))],
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
    if not np.isfinite(a).all():
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
    return _backward_cached(net, _forward_cached(net, x)[1], upstream)


def _backward_cached(net: DenseNet, cache, upstream) -> GradientSet:
    """``backward`` from the ``(pre, acts)`` a ``_forward_cached`` call kept.

    Lets a caller that already ran the forward pass on ``x`` differentiate
    without running it again.
    """
    pre, acts = cache
    up = np.asarray(upstream, dtype=float)
    B = acts[0].shape[0]
    out_dim = net.weights[-1].shape[0]
    up = up.reshape(B, out_dim)
    _, act_prime = _ACTIVATIONS[net.activation]

    y = acts[-1]
    dz = up * y * (1.0 - y)  # sigmoid head
    layers = len(net.weights)
    weights = [None] * layers
    biases = [None] * layers
    for l in range(layers - 1, -1, -1):
        weights[l] = dz.T @ acts[l]
        biases[l] = dz.sum(axis=0)
        if l > 0:
            da = dz @ net.weights[l]
            dz = da * act_prime(pre[l - 1], acts[l])
    return GradientSet(weights=weights, biases=biases)


def apply_update(net: DenseNet, direction: GradientSet, step: float) -> DenseNet:
    """Move every parameter by ``-step * direction``; returns a new network.

    Raises FloatingPointError when the step leaves a parameter non-finite,
    so a diverging fit is told apart from invalid input.
    """
    if not np.isfinite(step):
        raise ValueError("step size must be finite")
    weights = tuple(W - step * dW for W, dW in zip(net.weights, direction.weights))
    biases = tuple(b - step * db for b, db in zip(net.biases, direction.biases))
    if not all(np.isfinite(p).all() for p in weights + biases):
        raise FloatingPointError("gradient step produced non-finite parameters")
    return DenseNet(weights=weights, biases=biases, activation=net.activation)


def adam_step(net: DenseNet, grads: GradientSet, state, step: float):
    """One Adam step (Kingma & Ba, arXiv:1412.6980); returns ``(new_net, new_state)``.

    ``state`` is ``None`` at first, then the ``(t, m, v)`` the last call
    returned: step count and moment GradientSets. Nothing passed in is
    mutated. Folding the bias corrections into ``step`` and eps is exact.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8  # fixed, not settings
    t, m, v = state or (0, GradientSet.zeros_like(net), GradientSet.zeros_like(net))
    t += 1
    m = m.map(lambda old, g: b1 * old + (1.0 - b1) * g, grads)
    v = v.map(lambda old, g: b2 * old + (1.0 - b2) * (g * g), grads)
    root_c2 = np.sqrt(1.0 - b2**t)
    direction = m.map(lambda mi, vi: mi / (np.sqrt(vi) + eps * root_c2), v)
    return apply_update(net, direction, step * root_c2 / (1.0 - b1**t)), (t, m, v)

"""Minimal dense feed-forward networks with analytic backpropagation.

Small scalar-in/scalar-out perceptrons with tanh hidden layers (tanh is the
only hidden activation) and a sigmoid output head, used to map traits to
speaking scores and gaps to proclivity values. Gradients are computed
analytically and are verified against central finite differences in the test
suite. Networks are treated as values: each holds its parameters in one
read-only vector, and a gradient is a vector of the same layout;
``training.fit`` steps such vectors and builds new nets from them. Nets of one
layout also run as a stack: their vectors are the rows of one (K, P) array,
each layer's weights a (K, out, in) view, and one batched forward and backward
serve all K on a shared input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# The hidden layer widths of every net unless a caller names others: the score
# nets f and g and a fresh learned proclivity alike.
DEFAULT_HIDDEN = (16, 16)


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


def _views(flat: np.ndarray, shapes: tuple) -> tuple:
    """``(weights, biases)``: views of ``flat`` with the given shapes, in order.

    ``shapes`` lists every layer's weight shape, then every layer's bias shape.
    A (K, P) ``flat``, a stack of K nets, gives views with a leading K axis.
    """
    views, start, lead = [], 0, flat.shape[:-1]
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[..., start : start + size].reshape(lead + shape))
        start += size
    layers = len(shapes) // 2
    return tuple(views[:layers]), tuple(views[layers:])


@dataclass(frozen=True, eq=False)
class DenseNet:
    """Fully connected layers; tanh hidden units, sigmoid output.

    The layers chain from one input to one output: layer l maps n_l values
    to n_{l+1}, its weights shaped (n_{l+1}, n_l) and its biases (n_{l+1},),
    with n_0 = n_L = 1. A net of any other layout is a ValueError.

    The parameters live in one read-only vector, ``params``: every layer's
    weights, then every layer's biases. ``weights`` and ``biases`` are views
    of it, so a net is a value that nothing can change after construction.
    """

    weights: tuple  # weights[l] has shape (n_out, n_in)
    biases: tuple  # biases[l] has shape (n_out,)
    params: np.ndarray = field(init=False, repr=False)
    shapes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must pair up layer by layer")
        arrays = [np.asarray(a, dtype=float) for a in (*self.weights, *self.biases)]
        shapes, layers = tuple(a.shape for a in arrays), len(self.weights)
        sizes = [1, *(math.prod(shape) for shape in shapes[layers:])]
        if sizes[-1] != 1 or shapes != (*zip(sizes[1:], sizes), *((n,) for n in sizes[1:])):
            raise ValueError(f"layers of weights {list(shapes[:layers])} and biases "
                             f"{list(shapes[layers:])} do not chain 1 -> 1")
        params = np.concatenate([a.ravel() for a in arrays])
        if not np.isfinite(params).all():
            raise ValueError("parameters must be finite")
        self._hold(params, shapes)

    def _hold(self, params: np.ndarray, shapes: tuple) -> None:
        params.flags.writeable = False
        weights, biases = _views(params, shapes)
        for name, value in (("params", params), ("shapes", shapes),
                            ("weights", weights), ("biases", biases)):
            object.__setattr__(self, name, value)

    def _with_params(self, params: np.ndarray) -> "DenseNet":
        """A net of this layout holding ``params``, which the caller checked."""
        net = object.__new__(DenseNet)
        net._hold(params, self.shapes)
        return net

    def __eq__(self, other):
        if not isinstance(other, DenseNet):
            return NotImplemented
        return self.shapes == other.shapes and np.array_equal(self.params, other.params)


def init_net(hidden, seed) -> DenseNet:
    """Build a network of ``hidden`` layer widths, deterministically per seed.

    Every net maps one input to one output through at least one hidden layer
    of tanh units: its layer sizes are (1, *hidden, 1), all positive. Hidden
    weights are zero-mean normal draws scaled by 1/sqrt(fan_in); the output
    layer starts at zero, as do all biases, so a fresh network returns
    sigmoid(0) = 0.5 for every input. Starting neutral keeps early training
    steps well-conditioned regardless of the input scale.
    """
    if not hidden or any(s < 1 for s in hidden):
        raise ValueError(f"hidden needs at least one hidden layer and positive widths, "
                         f"got {tuple(hidden)}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights = [rng.normal(size=(n_out, n_in)) / np.sqrt(n_in)
               for n_in, n_out in zip((1, *hidden), hidden)]
    return DenseNet(weights=(*weights, np.zeros((1, hidden[-1]))),
                    biases=tuple(np.zeros(n) for n in (*hidden, 1)))


def _forward(net: DenseNet, x, params=None):
    """Forward pass returning output plus the activations ``_backward`` needs.

    ``x`` holds scalar inputs in an array of at least one axis, and the
    output has its shape: each activation appends its layer's width. ``params``
    runs the net's layout on other parameters: one vector, or a (K, P) stack
    whose K nets all see ``x``, and then the output and every activation after
    the input lead with K. A layer with one input runs as a broadcast product,
    not a K=1 matmul: each output is one product either way, so the bits are
    the same.
    """
    weights, biases = (net.weights, net.biases) if params is None else _views(params, net.shapes)
    a = np.asarray(x, dtype=float)[..., None]
    acts = [a]
    last = len(weights) - 1
    for l, (W, b) in enumerate(zip(weights, biases)):
        z = a * W[..., None, :, 0] if W.shape[-1] == 1 else np.matmul(a, W.swapaxes(-1, -2))
        z += b[..., None, :]
        a = sigmoid(z) if l == last else np.tanh(z)
        acts.append(a)
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite value in forward pass")
    return a[..., 0], acts


def _backward(net: DenseNet, acts, upstream, params=None) -> np.ndarray:
    """Gradients of ``sum(upstream * output)``, laid out as the parameters.

    Runs from the activations that ``_forward`` kept for the same
    ``params``, so a caller that ran the forward pass need not run it
    again; a stack of nets gets one row per net. The product back through a
    layer with one output is a broadcast product, as in ``_forward``.
    """
    params = net.params if params is None else params
    weights, _ = _views(params, net.shapes)
    y = acts[-1]
    dz = np.asarray(upstream, dtype=float).reshape(y.shape) * y * (1.0 - y)  # sigmoid head
    grads = np.empty(params.shape)
    grad_weights, grad_biases = _views(grads, net.shapes)
    for l in range(len(weights) - 1, -1, -1):
        np.matmul(dz.swapaxes(-1, -2), acts[l], out=grad_weights[l])
        np.add.reduce(dz, axis=-2, out=grad_biases[l])
        if l > 0:
            W = weights[l]
            da = dz * W[..., None, 0, :] if W.shape[-2] == 1 else np.matmul(dz, W)
            dz = da * (1.0 - acts[l] * acts[l])  # tanh' from tanh's output
    return grads


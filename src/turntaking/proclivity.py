"""Proclivity functions: how speaking inclination varies with the gap.

A proclivity maps the integer gap (turns since a member last spoke) to a
nonnegative inclination value. Every kind returns exactly zero for gaps
below 1, which covers both "just spoke" bookkeeping and the NEVER sentinel.
Fixed shapes (exponential decay, a shifted sigmoid plateau, zero) live next
to a learnable variant backed by a small network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import DenseNet, init_net, sigmoid

DEFAULT_DELTA_SCALE = 20.0
CURVE_DELTA_MIN = 2
CURVE_DELTA_MAX = 40
TRAIT_GRID_SIZE = 50


def _masked(gaps, values):
    gaps = np.asarray(gaps)
    return np.where(gaps >= 1, values, 0.0)


def w_exp(gaps):
    """Exponentially decaying proclivity exp(-gap/2); zero for gap < 1."""
    gaps = np.asarray(gaps, dtype=float)
    return _masked(gaps, np.exp(-gaps / 2.0))


def w_sig(gaps):
    """Sigmoid-plateau proclivity 0.95 * sigmoid(10 - gap/2); zero for gap < 1.

    Stays close to 0.95 for small gaps and only decays noticeably once
    roughly twenty turns have passed, which makes recency much harder to
    read off the data than an immediate exponential decay.
    """
    gaps = np.asarray(gaps, dtype=float)
    vals = 0.95 * np.asarray(sigmoid(10.0 - np.atleast_1d(gaps) / 2.0))
    return _masked(gaps, vals.reshape(gaps.shape))


class ExpDecayProclivity:
    """Fixed proclivity exp(-gap/2)."""

    name = "exp"

    def values(self, gaps) -> np.ndarray:
        return w_exp(gaps)

    def table(self, max_gap: int) -> np.ndarray:
        return self.values(np.arange(max_gap + 1))

    def __call__(self, gap: int) -> float:
        return float(self.values(np.asarray(gap)))


class SigmoidProclivity(ExpDecayProclivity):
    """Fixed proclivity 0.95 * sigmoid(10 - gap/2)."""

    name = "sigmoid"

    def values(self, gaps) -> np.ndarray:
        return w_sig(gaps)


class ZeroProclivity(ExpDecayProclivity):
    """No recency effect at all."""

    name = "zero"

    def values(self, gaps) -> np.ndarray:
        return np.zeros_like(np.asarray(gaps, dtype=float))


@dataclass(frozen=True)
class LearnedProclivity:
    """Proclivity represented by a network over the normalized gap.

    The raw gap is divided by ``delta_scale`` before entering the network so
    the plotted range of gaps maps onto the responsive part of the hidden
    units. Output lies in (0, 1); gaps below 1 are masked to exactly zero
    outside the network.
    """

    net: DenseNet
    delta_scale: float = DEFAULT_DELTA_SCALE

    name = "learned"

    def __post_init__(self):
        if not 0 < self.delta_scale < np.inf:
            raise ValueError(f"delta_scale must be positive and finite, got {self.delta_scale}")

    @classmethod
    def fresh(
        cls,
        seed,
        hidden=(16, 16),
        delta_scale: float = DEFAULT_DELTA_SCALE,
        activation: str = "tanh",
    ):
        return cls(net=init_net((1, *hidden, 1), seed, activation), delta_scale=delta_scale)

    def values(self, gaps) -> np.ndarray:
        gaps = np.asarray(gaps, dtype=float)
        raw = self.net.forward(np.atleast_1d(gaps).ravel() / self.delta_scale)
        return _masked(gaps, np.asarray(raw).reshape(gaps.shape))

    def table(self, max_gap: int) -> np.ndarray:
        return self.values(np.arange(max_gap + 1))

    def __call__(self, gap: int) -> float:
        return float(self.values(np.asarray(gap)))

    def with_net(self, net: DenseNet) -> "LearnedProclivity":
        return LearnedProclivity(net=net, delta_scale=self.delta_scale)


_FIXED_KINDS = {
    "exp": ExpDecayProclivity,
    "sigmoid": SigmoidProclivity,
    "zero": ZeroProclivity,
}


def by_name(name: str):
    """Instantiate one of the fixed proclivity kinds from its config name."""
    try:
        return _FIXED_KINDS[name]()
    except KeyError:
        raise ValueError(f"unknown proclivity {name!r}; expected one of {sorted(_FIXED_KINDS)}")


class DegenerateRatioError(ValueError):
    """The rescaling ratio's denominator (mean inherent score) is zero."""


@dataclass(frozen=True)
class ProclivityCurve:
    """Rescaled proclivity values sampled on an integer gap grid."""

    gaps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        gaps = np.asarray(self.gaps, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if gaps.shape != values.shape or gaps.ndim != 1:
            raise ValueError("gaps and values must be 1-d and equally long")
        if gaps.size >= 2 and np.any(np.diff(gaps) <= 0):
            raise ValueError("gap grid must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("curve values must be nonnegative")
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "values", values)


def default_curve_gaps(lo: int = CURVE_DELTA_MIN, hi: int = CURVE_DELTA_MAX) -> np.ndarray:
    return np.arange(lo, hi + 1)


def default_trait_grid(low: float = 0.1, high: float = 1.0, size: int = TRAIT_GRID_SIZE) -> np.ndarray:
    return np.linspace(low, high, size)


def rescaled_curve(inherent, memory, proclivity, gaps=None) -> ProclivityCurve:
    """Proclivity curve scaled by the mean memory-to-inherent score ratio.

    ``inherent`` and ``memory`` are score predictions over a grid of traits;
    the curve at each gap is mean(memory)/mean(inherent) * w(gap), which
    makes differently-scaled models comparable since the turn probabilities
    only ever see score ratios.
    """
    inherent = np.asarray(inherent, dtype=float)
    memory = np.asarray(memory, dtype=float)
    if gaps is None:
        gaps = default_curve_gaps()
    mean_pi = inherent.mean()
    if mean_pi <= 0.0:
        raise DegenerateRatioError("mean inherent score is zero; rescaling ratio is degenerate")
    ratio = memory.mean() / mean_pi
    return ProclivityCurve(gaps=np.asarray(gaps, dtype=int), values=ratio * proclivity.values(gaps))

"""Proclivity functions: how speaking inclination varies with the gap.

A proclivity maps the integer gap (turns since a member last spoke) to a
nonnegative inclination value. Every kind returns exactly zero for gaps
below 1, which covers both "just spoke" bookkeeping and the NEVER sentinel.
Fixed shapes (exponential decay, a shifted sigmoid plateau, zero) live next
to a learnable variant backed by a small network. Every kind follows one
protocol, ``Proclivity``; no kind subclasses another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import DEFAULT_HIDDEN, DenseNet, _backward, _forward, init_net, sigmoid

# A learned proclivity's net sees the gap over GAP_SCALE.
GAP_SCALE = 20.0
# The gaps a rescaled curve is read at.
CURVE_GAPS = np.arange(2, 41)
CURVE_GAPS.flags.writeable = False
# A learned proclivity's net runs on blocks of this many gaps (``_run_net``).
BLOCK_ROWS = 64


def _masked(gaps, values):
    gaps = np.asarray(gaps)
    return np.where(gaps >= 1, values, 0.0)


def _run_net(net: DenseNet, gaps, params=None):
    """A learned proclivity's values at ``gaps`` (0 below gap 1) and the
    activations of the run, each shaped (blocks, BLOCK_ROWS, width).

    The one place the net runs: on the gaps over ``GAP_SCALE``, padded
    with zeros to whole blocks. A BLAS product can sum a row's terms in
    another order depending on how many rows it holds, so with every block
    the same size a gap has one value however many gaps share its run.
    ``params`` runs the net's layout on another parameter vector.
    """
    gaps = np.asarray(gaps, dtype=float)
    x = np.zeros(-(-gaps.size // BLOCK_ROWS) * BLOCK_ROWS)
    np.divide(gaps.reshape(-1), GAP_SCALE, out=x[: gaps.size])
    raw, acts = _forward(net, x.reshape(-1, BLOCK_ROWS), params)
    return _masked(gaps, raw.reshape(-1)[: gaps.size].reshape(gaps.shape)), acts


class Proclivity:
    """The protocol of every kind: a ``name`` and ``values`` at integer gaps
    of any shape, exactly 0 below gap 1; ``table`` and a call come from here.

    The likelihood engine reads ``_table_and_backward``: the table over
    gaps 0..max_gap and a function that takes a slope per gap of it to the
    gradient in the kind's parameters, or ``None`` for a fixed kind.
    """

    name: str

    def table(self, max_gap: int) -> np.ndarray:
        """Values at gaps 0..max_gap."""
        return self.values(np.arange(max_gap + 1))

    def __call__(self, gap: int) -> float:
        return float(self.values(np.asarray(gap)))

    def _table_and_backward(self, max_gap: int, params=None):
        return self.table(max_gap), None


class ExpDecayProclivity(Proclivity):
    """Fixed, exponentially decaying proclivity exp(-gap/2)."""

    name = "exp"

    def values(self, gaps) -> np.ndarray:
        gaps = np.asarray(gaps, dtype=float)
        return _masked(gaps, np.exp(-gaps / 2.0))


class SigmoidProclivity(Proclivity):
    """Fixed sigmoid-plateau proclivity 0.95 * sigmoid(10 - gap/2).

    Stays close to 0.95 for small gaps and only decays noticeably once
    roughly twenty turns have passed, which makes recency much harder to
    read off the data than an immediate exponential decay.
    """

    name = "sigmoid"

    def values(self, gaps) -> np.ndarray:
        gaps = np.asarray(gaps, dtype=float)
        return _masked(gaps, 0.95 * sigmoid(10.0 - gaps / 2.0))


class ZeroProclivity(Proclivity):
    """No recency effect at all."""

    name = "zero"

    def values(self, gaps) -> np.ndarray:
        return np.zeros_like(np.asarray(gaps, dtype=float))


@dataclass(frozen=True)
class LearnedProclivity(Proclivity):
    """Proclivity represented by a network over the normalized gap.

    The raw gap is divided by ``GAP_SCALE`` before entering the network so
    the plotted range of gaps maps onto the responsive part of the tanh
    hidden units. Output lies in (0, 1); gaps below 1 are masked to exactly
    zero outside the network. Every value comes from ``_run_net``.
    """

    net: DenseNet

    name = "learned"

    @classmethod
    def fresh(cls, seed, hidden=DEFAULT_HIDDEN):
        return cls(net=init_net(hidden, seed))

    def values(self, gaps) -> np.ndarray:
        return _run_net(self.net, gaps)[0]

    def _table_and_backward(self, max_gap: int, params=None):
        """The table under ``params`` (nu's vector in place of the net's,
        while a block steps it), and the backward from this run's
        activations, its blocks flattened to rows."""
        size = max_gap + 1
        table, acts = _run_net(self.net, np.arange(size), params)
        acts = [a.reshape(-1, a.shape[-1]) for a in acts]
        params = self.net.params if params is None else params

        def backward(dtable):
            upstream = np.zeros(len(acts[0]))  # 0 at gap 0 and on the padding
            upstream[1:size] = dtable[1:]
            return _backward(self.net, acts, upstream, params)

        return table, backward


# The fixed kinds by config name: ``by_name`` and the CLI's help list them.
FIXED_KINDS = {kind.name: kind for kind in (ExpDecayProclivity, SigmoidProclivity, ZeroProclivity)}


def by_name(name: str):
    """Instantiate one of the fixed proclivity kinds from its config name."""
    try:
        return FIXED_KINDS[name]()
    except KeyError:
        raise ValueError(f"unknown proclivity {name!r}; expected one of {sorted(FIXED_KINDS)}")


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


def rescaled_curve(inherent, memory, proclivity) -> ProclivityCurve:
    """Proclivity curve over ``CURVE_GAPS`` scaled by the mean
    memory-to-inherent score ratio.

    ``inherent`` and ``memory`` are score predictions over a grid of traits;
    the curve at each gap is mean(memory)/mean(inherent) * w(gap), which
    makes differently-scaled models comparable since the turn probabilities
    only ever see score ratios.
    """
    inherent = np.asarray(inherent, dtype=float)
    memory = np.asarray(memory, dtype=float)
    mean_pi = inherent.mean()
    if mean_pi <= 0.0:
        raise DegenerateRatioError("mean inherent score is zero; rescaling ratio is degenerate")
    ratio = memory.mean() / mean_pi
    return ProclivityCurve(gaps=CURVE_GAPS, values=ratio * proclivity.values(CURVE_GAPS))

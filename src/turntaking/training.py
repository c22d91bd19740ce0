"""Model variants and maximum-likelihood fitting by block coordinate descent.

Four variants share one evaluation interface:

* ``pro``: trait-to-score networks f, g plus a learnable proclivity network.
* ``exp``: trait-to-score networks f, g with the fixed exp(-gap/2) proclivity.
* ``nm``: no memory; every member scores 1 with a zero proclivity.
* ``hm``: high memory; inherent 0.01, memory 1, fixed exp(-gap/2) proclivity.

Fitting alternates plain gradient-descent epochs on the score networks
(f, g) with epochs on the proclivity network, which sidesteps the unstable
gradients of their product. Every epoch uses full-batch gradients of the
mean per-turn negative log-likelihood over all training conversations, and
the returned parameters are the ones with the best validation loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    EPS_FLOOR,
    Conversation,
    Roster,
    ScoreParams,
    gap_matrix,
)
from .neural import DenseNet, GradientSet, apply_update, backward, clip_gradients, init_net
from .proclivity import (
    DEFAULT_DELTA_SCALE,
    ExpDecayProclivity,
    LearnedProclivity,
    ZeroProclivity,
)

VARIANTS = ("pro", "exp", "nm", "hm")
LEARNABLE_VARIANTS = ("pro", "exp")

NM_INHERENT, NM_MEMORY = 1.0, 0.0
HM_INHERENT, HM_MEMORY = 1e-2, 1.0

DEFAULT_HIDDEN = (16, 16)

BLOCK_SCORES = "scores"
BLOCK_PROCLIVITY = "proclivity"


class FitDivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass(frozen=True)
class ModelBundle:
    """A score predictor pair plus a proclivity, under one of the variants."""

    variant: str
    proclivity: object
    f_net: DenseNet | None = None
    g_net: DenseNet | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant in LEARNABLE_VARIANTS and (self.f_net is None or self.g_net is None):
            raise ValueError(f"variant {self.variant!r} needs f and g networks")

    @classmethod
    def make(
        cls,
        variant: str,
        seed=0,
        hidden=DEFAULT_HIDDEN,
        delta_scale: float = DEFAULT_DELTA_SCALE,
        activation: str = "tanh",
    ) -> "ModelBundle":
        """Construct a variant; networks are seeded deterministically.

        ``seed`` may be an int or a numpy SeedSequence.
        """
        if variant == "nm":
            return cls(variant="nm", proclivity=ZeroProclivity())
        if variant == "hm":
            return cls(variant="hm", proclivity=ExpDecayProclivity())
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        f_seed, g_seed, nu_seed = seed.spawn(3)
        f_net = init_net((1, *hidden, 1), f_seed, activation)
        g_net = init_net((1, *hidden, 1), g_seed, activation)
        if variant == "pro":
            prox = LearnedProclivity.fresh(
                nu_seed, hidden=hidden, delta_scale=delta_scale, activation=activation
            )
        elif variant == "exp":
            prox = ExpDecayProclivity()
        else:
            raise ValueError(f"unknown variant {variant!r}")
        return cls(variant=variant, proclivity=prox, f_net=f_net, g_net=g_net)

    @property
    def learns_proclivity(self) -> bool:
        return isinstance(self.proclivity, LearnedProclivity)


def predict_scores(bundle: ModelBundle, roster: Roster) -> ScoreParams:
    """Per-member inherent and memory scores for one roster."""
    n = roster.size
    if bundle.variant == "nm":
        return ScoreParams(np.full(n, NM_INHERENT), np.full(n, NM_MEMORY))
    if bundle.variant == "hm":
        return ScoreParams(np.full(n, HM_INHERENT), np.full(n, HM_MEMORY))
    pi = np.asarray(bundle.f_net.forward(roster.traits))
    d = np.asarray(bundle.g_net.forward(roster.traits))
    return ScoreParams(pi, d)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the block coordinate descent fit."""

    step: float = 0.05
    max_outer: int = 200
    score_epochs: int = 5
    proclivity_epochs: int = 5
    patience: int = 20
    eps: float = EPS_FLOOR
    clip_norm: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if min(self.step, self.max_outer, self.score_epochs, self.proclivity_epochs) <= 0:
            raise ValueError("step and epoch counts must be positive")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.eps <= 0 or self.clip_norm <= 0:
            raise ValueError("eps and clip_norm must be positive")


@dataclass
class TrainingSet:
    """(roster, conversation) pairs split into train and validation."""

    train: list
    val: list = field(default_factory=list)

    def __post_init__(self):
        if not self.train:
            raise ValueError("training split must be nonempty")


@dataclass
class FitResult:
    """Fitted bundle plus (outer_iter, train_loss, val_loss) history rows."""

    bundle: ModelBundle
    history: list
    best_outer: int = 0


# ---------------------------------------------------------------------------
# Vectorized likelihood engine. Conversations sharing a (turns, members)
# shape are stacked into one tensor so an epoch over all groups is a handful
# of numpy calls. Stacks are stored member-major, (B, N, T), so the sum over
# members (turn totals) and the sums over turns (score gradients) both run
# along contiguous rows of length T.


@dataclass(frozen=True)
class _Stack:
    """Fit invariants of the conversations sharing one (turns, members) shape.

    Cells are addressed by flat indices into the raveled (B, N, T) arrays.
    Each turn has exactly one observed-speaker cell and, from turn 2 on,
    exactly one ineligible cell (the previous speaker), so both are stored
    as indices rather than as full masks.
    """

    traits: np.ndarray  # (B, N)
    gaps: np.ndarray  # (B, N, T), 0 marks never-spoken
    observed: np.ndarray  # (B, T) flat index of each turn's speaker cell
    ineligible: np.ndarray  # (B, T - 1) flat index of the previous speaker, turns 2..T

    @property
    def shape(self) -> tuple:
        """Logical (conversations, turns, members) shape."""
        B, N, T = self.gaps.shape
        return B, T, N


class _Stacks:
    """The stacks of one data split, plus the proclivity gathered onto them.

    ``gather`` builds the proclivity table and ``W = table[gaps]`` per stack
    and reuses them for as long as the same proclivity object comes back.
    Proclivities are immutable values, and the cache holds a reference to
    the one it was built from, so identity is a safe key.
    """

    def __init__(self, stacks: list):
        self.stacks = stacks
        self.max_gap = max(int(s.gaps.max(initial=0)) for s in stacks)
        self.turns = sum(s.gaps.shape[0] * s.gaps.shape[2] for s in stacks)
        self._proclivity = None
        self._w: list = []

    def __iter__(self):
        return iter(self.stacks)

    def gather(self, proclivity) -> list:
        """``table[gaps]`` for every stack, under the given proclivity."""
        if proclivity is not self._proclivity:
            table = proclivity.table(self.max_gap)
            self._w = [table[s.gaps] for s in self.stacks]
            self._proclivity = proclivity
        return self._w


def _build_stacks(pairs) -> _Stacks:
    by_shape: dict = {}
    for roster, conv in pairs:
        if roster.size != conv.group_size:
            raise ValueError("roster size and conversation group size differ")
        by_shape.setdefault((len(conv), conv.group_size), []).append((roster, conv))
    stacks = []
    for (T, N), members in by_shape.items():
        speakers = np.stack([c.speakers - 1 for _, c in members])
        # Flat index of member 0's cell at each turn; member n sits n*T on.
        base = np.arange(len(members))[:, None] * (N * T) + np.arange(T)
        # The copy is C-ordered: the flat indices, and the in-place writes
        # through reshape(-1) views in _batch_nll, rely on it.
        gaps = np.stack([gap_matrix(c) for _, c in members]).transpose(0, 2, 1).copy()
        stacks.append(
            _Stack(
                traits=np.stack([r.traits for r, _ in members]),
                gaps=gaps,
                observed=base + speakers * T,
                ineligible=base[:, 1:] + speakers[:, :-1] * T,
            )
        )
    return _Stacks(stacks)


def _stack_scores(bundle: ModelBundle, stack: _Stack):
    B, N = stack.traits.shape
    if bundle.variant == "nm":
        return np.full((B, N), NM_INHERENT), np.full((B, N), NM_MEMORY)
    if bundle.variant == "hm":
        return np.full((B, N), HM_INHERENT), np.full((B, N), HM_MEMORY)
    flat = stack.traits.ravel()
    pi = np.asarray(bundle.f_net.forward(flat)).reshape(B, N)
    d = np.asarray(bundle.g_net.forward(flat)).reshape(B, N)
    return pi, d


def _batch_nll(bundle: ModelBundle, stacks: _Stacks, eps: float, block: str | None):
    """Total NLL, total turns, and (optionally) gradients for one block.

    Gradients come back as a dict keyed by component name ("f", "g", "nu"),
    already scaled to the mean-per-turn objective; the dict is empty when the
    active block holds no learnable parameters.
    """
    ws = stacks.gather(bundle.proclivity)

    total_nll = 0.0
    want_scores = block == BLOCK_SCORES and bundle.variant in LEARNABLE_VARIANTS
    want_proclivity = block == BLOCK_PROCLIVITY and bundle.learns_proclivity
    per_stack_dpi = []
    per_stack_dd = []
    dtable = np.zeros(stacks.max_gap + 1)

    for stack, w in zip(stacks, ws):
        B, N, T = stack.gaps.shape
        pi, d = _stack_scores(bundle, stack)
        # Work on (B*N, T) rows: numpy broadcasts and reduces these much
        # faster than the same memory viewed as (B, N, T).
        w = w.reshape(B * N, T)
        floored = w * d.reshape(-1, 1)
        floored += pi.reshape(-1, 1)
        np.maximum(floored, eps, out=floored)
        cells = floored.reshape(-1)
        cells[stack.ineligible] = 0.0
        # Members are added one at a time in index order: a fixed summation
        # order, and faster than sum(axis=1) over the (B, N, T) view.
        by_member = floored.reshape(B, N, T)
        totals = by_member[:, 0] + by_member[:, 1]
        for n in range(2, N):
            totals += by_member[:, n]
        observed = cells[stack.observed]
        total_nll += float(np.log(totals).sum() - np.log(observed).sum())

        if not (want_scores or want_proclivity):
            continue
        # d(nll)/du: 1/total on every cell the floor leaves differentiable
        # (which excludes the zeroed previous speaker), minus 1/observed on
        # the observed speaker's cell.
        inv_totals = 1.0 / totals
        du = np.where(by_member > eps, inv_totals[:, None, :], 0.0).reshape(B * N, T)
        du.reshape(-1)[stack.observed] = np.where(
            observed > eps, inv_totals - 1.0 / observed, 0.0
        )
        if want_scores:
            per_stack_dpi.append(du.sum(axis=1))
            per_stack_dd.append(np.einsum("ij,ij->i", du, w))
        if want_proclivity:
            # Bin 0 gathers the never-spoken cells; it is dropped below.
            dtable += np.bincount(
                stack.gaps.ravel(),
                weights=(du * d.reshape(-1, 1)).ravel(),
                minlength=dtable.size,
            )

    grads: dict = {}
    scale = 1.0 / stacks.turns
    if want_scores:
        gf = GradientSet.zeros_like(bundle.f_net)
        gg = GradientSet.zeros_like(bundle.g_net)
        for stack, dpi, dd in zip(stacks, per_stack_dpi, per_stack_dd):
            flat = stack.traits.ravel()
            gf.add(backward(bundle.f_net, flat, dpi * scale))
            gg.add(backward(bundle.g_net, flat, dd * scale))
        grads = {"f": gf, "g": gg}
    elif want_proclivity:
        prox = bundle.proclivity
        if dtable.size > 1:
            inputs = np.arange(1, dtable.size) / prox.delta_scale
            gnu = backward(prox.net, inputs, dtable[1:] * scale)
        else:
            gnu = GradientSet.zeros_like(prox.net)
        grads = {"nu": gnu}

    return total_nll, stacks.turns, grads


def _mean_nll(bundle: ModelBundle, stacks, eps: float) -> float:
    nll, turns, _ = _batch_nll(bundle, stacks, eps, block=None)
    return nll / turns


def conversation_nll_gradients(
    bundle: ModelBundle,
    roster: Roster,
    conversation: Conversation,
    block: str,
    eps: float = EPS_FLOOR,
) -> dict:
    """Exact gradients of one conversation's mean per-turn NLL.

    Only the parameters of the active block are differentiated; the other
    block's outputs enter as constants. Variants without learnable
    parameters in the block yield an empty dict.
    """
    if block not in (BLOCK_SCORES, BLOCK_PROCLIVITY):
        raise ValueError(f"unknown block {block!r}")
    stacks = _build_stacks([(roster, conversation)])
    _, _, grads = _batch_nll(bundle, stacks, eps, block)
    return grads


def _descend_scores(bundle: ModelBundle, stacks, cfg: FitConfig) -> ModelBundle:
    for _ in range(cfg.score_epochs):
        _, _, grads = _batch_nll(bundle, stacks, cfg.eps, BLOCK_SCORES)
        gf, gg = clip_gradients([grads["f"], grads["g"]], cfg.clip_norm)
        bundle = replace(
            bundle,
            f_net=apply_update(bundle.f_net, gf, cfg.step),
            g_net=apply_update(bundle.g_net, gg, cfg.step),
        )
    return bundle


def _descend_proclivity(bundle: ModelBundle, stacks, cfg: FitConfig) -> ModelBundle:
    for _ in range(cfg.proclivity_epochs):
        _, _, grads = _batch_nll(bundle, stacks, cfg.eps, BLOCK_PROCLIVITY)
        (gnu,) = clip_gradients([grads["nu"]], cfg.clip_norm)
        prox = bundle.proclivity.with_net(apply_update(bundle.proclivity.net, gnu, cfg.step))
        bundle = replace(bundle, proclivity=prox)
    return bundle


def fit(bundle: ModelBundle, training_set: TrainingSet, config: FitConfig | None = None) -> FitResult:
    """Fit f, g (and the proclivity for ``pro``) by block coordinate descent.

    Each outer iteration runs ``score_epochs`` gradient steps on (f, g),
    then ``proclivity_epochs`` steps on the proclivity network, then scores
    the fit on the validation split. Stops once validation has not improved
    for ``patience`` outer iterations and returns the best validation
    snapshot. The ``nm`` and ``hm`` variants have nothing to fit and come
    back unchanged.
    """
    cfg = config or FitConfig()
    if bundle.variant not in LEARNABLE_VARIANTS:
        return FitResult(bundle=bundle, history=[])

    train_stacks = _build_stacks(training_set.train)
    val_stacks = _build_stacks(training_set.val) if training_set.val else None

    def losses(b: ModelBundle):
        train = _mean_nll(b, train_stacks, cfg.eps)
        val = _mean_nll(b, val_stacks, cfg.eps) if val_stacks else train
        return train, val

    train_loss, val_loss = losses(bundle)
    history = [(0, train_loss, val_loss)]
    best_bundle, best_val, best_outer = bundle, val_loss, 0
    stall = 0

    for outer in range(1, cfg.max_outer + 1):
        bundle = _descend_scores(bundle, train_stacks, cfg)
        if bundle.learns_proclivity:
            bundle = _descend_proclivity(bundle, train_stacks, cfg)
        train_loss, val_loss = losses(bundle)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise FitDivergenceError(
                f"non-finite loss at outer iteration {outer} "
                f"(train={train_loss}, val={val_loss})"
            )
        history.append((outer, train_loss, val_loss))
        if val_loss < best_val:
            best_bundle, best_val, best_outer = bundle, val_loss, outer
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break

    return FitResult(bundle=best_bundle, history=history, best_outer=best_outer)

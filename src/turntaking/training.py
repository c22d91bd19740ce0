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

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    EPS_FLOOR,
    Conversation,
    Roster,
    ScoreParams,
    gap_matrix,
)
from .neural import (
    DenseNet,
    GradientSet,
    _backward_cached,
    _forward_cached,
    apply_update,
    backward,
    clip_gradients,
    init_net,
)
from .proclivity import (
    DEFAULT_DELTA_SCALE,
    ExpDecayProclivity,
    LearnedProclivity,
    ZeroProclivity,
)

log = logging.getLogger(__name__)

VARIANTS = ("pro", "exp", "nm", "hm")
LEARNABLE_VARIANTS = ("pro", "exp")

# Constant (inherent, memory) scores of the variants without score nets.
FIXED_SCORES = {"nm": (1.0, 0.0), "hm": (1e-2, 1.0)}

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


def _scores(bundle: ModelBundle, traits: np.ndarray):
    """``(pi, d)`` shaped like ``traits``, plus the activations backward needs."""
    if bundle.variant in FIXED_SCORES:
        pi, d = FIXED_SCORES[bundle.variant]
        return np.full(traits.shape, pi), np.full(traits.shape, d), None, None
    flat = traits.ravel()
    pi, f_cache = _forward_cached(bundle.f_net, flat)
    d, g_cache = _forward_cached(bundle.g_net, flat)
    return pi.reshape(traits.shape), d.reshape(traits.shape), f_cache, g_cache


def predict_scores(bundle: ModelBundle, roster: Roster) -> ScoreParams:
    """Per-member inherent and memory scores for one roster."""
    pi, d, _, _ = _scores(bundle, roster.traits)
    return ScoreParams(pi, d)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the block coordinate descent fit."""

    step: float = 0.05
    max_outer: int = 200
    score_epochs: int = 5
    proclivity_epochs: int = 5
    patience: int = 20
    clip_norm: float = 10.0

    def __post_init__(self):
        for name in ("step", "clip_norm"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if min(self.max_outer, self.score_epochs, self.proclivity_epochs) <= 0:
            raise ValueError("max_outer and epoch counts must be positive")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")


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
    """Fitted bundle plus (outer_iter, train_loss, val_loss) history rows.

    ``stop_reason`` says why the fit ended: ``"patience"`` when validation
    stopped improving, ``"max_outer"`` at the iteration cap, and ``None``
    for the variants that have nothing to fit.
    """

    bundle: ModelBundle
    history: list
    best_outer: int = 0
    stop_reason: str | None = None


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
    """The stacks of one data split, plus the model outputs cached on them.

    ``gather`` builds the proclivity table and ``W = table[gaps]`` per stack
    and reuses them for as long as the same proclivity object comes back.
    ``scores`` does the same for the score nets' outputs and activations,
    keyed on the ``f_net``/``g_net`` pair. Proclivities and nets are
    immutable values, and each cache holds a reference to what it was built
    from, so identity is a safe key.
    """

    def __init__(self, stacks: list):
        self.stacks = stacks
        self.max_gap = max(int(s.gaps.max(initial=0)) for s in stacks)
        self.turns = sum(s.gaps.shape[0] * s.gaps.shape[2] for s in stacks)
        self._proclivity = None
        self._w: list = []
        self._nets = None
        self._scores: list = []

    def __iter__(self):
        return iter(self.stacks)

    def gather(self, proclivity) -> list:
        """``table[gaps]`` for every stack, under the given proclivity."""
        if proclivity is not self._proclivity:
            table = proclivity.table(self.max_gap)
            self._w = [table[s.gaps] for s in self.stacks]
            self._proclivity = proclivity
        return self._w

    def scores(self, bundle: ModelBundle) -> list:
        """``(pi, d, f activations, g activations)`` for every stack.

        Learnable variants reuse the last result while their nets stay the
        same objects, so the nets run once per parameter value. ``nm`` and
        ``hm`` both have no nets; their constant scores are never cached,
        so the two can never share an entry.
        """
        if bundle.variant not in LEARNABLE_VARIANTS:
            return [_scores(bundle, s.traits) for s in self.stacks]
        nets = (bundle.f_net, bundle.g_net)
        if self._nets is None or nets[0] is not self._nets[0] or nets[1] is not self._nets[1]:
            self._scores = [_scores(bundle, s.traits) for s in self.stacks]
            self._nets = nets
        return self._scores


def _build_stacks(pairs) -> _Stacks:
    by_shape: dict = {}
    for roster, conv in pairs:
        if roster.size != conv.group_size:
            raise ValueError("roster size and conversation group size differ")
        by_shape.setdefault((len(conv), conv.group_size), []).append((roster, conv))
    stacks = []
    for (T, N), members in by_shape.items():
        # Labels are stored compactly; widen them before the index arithmetic.
        speakers = np.stack([c.speakers for _, c in members]).astype(np.intp) - 1
        # Flat index of member 0's cell at each turn; member n sits n*T on.
        base = np.arange(len(members))[:, None] * (N * T) + np.arange(T)
        # The copy is C-ordered: the flat indices, and the in-place writes
        # through reshape(-1) views in the likelihood pass, rely on it.
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


def _likelihood_pass(stack: _Stack, w: np.ndarray, pi: np.ndarray, d: np.ndarray):
    """Floored scores, turn totals and observed cells of one stack.

    The one place the likelihood is computed: every cell scores
    ``pi + d * w``, floored at ``EPS_FLOOR``, and the previous speaker's
    cell is zeroed. ``pi`` and ``d`` are (B, N) and ``w`` is ``table[gaps]``.
    Returns the (B, N, T) floored scores, the (B, T) turn totals and the
    (B, T) observed-speaker cells, so a turn's NLL is
    ``log(total) - log(observed)``.
    """
    B, N, T = stack.gaps.shape
    # Work on (B*N, T) rows: numpy broadcasts and reduces these much
    # faster than the same memory viewed as (B, N, T).
    floored = w.reshape(B * N, T) * d.reshape(-1, 1)
    floored += pi.reshape(-1, 1)
    np.maximum(floored, EPS_FLOOR, out=floored)
    cells = floored.reshape(-1)
    cells[stack.ineligible] = 0.0
    # Members are added one at a time in index order: a fixed summation
    # order, and faster than sum(axis=1) over the (B, N, T) view.
    by_member = floored.reshape(B, N, T)
    totals = by_member[:, 0] + by_member[:, 1]
    for n in range(2, N):
        totals += by_member[:, n]
    return by_member, totals, cells[stack.observed]


def _mean_nll(bundle: ModelBundle, stacks: _Stacks) -> float:
    """Mean per-turn NLL over every stack of a split; no gradients."""
    total_nll = 0.0
    ws = stacks.gather(bundle.proclivity)
    for stack, w, (pi, d, _, _) in zip(stacks, ws, stacks.scores(bundle)):
        _, totals, observed = _likelihood_pass(stack, w, pi, d)
        total_nll += float(np.log(totals).sum() - np.log(observed).sum())
    return total_nll / stacks.turns


def _nll_gradients(bundle: ModelBundle, stacks: _Stacks, block: str) -> dict:
    """Gradients of the mean per-turn NLL for one block; no loss.

    Gradients come back as a dict keyed by component name ("f", "g", "nu"),
    already scaled to the mean-per-turn objective; the dict is empty when the
    active block holds no learnable parameters. The score nets are
    differentiated from the activations their cached forward pass kept.
    """
    want_scores = block == BLOCK_SCORES and bundle.variant in LEARNABLE_VARIANTS
    want_proclivity = block == BLOCK_PROCLIVITY and bundle.learns_proclivity
    if not (want_scores or want_proclivity):
        return {}
    scale = 1.0 / stacks.turns
    if want_scores:
        gf = GradientSet.zeros_like(bundle.f_net)
        gg = GradientSet.zeros_like(bundle.g_net)
    else:
        dtable = np.zeros(stacks.max_gap + 1)

    ws = stacks.gather(bundle.proclivity)
    for stack, w, (pi, d, f_cache, g_cache) in zip(stacks, ws, stacks.scores(bundle)):
        B, N, T = stack.gaps.shape
        by_member, totals, observed = _likelihood_pass(stack, w, pi, d)
        # d(nll)/du: 1/total on every cell the floor leaves differentiable
        # (which excludes the zeroed previous speaker), minus 1/observed on
        # the observed speaker's cell. inv_totals is finite and nonnegative,
        # so the masked product is exactly inv_totals or 0.0.
        inv_totals = 1.0 / totals
        du = ((by_member > EPS_FLOOR) * inv_totals[:, None, :]).reshape(B * N, T)
        du.reshape(-1)[stack.observed] = np.where(
            observed > EPS_FLOOR, inv_totals - 1.0 / observed, 0.0
        )
        if want_scores:
            gf.add(_backward_cached(bundle.f_net, f_cache, du.sum(axis=1) * scale))
            dd = np.einsum("ij,ij->i", du, w.reshape(B * N, T))
            gg.add(_backward_cached(bundle.g_net, g_cache, dd * scale))
        else:
            # Bin 0 gathers the never-spoken cells; it is dropped below.
            dtable += np.bincount(
                stack.gaps.ravel(),
                weights=(du * d.reshape(-1, 1)).ravel(),
                minlength=dtable.size,
            )

    if want_scores:
        return {"f": gf, "g": gg}
    prox = bundle.proclivity
    if dtable.size > 1:
        inputs = np.arange(1, dtable.size) / prox.delta_scale
        return {"nu": backward(prox.net, inputs, dtable[1:] * scale)}
    return {"nu": GradientSet.zeros_like(prox.net)}


def conversation_nll_gradients(
    bundle: ModelBundle,
    roster: Roster,
    conversation: Conversation,
    block: str,
) -> dict:
    """Exact gradients of one conversation's mean per-turn NLL.

    Only the parameters of the active block are differentiated; the other
    block's outputs enter as constants. Variants without learnable
    parameters in the block yield an empty dict.
    """
    if block not in (BLOCK_SCORES, BLOCK_PROCLIVITY):
        raise ValueError(f"unknown block {block!r}")
    return _nll_gradients(bundle, _build_stacks([(roster, conversation)]), block)


def _descend_scores(bundle: ModelBundle, stacks, cfg: FitConfig) -> ModelBundle:
    for _ in range(cfg.score_epochs):
        grads = _nll_gradients(bundle, stacks, BLOCK_SCORES)
        gf, gg = clip_gradients([grads["f"], grads["g"]], cfg.clip_norm)
        bundle = replace(
            bundle,
            f_net=apply_update(bundle.f_net, gf, cfg.step),
            g_net=apply_update(bundle.g_net, gg, cfg.step),
        )
    return bundle


def _descend_proclivity(bundle: ModelBundle, stacks, cfg: FitConfig) -> ModelBundle:
    for _ in range(cfg.proclivity_epochs):
        grads = _nll_gradients(bundle, stacks, BLOCK_PROCLIVITY)
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
        train = _mean_nll(b, train_stacks)
        val = _mean_nll(b, val_stacks) if val_stacks else train
        return train, val

    train_loss, val_loss = losses(bundle)
    history = [(0, train_loss, val_loss)]
    best_bundle, best_val, best_outer = bundle, val_loss, 0
    stall = 0
    stop_reason = "max_outer"

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
                stop_reason = "patience"
                break

    if stop_reason == "max_outer" and best_outer == cfg.max_outer:
        log.warning(
            "fit of %s stopped at the iteration cap max_outer=%d while validation loss "
            "was still improving (best %.6g at the last iteration); it has not converged",
            bundle.variant, cfg.max_outer, best_val,
        )
    return FitResult(
        bundle=best_bundle, history=history, best_outer=best_outer, stop_reason=stop_reason
    )

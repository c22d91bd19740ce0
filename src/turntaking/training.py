"""Model variants and maximum-likelihood fitting by block coordinate descent.

Four variants share one evaluation interface:

* ``pro``: trait-to-score networks f, g plus a learnable proclivity network.
* ``exp``: trait-to-score networks f, g with the fixed exp(-gap/2) proclivity.
* ``nm``: no memory; every member scores 1 with a zero proclivity.
* ``hm``: high memory; inherent 0.01, memory 1, fixed exp(-gap/2) proclivity.

Fitting alternates Adam epochs on the score networks (f, g) with Adam
epochs on the proclivity network, which sidesteps the unstable gradients of
their product. Every epoch uses full-batch gradients of the mean per-turn
negative log-likelihood over all training conversations; the fit stops when
validation gains stall and returns the parameters of its lowest validation loss.
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
    _backward_cached,
    _forward_cached,
    adam_step,
    backward,
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

# Relative gain over the best validation loss that resets the patience count.
MIN_GAIN = 1e-4


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
    """Knobs for the block coordinate descent fit; ``step`` is the Adam learning rate."""

    step: float = 0.01
    max_outer: int = 200
    score_epochs: int = 5
    proclivity_epochs: int = 5
    patience: int = 20

    def __post_init__(self):
        if not 0 < self.step < np.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
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
# of numpy calls. Stacks are stored member-major, (B, N, T), but the engine
# works per turn: it builds no (B, N, T) array but ``W = table[gaps]`` and,
# for the proclivity gradient, one of per-cell slopes. The score nets see
# the whole split at once: every stack's members are one range of the
# split's trait vector.


@dataclass(frozen=True)
class _Stack:
    """Fit invariants of the conversations sharing one (turns, members) shape.

    Cells are addressed by flat indices into the raveled (B, N, T) arrays,
    members by rows of the raveled (B, N) scores. The previous speaker's row
    is the speaker row of the turn before. ``span`` is the stack's range of
    the split's raveled traits, and so of its raveled scores.
    """

    gaps: np.ndarray  # (B, N, T), 0 marks never-spoken
    observed: np.ndarray  # (B, T) flat index of each turn's speaker cell
    speakers: np.ndarray  # (B, T) row of each turn's speaker, observed // T
    others: np.ndarray  # (N, N) 1 - eye(N): sums each member's pi over the others
    span: slice

    @property
    def shape(self) -> tuple:
        """Logical (conversations, turns, members) shape."""
        B, N, T = self.gaps.shape
        return B, T, N


class _Stacks:
    """The stacks of one data split, plus the model outputs cached on them.

    ``traits`` holds every stack's (B, N) traits raveled, in stack order.
    ``gather`` builds the proclivity table and ``W = table[gaps]`` per stack
    and reuses them for as long as the same proclivity object comes back.
    ``scores`` does the same for the score nets' outputs and activations,
    keyed on the ``f_net``/``g_net`` pair. Proclivities and nets are
    immutable values, and each cache holds a reference to what it was built
    from, so identity is a safe key.
    """

    def __init__(self, stacks: list, traits: np.ndarray):
        self.stacks = stacks
        self.traits = traits
        self.max_gap = max(int(s.gaps.max(initial=0)) for s in stacks)
        self.turns = sum(s.gaps.shape[0] * s.gaps.shape[2] for s in stacks)
        self._proclivity = None
        self._w: list = []
        self._nets = None
        self._scores = None

    def __iter__(self):
        return iter(self.stacks)

    def gather(self, proclivity) -> list:
        """``table[gaps]`` for every stack, the table zeroed at gap 1: that is
        the previous speaker's cell, which the likelihood pass leaves out."""
        if proclivity is not self._proclivity:
            table = np.array(proclivity.table(self.max_gap), dtype=float)
            table[1:2] = 0.0
            self._w = [table[s.gaps] for s in self.stacks]
            self._proclivity = proclivity
        return self._w

    def scores(self, bundle: ModelBundle) -> tuple:
        """``(per-stack (pi, d, low) triples, f activations, g activations)``.

        Each net runs once on the split's traits; ``pi`` and ``d`` are (B, N)
        views of its output, and ``low`` is ``_low_rows(pi)``. Learnable
        variants reuse the last result while their nets stay the same
        objects, so the nets run once per parameter value. ``nm`` and ``hm``
        both have no nets; their constant scores are never cached, so the
        two can never share an entry.
        """
        if bundle.variant not in LEARNABLE_VARIANTS:
            return self._split(*_scores(bundle, self.traits))
        nets = (bundle.f_net, bundle.g_net)
        if self._nets is None or nets[0] is not self._nets[0] or nets[1] is not self._nets[1]:
            self._scores = self._split(*_scores(bundle, self.traits))
            self._nets = nets
        return self._scores

    def _split(self, pi, d, f_cache, g_cache) -> tuple:
        # One search over the whole split; a split with no low row, the
        # usual case, hands every stack the same empty array.
        low = _low_rows(pi)
        triples = []
        for s in self.stacks:
            span, shape = s.span, s.gaps.shape[:2]
            rows = low[(low >= span.start) & (low < span.stop)] - span.start if low.size else low
            triples.append((pi[span].reshape(shape), d[span].reshape(shape), rows))
        return triples, f_cache, g_cache


def _build_stacks(pairs) -> _Stacks:
    by_shape: dict = {}
    for roster, conv in pairs:
        if roster.size != conv.group_size:
            raise ValueError("roster size and conversation group size differ")
        by_shape.setdefault((len(conv), conv.group_size), []).append((roster, conv))
    stacks, traits, start = [], [], 0
    for (T, N), members in by_shape.items():
        B = len(members)
        # Labels are stored compactly; widen them before the index arithmetic.
        speakers = np.stack([c.speakers for _, c in members]).astype(np.intp) - 1
        rows = np.arange(B)[:, None] * N + speakers
        # The copy is C-ordered: the flat indices rely on it.
        gaps = np.stack([gap_matrix(c) for _, c in members]).transpose(0, 2, 1).copy()
        stacks.append(
            _Stack(
                gaps=gaps,
                observed=rows * T + np.arange(T),
                speakers=rows,
                others=1.0 - np.eye(N),
                span=slice(start, start + B * N),
            )
        )
        traits.extend(r.traits for r, _ in members)
        start += B * N
    return _Stacks(stacks, np.concatenate(traits))


def _low_rows(pi: np.ndarray) -> np.ndarray:
    """Flat member rows of ``pi`` at or below ``EPS_FLOOR``: the only rows
    that can hold floored cells, as ``d, w >= 0``."""
    return np.flatnonzero(pi.reshape(-1) <= EPS_FLOOR)


def _likelihood_pass(
    stack: _Stack, w: np.ndarray, pi: np.ndarray, d: np.ndarray, low: np.ndarray
):
    """Turn totals and observed-speaker scores of one stack, plus its floored cells.

    The one place the likelihood is computed; a turn's NLL is
    ``log(total) - log(observed)``, both (B, T). Each eligible cell scores
    ``pi + d * w``, floored at ``EPS_FLOOR``; ``pi`` and ``d`` are (B, N),
    ``w`` comes from ``_Stacks.gather`` and ``low`` is ``_low_rows(pi)``. A
    total is ``d @ w`` plus the ``pi`` of every member but the previous
    speaker. The flat cell and turn indices of the floored cells come back,
    or ``None`` when no row is low.
    """
    B, N, T = stack.gaps.shape
    pi_rows, d_rows = pi.reshape(-1), d.reshape(-1)
    totals = np.matmul(d[:, None, :], w)[:, 0]
    totals[:, 0] += pi.sum(axis=1)
    # Each member's pi summed over the others: a sum of nonnegative terms,
    # where a total minus the member's own pi could cancel.
    totals[:, 1:] += (pi @ stack.others).take(stack.speakers[:, :-1])
    observed = w.take(stack.observed) * d_rows.take(stack.speakers) + pi_rows.take(stack.speakers)
    if not low.size:
        return totals, observed, None
    cells = w.reshape(B * N, T)[low] * d_rows[low, None] + pi_rows[low, None]
    r, t = np.nonzero((cells <= EPS_FLOOR) & (stack.gaps.reshape(B * N, T)[low] != 1))
    np.add.at(totals, (low[r] // N, t), EPS_FLOOR - cells[r, t])
    np.maximum(observed, EPS_FLOOR, out=observed)
    return totals, observed, (low[r] * T + t, low[r] // N * T + t)


def _mean_nll(bundle: ModelBundle, stacks: _Stacks) -> float:
    """Mean per-turn NLL over every stack of a split; no gradients."""
    total_nll = 0.0
    ws = stacks.gather(bundle.proclivity)
    triples, _, _ = stacks.scores(bundle)
    for stack, w, (pi, d, low) in zip(stacks, ws, triples):
        totals, observed, _ = _likelihood_pass(stack, w, pi, d, low)
        total_nll += float(np.log(totals).sum() - np.log(observed).sum())
    return total_nll / stacks.turns


def _nll_gradients(bundle: ModelBundle, stacks: _Stacks, block: str) -> dict:
    """Gradients of the mean per-turn NLL for one block; no loss.

    Gradients come back as a dict keyed by component name ("f", "g", "nu"),
    already scaled to the mean-per-turn objective; the dict is empty when the
    active block holds no learnable parameters. The score nets are
    differentiated from the activations their cached forward pass kept.

    Each eligible cell's score has slope ``1/total``, less ``1/observed`` at
    the observed speaker's cell, and a floored cell has none.
    """
    want_scores = block == BLOCK_SCORES and bundle.variant in LEARNABLE_VARIANTS
    want_proclivity = block == BLOCK_PROCLIVITY and bundle.learns_proclivity
    if not (want_scores or want_proclivity):
        return {}
    scale = 1.0 / stacks.turns
    if want_scores:
        # Each stack fills its span; the nets are differentiated once, after.
        dpi_all = np.empty(stacks.traits.size)
        dd_all = np.empty(stacks.traits.size)
    else:
        dtable = np.zeros(stacks.max_gap + 1)

    ws = stacks.gather(bundle.proclivity)
    triples, f_cache, g_cache = stacks.scores(bundle)
    for stack, w, (pi, d, low) in zip(stacks, ws, triples):
        B, N, T = stack.gaps.shape
        totals, observed, floored = _likelihood_pass(stack, w, pi, d, low)
        inv_totals = 1.0 / totals
        inv_observed = 1.0 / observed
        if floored is not None:
            # A floored score is a constant: the observed speaker's loses its
            # 1/observed and every floored cell the 1/total of its turn.
            inv_observed[observed <= EPS_FLOOR] = 0.0
            cells, turns = floored
            lost = inv_totals.take(turns)
        if want_scores:
            # Per member, the 1/total part is a sum over turns, less the turn
            # after it speaks; the rest are sparse corrections by row.
            rows = stack.speakers.reshape(-1)
            dpi, dd = dpi_all[stack.span], dd_all[stack.span]
            np.subtract(
                np.matmul(w, inv_totals[:, :, None]).reshape(-1),
                np.bincount(rows, (w.take(stack.observed) * inv_observed).reshape(-1), B * N),
                out=dd,
            )
            inv_observed[:, :-1] += inv_totals[:, 1:]
            np.subtract(
                np.repeat(inv_totals.sum(axis=1), N),
                np.bincount(rows, inv_observed.reshape(-1), B * N),
                out=dpi,
            )
            if floored is not None:
                dpi -= np.bincount(cells // T, lost, B * N)
                dd -= np.bincount(cells // T, w.take(cells) * lost, B * N)
        else:
            # Slopes times d, binned by gap; bins 0 (never spoken) and 1 (the
            # previous speaker) are dropped below.
            slopes = d[:, :, None] * inv_totals[:, None, :]
            if floored is not None:
                slopes.reshape(-1)[cells] = 0.0
            gaps = stack.gaps.reshape(-1)
            dtable += np.bincount(gaps, slopes.reshape(-1), dtable.size)
            dtable -= np.bincount(
                gaps.take(stack.observed).reshape(-1),
                (d.reshape(-1).take(stack.speakers) * inv_observed).reshape(-1),
                dtable.size,
            )

    if want_scores:
        return {
            "f": _backward_cached(bundle.f_net, f_cache, dpi_all * scale),
            "g": _backward_cached(bundle.g_net, g_cache, dd_all * scale),
        }
    prox = bundle.proclivity
    inputs = np.arange(2, dtable.size) / prox.delta_scale
    return {"nu": backward(prox.net, inputs, dtable[2:] * scale)}


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


def _descend_scores(bundle: ModelBundle, stacks, cfg: FitConfig, state):
    """``score_epochs`` Adam steps on (f, g); ``state`` is the block's, ``None`` at first."""
    f_state, g_state = state or (None, None)
    for _ in range(cfg.score_epochs):
        grads = _nll_gradients(bundle, stacks, BLOCK_SCORES)
        f_net, f_state = adam_step(bundle.f_net, grads["f"], f_state, cfg.step)
        g_net, g_state = adam_step(bundle.g_net, grads["g"], g_state, cfg.step)
        bundle = replace(bundle, f_net=f_net, g_net=g_net)
    return bundle, (f_state, g_state)


def _descend_proclivity(bundle: ModelBundle, stacks, cfg: FitConfig, state):
    """``proclivity_epochs`` Adam steps on nu; ``state`` is the block's, ``None`` at first."""
    for _ in range(cfg.proclivity_epochs):
        grads = _nll_gradients(bundle, stacks, BLOCK_PROCLIVITY)
        net, state = adam_step(bundle.proclivity.net, grads["nu"], state, cfg.step)
        bundle = replace(bundle, proclivity=bundle.proclivity.with_net(net))
    return bundle, state


def fit(bundle: ModelBundle, training_set: TrainingSet, config: FitConfig | None = None) -> FitResult:
    """Fit f, g (and the proclivity for ``pro``) by block coordinate descent.

    Each outer iteration runs ``score_epochs`` Adam steps on (f, g), then
    ``proclivity_epochs`` on the proclivity network (each block keeps its
    Adam state across iterations), then scores the validation split. Stops
    after ``patience`` iterations in a row without a gain over the best
    validation loss of more than ``MIN_GAIN`` of it, and returns the snapshot
    of the lowest. ``nm`` and ``hm`` have nothing to fit and come back as is.
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
    stall, stop_reason = 0, "max_outer"
    score_state = prox_state = None

    for outer in range(1, cfg.max_outer + 1):
        bundle, score_state = _descend_scores(bundle, train_stacks, cfg, score_state)
        if bundle.learns_proclivity:
            bundle, prox_state = _descend_proclivity(bundle, train_stacks, cfg, prox_state)
        train_loss, val_loss = losses(bundle)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise FitDivergenceError(f"non-finite loss at outer iteration {outer} "
                                     f"(train={train_loss}, val={val_loss})")
        history.append((outer, train_loss, val_loss))
        gained = best_val - val_loss > MIN_GAIN * abs(best_val)
        if val_loss < best_val:
            best_bundle, best_val, best_outer = bundle, val_loss, outer
        stall = 0 if gained else stall + 1
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

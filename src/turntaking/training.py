"""Model variants and maximum-likelihood fitting by block coordinate descent.

Four variants share one evaluation interface:

* ``pro``: trait-to-score networks f, g plus a learnable proclivity network.
* ``exp``: trait-to-score networks f, g with the fixed exp(-gap/2) proclivity.
* ``nm``: no memory; every member scores 1 with a zero proclivity.
* ``hm``: high memory; inherent 0.01, memory 1, fixed exp(-gap/2) proclivity.

Fitting alternates limited-memory BFGS steps on the score networks (f, g)
with L-BFGS steps on the proclivity network, which sidesteps the unstable
gradients of their product. Every step runs on the full-batch mean per-turn
negative log-likelihood over all training conversations, with an Armijo
backtracking line search (Liu & Nocedal 1989; Nocedal & Wright 2006, Alg. 7.4
and 3.1). The fit stops when validation gains stall, or once the train loss
plateaus after its best snapshot, and returns the parameters of its lowest
validation loss.
"""

from __future__ import annotations

import logging
from collections import deque, namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .model import EPS_FLOOR, Conversation, Roster, ScoreParams, gap_matrix
from .neural import DEFAULT_HIDDEN, DenseNet, _backward, _forward, init_net
from .proclivity import LearnedProclivity, by_name

log = logging.getLogger(__name__)

# The proclivity kind each variant takes, by name.
PROCLIVITY_KINDS = {"pro": LearnedProclivity.name, "exp": "exp", "nm": "zero", "hm": "exp"}
VARIANTS = tuple(PROCLIVITY_KINDS)
LEARNABLE_VARIANTS = ("pro", "exp")

# Constant (inherent, memory) scores of the variants without score nets.
FIXED_SCORES = {"nm": (1.0, 0.0), "hm": (1e-2, 1.0)}

BLOCK_SCORES = "scores"
BLOCK_PROCLIVITY = "proclivity"

# The stop rules; fixed, not settings. A fit stops after PATIENCE outer
# iterations in a row that beat the best validation loss by MIN_GAIN of it or
# less, or once past its best snapshot after PLATEAU outer iterations in a row
# that each lower the train loss by less than BLOCK_GAIN of it.
MIN_GAIN = 1e-4
PATIENCE = 10
PLATEAU = 2

# The L-BFGS block steps; fixed, not settings. A block takes at most
# BLOCK_STEPS accepted steps and keeps its last MEMORY (s, y) pairs; no trial
# moves a parameter by more than MAX_MOVE. Armijo's constant is ARMIJO, the
# line search halves the step at most MAX_TRIALS times, and a block ends once
# a step gains less than BLOCK_GAIN of the train loss.
BLOCK_STEPS = 5
MEMORY = 10
MAX_MOVE = 0.3
ARMIJO = 1e-4
MAX_TRIALS = 30
BLOCK_GAIN = MIN_GAIN / 10


class FitDivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass(frozen=True)
class ModelBundle:
    """A score predictor pair plus a proclivity, under one of the variants.

    The proclivity's kind, compared by ``name``, is the variant's
    (``PROCLIVITY_KINDS``), so a bundle always reads back as it was written.
    """

    variant: str
    proclivity: object
    f_net: DenseNet | None = None
    g_net: DenseNet | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        kind, got = PROCLIVITY_KINDS[self.variant], getattr(self.proclivity, "name", None)
        if got != kind:
            raise ValueError(f"variant {self.variant!r} takes the {kind!r} proclivity, not {got!r}")
        if self.variant in LEARNABLE_VARIANTS and (self.f_net is None or self.g_net is None):
            raise ValueError(f"variant {self.variant!r} needs f and g networks")
        f, g = self.f_net, self.g_net
        if f is not None and g is not None and f.shapes != g.shapes:
            raise ValueError("f and g networks must share one layout: they run as one stack")

    @classmethod
    def make(cls, variant: str, seed=0, hidden=DEFAULT_HIDDEN) -> "ModelBundle":
        """Construct a variant; networks are seeded deterministically.

        ``seed`` may be an int or a numpy SeedSequence.
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if variant not in LEARNABLE_VARIANTS:
            return cls(variant=variant, proclivity=by_name(PROCLIVITY_KINDS[variant]))
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        f_seed, g_seed, nu_seed = seed.spawn(3)
        f_net, g_net = (init_net(hidden, s) for s in (f_seed, g_seed))
        prox = (LearnedProclivity.fresh(nu_seed, hidden)
                if variant == "pro" else by_name(PROCLIVITY_KINDS[variant]))
        return cls(variant=variant, proclivity=prox, f_net=f_net, g_net=g_net)

    @property
    def learns_proclivity(self) -> bool:
        return self.variant == "pro"

    @property
    def pair(self) -> np.ndarray:
        """f's and g's parameters as the rows of one (2, P) array: one stacked net."""
        return np.stack((self.f_net.params, self.g_net.params))


def predict_scores(bundle: ModelBundle, roster: Roster) -> ScoreParams:
    """Per-member inherent and memory scores for one roster."""
    if bundle.variant in FIXED_SCORES:
        return ScoreParams(*(np.full(roster.size, v) for v in FIXED_SCORES[bundle.variant]))
    return ScoreParams(*_forward(bundle.f_net, roster.traits, bundle.pair)[0])


@dataclass(frozen=True)
class FitConfig:
    """The block coordinate descent fit's one setting: its outer iteration cap."""

    max_outer: int = 200

    def __post_init__(self):
        if self.max_outer <= 0:
            raise ValueError("max_outer must be positive")


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
    """Fitted bundle plus (outer_iter, train_loss, val_loss) history rows;
    ``val_loss`` is None when there is no validation split.

    ``stop_reason`` says why the fit ended: ``"patience"`` when validation
    stopped improving, ``"plateau"`` when the train loss stopped falling
    after the best snapshot, ``"max_outer"`` at the iteration cap, and
    ``None`` for the variants that have nothing to fit. ``passes`` counts the
    likelihood passes the fit ran, train and validation together.
    """

    bundle: ModelBundle
    history: list
    best_outer: int = 0
    stop_reason: str | None = None
    passes: int = 0


# ---------------------------------------------------------------------------
# Vectorized likelihood engine. Conversations sharing a (turns, members)
# shape are stacked into one (B, N, T) tensor of gaps. Only the per-cell work
# runs per stack: ``W = table[gaps]``, the contractions ``d @ W`` and
# ``W @ (1/total)``, and the proclivity gradient's slopes. Everything per
# member or per turn runs once on vectors that span the split: member rows
# and turns run through the stacks in order, each stack's (B, N) and (B, T)
# raveled.


# The (B, N, T) gaps of the conversations of one (turns, members) shape, 0
# for never spoken, and the stack's ranges of the split's member rows,
# turns and conversations.
_Stack = namedtuple("_Stack", "gaps span steps convs")
# Per-member scores of a split and the per-turn vectors the pass reads.
# ``c`` is what each turn's total adds to ``d @ W``: the conversation's pi sum
# at its first turn, later the pi of everyone but the previous speaker, a
# sum of nonnegative terms either way. ``low`` holds the rows with
# ``pi <= EPS_FLOOR``, the only ones that can hold floored cells as
# ``d, w >= 0``. ``nets`` is ``(f_net, pair, activations)``, or None.
_Scores = namedtuple("_Scores", "pi d low c pi_spk d_spk nets")
# ``W = table[gaps]`` per stack and ``w_obs``, W at each turn's speaker cell;
# ``backward`` takes a slope per gap to the proclivity's gradient, or is None.
_Table = namedtuple("_Table", "w w_obs backward")


class _Stacks:
    """The stacks of one data split and its index vectors: a fixed layout.

    Per turn: ``speaker`` is the speaker's row, ``gap_obs`` the gap at its
    cell, ``prev`` the slot of ``c`` to read. Per conversation: ``members``
    lists its rows, padded to the largest group with the row past the last,
    ``sizes`` counts them, and ``last`` is its last turn. A split holds no
    model output: ``gather`` and ``scores`` build a new table or new scores
    on every call, and the caller keeps them as long as it needs them.
    """

    def __init__(self, pairs):
        by_shape: dict = {}
        for roster, conv in pairs:
            if roster.size != conv.group_size:
                raise ValueError("roster size and conversation group size differ")
            by_shape.setdefault((len(conv), conv.group_size), []).append((roster, conv))
        order = [pair for members in by_shape.values() for pair in members]
        self.traits = np.concatenate([roster.traits for roster, _ in order])
        self.sizes = np.array([conv.group_size for _, conv in order])
        lengths = np.array([len(conv) for _, conv in order])
        C, K, first = len(order), self.sizes.max(), np.cumsum(self.sizes) - self.sizes
        self.last = np.cumsum(lengths) - 1
        owner = np.repeat(np.arange(C), lengths)  # each turn's conversation
        # Labels are stored compactly; widen them before the index arithmetic.
        labels = np.concatenate([c.speakers for _, c in order]).astype(np.intp) - 1
        self.speaker = first[owner] + labels
        self.prev = owner * K
        self.prev[1:] += labels[:-1]
        self.prev[self.last + 1 - lengths] = C * K + np.arange(C)
        slot = np.arange(K)
        self.members = np.where(slot < self.sizes[:, None], first[:, None] + slot, self.traits.size)
        self.others = 1.0 - np.eye(K)
        self.stacks, gap_obs, rows, steps, convs = [], [], 0, 0, 0
        for (T, N), members in by_shape.items():
            B = len(members)
            # The stack is C-ordered: the flat cell indices rely on it.
            gaps = np.stack([gap_matrix(c).T for _, c in members])
            cells = (self.speaker[steps : steps + B * T] - rows).reshape(B, T) * T + np.arange(T)
            gap_obs.append(gaps.reshape(-1).take(cells.reshape(-1)))
            self.stacks.append(_Stack(gaps, slice(rows, rows + B * N),
                                      slice(steps, steps + B * T), slice(convs, convs + B)))
            rows, steps, convs = rows + B * N, steps + B * T, convs + B
        self.gap_obs = np.concatenate(gap_obs)
        self.max_gap = max(int(s.gaps.max(initial=0)) for s in self.stacks)
        self.turns = self.speaker.size

    def gather(self, proclivity, nu=None) -> _Table:
        """The proclivity's table over the split's gaps, zeroed at gap 1: that
        is the previous speaker's cell, which the pass leaves out.

        The table comes with its backward for the gradient; ``nu``, a learned
        proclivity's parameter vector, stands in for its net's.
        """
        table, backward = proclivity._table_and_backward(self.max_gap, nu)
        table[1:2] = 0.0
        return _Table([table[s.gaps] for s in self.stacks], table.take(self.gap_obs), backward)

    def scores(self, f_net: DenseNet, pair: np.ndarray) -> _Scores:
        """The split's ``_Scores`` under ``pair``, f's and g's parameters as
        the rows of one (2, P) array, run on ``f_net``'s layout as one
        stacked forward."""
        (pi, d), acts = _forward(f_net, self.traits, pair)
        return self.record(pi, d, (f_net, pair, acts))

    def record(self, pi: np.ndarray, d: np.ndarray, nets=None) -> _Scores:
        """``_Scores`` of per-member ``pi`` and ``d`` over the split's rows."""
        padded = np.append(pi, 0.0).take(self.members)
        C, K = padded.shape
        slots = np.empty(C * K + C)
        np.matmul(padded, self.others, out=slots[: C * K].reshape(C, K))
        np.add.reduce(padded, axis=1, out=slots[C * K :])
        return _Scores(pi, d, (pi <= EPS_FLOOR).nonzero()[0], slots.take(self.prev),
                       pi.take(self.speaker), d.take(self.speaker), nets)


def _pass(stacks: _Stacks, sc: _Scores, tab: _Table):
    """Turn totals and observed-speaker scores of every turn of a split, plus its floored cells.

    The one place the likelihood is computed; a turn's NLL is
    ``log(total) - log(observed)``. Each eligible cell scores ``pi + d * w``,
    floored at ``EPS_FLOOR``. A total is ``d @ W`` plus ``c``. The floored
    cells come back as ``(rows, turns, w, cells)``: the member row, turn and
    proclivity value of each, and per stack their flat cell indices; or
    ``None`` when no row is low.
    """
    totals = np.empty(stacks.turns)
    for s, w in zip(stacks.stacks, tab.w):
        B, N, T = s.gaps.shape
        np.matmul(sc.d[s.span].reshape(B, 1, N), w, out=totals[s.steps].reshape(B, 1, T))
    totals += sc.c
    observed = tab.w_obs * sc.d_spk
    observed += sc.pi_spk
    if not sc.low.size:
        return totals, observed, None
    found = []
    for s, w in zip(stacks.stacks, tab.w):
        B, N, T = s.gaps.shape
        low = sc.low[(sc.low >= s.span.start) & (sc.low < s.span.stop)] - s.span.start
        w_low = w.reshape(B * N, T)[low]
        cells = w_low * sc.d[s.span][low, None] + sc.pi[s.span][low, None]
        r, t = np.nonzero((cells <= EPS_FLOOR) & (s.gaps.reshape(B * N, T)[low] != 1))
        turns = s.steps.start + low[r] // N * T + t
        np.add.at(totals, turns, EPS_FLOOR - cells[r, t])
        found.append((s.span.start + low[r], turns, w_low[r, t], low[r] * T + t))
    np.maximum(observed, EPS_FLOOR, out=observed)
    rows, turns, w_floored, cells = zip(*found)
    return totals, observed, (np.concatenate(rows), np.concatenate(turns),
                              np.concatenate(w_floored), cells)


def _mean_nll(stacks: _Stacks, passed) -> float:
    """Mean per-turn NLL over a split from its ``_pass``, which it only reads."""
    totals, observed, _ = passed
    return float(np.log(totals).sum() - np.log(observed).sum()) / stacks.turns


def _slopes(passed):
    """``(1/total, 1/observed, floored)`` per turn from a ``_pass``, in new
    arrays: each eligible cell's score has slope ``1/total``, less
    ``1/observed`` at the observed speaker's cell.

    A floored score is a constant: the observed speaker's loses its
    1/observed here, and every floored cell the 1/total of its turn.
    """
    totals, observed, floored = passed
    inv_observed = 1.0 / observed
    if floored is not None:
        inv_observed[observed <= EPS_FLOOR] = 0.0
    return 1.0 / totals, inv_observed, floored


def _score_gradient(stacks: _Stacks, sc: _Scores, tab: _Table, passed) -> np.ndarray:
    """(2, P) gradient of the mean per-turn NLL in f's and g's parameters from
    ``passed``, the ``_pass`` at ``(sc, tab)``, which it leaves as it was."""
    inv_totals, inv_observed, floored = _slopes(passed)
    upstream = np.empty((2, stacks.traits.size))
    dpi, dd = upstream
    conv_sums = np.empty(stacks.sizes.size)
    for s, w in zip(stacks.stacks, tab.w):
        B, N, T = s.gaps.shape
        per_turn = inv_totals[s.steps]
        np.matmul(w, per_turn.reshape(B, T, 1), out=dd[s.span].reshape(B, N, 1))
        # Per conversation in numpy's pairwise order, as a (B, T) sum.
        np.add.reduce(per_turn.reshape(B, T), axis=1, out=conv_sums[s.convs])
    dd -= np.bincount(stacks.speaker, tab.w_obs * inv_observed, dd.size)
    # Per member, the 1/total part is its conversation's sum less the turn
    # after it speaks, where it is not eligible.
    kept = inv_observed.take(stacks.last)
    inv_observed[:-1] += inv_totals[1:]
    inv_observed[stacks.last] = kept
    np.subtract(np.repeat(conv_sums, stacks.sizes),
                np.bincount(stacks.speaker, inv_observed, dpi.size), out=dpi)
    if floored is not None:
        rows, turns, w_floored, _ = floored
        lost = inv_totals.take(turns)
        dpi -= np.bincount(rows, lost, dpi.size)
        dd -= np.bincount(rows, w_floored * lost, dd.size)
    upstream *= 1.0 / stacks.turns
    net, pair, cache = sc.nets
    return _backward(net, cache, upstream, pair)


def _proclivity_gradient(stacks: _Stacks, sc: _Scores, tab: _Table, passed) -> np.ndarray:
    """Gradient of the mean per-turn NLL in the proclivity net's parameters.

    The backward runs from the activations of the table's forward pass;
    gap 1 (the previous speaker) adds nothing. ``passed`` is as for
    ``_score_gradient``.
    """
    inv_totals, inv_observed, floored = _slopes(passed)
    dtable = np.zeros(stacks.max_gap + 1)
    for i, s in enumerate(stacks.stacks):
        B, N, T = s.gaps.shape
        slopes = sc.d[s.span].reshape(B, N, 1) * inv_totals[s.steps].reshape(B, 1, T)
        if floored is not None:
            slopes.reshape(-1)[floored[3][i]] = 0.0
        dtable += np.bincount(s.gaps.reshape(-1), slopes.reshape(-1), dtable.size)
    dtable -= np.bincount(stacks.gap_obs, np.multiply(sc.d_spk, inv_observed, out=inv_observed),
                          dtable.size)
    dtable[1:2] = 0.0
    dtable *= 1.0 / stacks.turns
    return tab.backward(dtable)


def conversation_nll_gradients(bundle: ModelBundle, roster: Roster, conversation: Conversation,
                               block: str) -> dict:
    """Exact gradients of one conversation's mean per-turn NLL.

    Only the parameters of the active block are differentiated; the other
    block's outputs enter as constants. The result maps "f" and "g", or
    "nu", to a vector shaped like that net's ``params``. Variants without
    learnable parameters in the block yield an empty dict.
    """
    learns = {BLOCK_SCORES: bundle.variant in LEARNABLE_VARIANTS,
              BLOCK_PROCLIVITY: bundle.learns_proclivity}
    if block not in learns:
        raise ValueError(f"unknown block {block!r}")
    if not learns[block]:
        return {}
    stacks = _Stacks([(roster, conversation)])
    sc, tab = stacks.scores(bundle.f_net, bundle.pair), stacks.gather(bundle.proclivity)
    passed = _pass(stacks, sc, tab)
    if block == BLOCK_SCORES:
        return dict(zip("fg", _score_gradient(stacks, sc, tab, passed)))
    return {"nu": _proclivity_gradient(stacks, sc, tab, passed)}


def _direction(memory: deque, grad: np.ndarray) -> np.ndarray:
    """The L-BFGS direction ``-H g`` from a block's (s, y) pairs, oldest first.

    The two-loop recursion (Nocedal & Wright, Alg. 7.4) starts from ``H0``
    scaled by ``s.y / y.y`` of the newest pair. With no pairs, or when
    ``-H g`` does not descend (the pairs are then dropped), it is steepest
    descent scaled so that its largest entry is ``MAX_MOVE``.
    """
    if memory:
        q, alphas = grad.copy(), []
        for s, y in reversed(memory):
            alphas.append(np.vdot(s, q) / np.vdot(s, y))
            q -= alphas[-1] * y
        s, y = memory[-1]
        q *= np.vdot(s, y) / np.vdot(y, y)
        for (s, y), alpha in zip(memory, reversed(alphas)):
            q += (alpha - np.vdot(y, q) / np.vdot(s, y)) * s
        if np.vdot(grad, q) > 0:
            return -q
        memory.clear()
    return grad * (-MAX_MOVE / np.abs(grad).max())


def _checked(gradient, at, passed) -> np.ndarray:
    """The block's gradient read from the pass at ``at``; it must come out finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grad = gradient(at, passed)
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient at an accepted point")
    return grad


def _block(x: np.ndarray, at, now, memory: deque, build, run, gradient, grad=None):
    """Up to ``BLOCK_STEPS`` L-BFGS steps on one block's parameters ``x``.

    ``at`` is the model output at ``x`` that the likelihood pass reads (the
    split's scores, or its table), and ``now`` is ``(loss, pass)`` there.
    ``build(x)`` runs the forward for a new ``x``, ``run(at)`` runs the pass
    and returns its ``(loss, pass)``, and ``gradient(at, pass)`` reads the
    block's gradient from a pass; ``grad`` is that gradient at ``x``, if it
    was already read. Each step runs an Armijo backtracking search (Nocedal
    & Wright, Alg. 3.1) whose first trial moves no parameter by more than
    ``MAX_MOVE``; a trial whose forward raises ``FloatingPointError`` or
    whose loss is not finite is too long a step. The block ends at the step
    cap, when no trial passes, or once a step gains less than ``BLOCK_GAIN``
    of the loss. Returns ``(x, at, now, grad)`` at the last accepted point;
    ``memory`` keeps the block's (s, y) pairs.
    """
    loss, passed = now
    if grad is None:
        grad = _checked(gradient, at, passed)
    for _ in range(BLOCK_STEPS):
        if not grad.any():
            break
        direction = _direction(memory, grad)
        slope = np.vdot(grad, direction)
        step = min(1.0, MAX_MOVE / np.abs(direction).max())
        for _ in range(MAX_TRIALS):
            try:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    trial = x + step * direction
                    trial_at = build(trial)
                    trial_loss, trial_passed = run(trial_at)
            except FloatingPointError:
                trial_loss = np.nan
            if np.isfinite(trial_loss) and trial_loss <= loss + ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        trial_grad = _checked(gradient, trial_at, trial_passed)
        s, y = trial - x, trial_grad - grad
        if np.vdot(s, y) > 0:
            memory.append((s, y))
        stalled = loss - trial_loss < BLOCK_GAIN * abs(loss)
        x, at, loss, passed, grad = trial, trial_at, trial_loss, trial_passed, trial_grad
        if stalled:
            break
    return x, at, (loss, passed), grad


def fit(bundle: ModelBundle, training_set: TrainingSet, config: FitConfig | None = None) -> FitResult:
    """Fit f, g (and the proclivity for ``pro``) by block coordinate descent.

    Each outer iteration runs up to ``BLOCK_STEPS`` L-BFGS steps on (f, g),
    then up to as many on the proclivity network (each block keeps its
    (s, y) pairs across iterations, see ``_block``), then scores the
    validation split. Stops after ``PATIENCE`` iterations in a row
    without a gain over the best validation loss of more than ``MIN_GAIN``
    of it; else, once the current iteration is not the best snapshot, after
    ``PLATEAU`` iterations in a row that each lower the train loss by less
    than ``BLOCK_GAIN`` of it; else at ``config.max_outer``. Returns the
    snapshot of the lowest validation loss. ``nm`` and ``hm`` have nothing
    to fit and come back as is.

    The loop carries the parameters, f's and g's as one (2, P) ``pair`` and
    nu's vector (``None`` for ``exp``), the train split's scores and table
    under them and the ``(loss, pass)`` there: each trial builds the output
    its block moves, each block starts from the pass the last one ended on
    (only row 0 runs its own), and the nets are built once, from the best
    snapshot. A history row's train loss is the loss at the last accepted
    point. With no validation split its validation loss is None, and the
    fit stops on the train loss.
    """
    cfg = config or FitConfig()
    if bundle.variant not in LEARNABLE_VARIANTS:
        return FitResult(bundle=bundle, history=[])

    train = _Stacks(training_set.train)
    val = _Stacks(training_set.val) if training_set.val else None
    f_net, prox = bundle.f_net, bundle.proclivity
    pair, nu = bundle.pair, prox.net.params if bundle.learns_proclivity else None
    sc, tab = train.scores(f_net, pair), train.gather(prox, nu)
    # A fixed proclivity's validation table never changes: gather it once.
    val_tab = val.gather(prox) if val is not None and nu is None else None
    passes = 0

    def run(split, sc, tab):
        nonlocal passes
        passes += 1
        passed = _pass(split, sc, tab)
        return _mean_nll(split, passed), passed

    def watched(pair, nu, train_loss):
        """The loss the fit stops on and the row's val_loss: the validation
        loss twice, or with no validation split the train loss and None."""
        if val is None:
            return train_loss, None
        loss = run(val, val.scores(f_net, pair), val_tab if nu is None else val.gather(prox, nu))[0]
        return loss, loss

    # ``grad``: the score gradient at the current point while only the score block moves it.
    now, grad = run(train, sc, tab), None
    best_val, val_loss = watched(pair, nu, now[0])
    history = [(0, now[0], val_loss)]
    best, best_outer = (pair, nu), 0
    stall, flat, stop_reason = 0, 0, "max_outer"
    score_memory, prox_memory = deque(maxlen=MEMORY), deque(maxlen=MEMORY)

    for outer in range(1, cfg.max_outer + 1):
        pair, sc, now, grad = _block(
            pair, sc, now, score_memory, lambda pair: train.scores(f_net, pair),
            lambda sc: run(train, sc, tab),
            lambda sc, passed: _score_gradient(train, sc, tab, passed), grad)
        if nu is not None:
            nu, tab, now, _ = _block(
                nu, tab, now, prox_memory, lambda nu: train.gather(prox, nu),
                lambda tab: run(train, sc, tab),
                lambda tab, passed: _proclivity_gradient(train, sc, tab, passed))
            grad = None
        train_loss = now[0]
        loss, val_loss = watched(pair, nu, train_loss)
        if not (np.isfinite(train_loss) and np.isfinite(loss)):
            seen = "no validation split" if val is None else f"val={val_loss}"
            raise FitDivergenceError(f"non-finite loss at outer iteration {outer} "
                                     f"(train={train_loss}, {seen})")
        last_train = history[-1][1]
        history.append((outer, train_loss, val_loss))
        gained = best_val - loss > MIN_GAIN * abs(best_val)
        if loss < best_val:
            best, best_val, best_outer = (pair, nu), loss, outer
        stall = 0 if gained else stall + 1
        flat = flat + 1 if last_train - train_loss < BLOCK_GAIN * abs(last_train) else 0
        if stall >= PATIENCE:
            stop_reason = "patience"
            break
        if flat >= PLATEAU and best_outer < outer:
            stop_reason = "plateau"
            break

    if stop_reason == "max_outer" and best_outer == cfg.max_outer:
        log.warning(
            "fit of %s stopped at the iteration cap max_outer=%d while %s was still "
            "improving (best %.6g at the last iteration); it has not converged",
            bundle.variant, cfg.max_outer,
            "validation loss" if val is not None else "train loss (no validation split)",
            best_val,
        )
    pair, nu = best
    f_net, g_net = (f_net._with_params(params) for params in pair)
    if nu is not None:
        prox = LearnedProclivity(net=prox.net._with_params(nu))
    return FitResult(
        bundle=replace(bundle, f_net=f_net, g_net=g_net, proclivity=prox),
        history=history, best_outer=best_outer, stop_reason=stop_reason, passes=passes,
    )

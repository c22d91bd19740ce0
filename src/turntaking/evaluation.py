"""Test-set evaluation, multi-trial experiments, and rescaled-curve export.

Evaluation scores a model on held-out conversations with two metrics: the
mean per-turn negative log-likelihood and its class-weighted counterpart.
A model here is either a fitted ModelBundle or a TrueModel that looks up
the generating scores, so synthetic experiments can report how close the
learned variants come to the ceiling.

run_experiment drives the full protocol: per trial, generate a synthetic
dataset, fit the learnable variants on the train/validation splits,
evaluate every variant on the test groups, and compute rescaled proclivity
curves. Numeric failures of individual fits (see ``NUMERIC_FAILURES``) are
recorded and skipped rather than aborting the experiment; any other error
propagates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .model import (
    DegenerateDistributionError,
    Roster,
    ScoreParams,
    ZeroLikelihoodError,
    class_weights,
)
from .proclivity import (
    CURVE_DELTA_MAX,
    CURVE_DELTA_MIN,
    DEFAULT_DELTA_SCALE,
    DegenerateRatioError,
    ProclivityCurve,
    by_name,
    default_trait_grid,
    rescaled_curve,
)
from .synthgen import (
    STREAM_FIT,
    Group,
    SynthConfig,
    generate_dataset,
    traits_to_scores,
)
from .training import (
    DEFAULT_HIDDEN,
    FitConfig,
    FitDivergenceError,
    LEARNABLE_VARIANTS,
    ModelBundle,
    TrainingSet,
    VARIANTS,
    _build_stacks,
    _likelihood_pass,
    fit,
    predict_scores,
)

log = logging.getLogger(__name__)

METRICS = ("nll", "nll_turn")
TRUE_VARIANT = "true"

# Numeric failures of a fit or an evaluation: a trial records them per
# variant, and the CLI maps them to its numeric-failure exit code. Anything
# else is a bug and propagates.
NUMERIC_FAILURES = (
    FitDivergenceError,
    ZeroLikelihoodError,
    DegenerateDistributionError,
    DegenerateRatioError,
    FloatingPointError,
)

# Slot in the seed-stream path reserved for per-variant fit seeds; group ids
# occupy the same slot but only with the traits/conversation purposes.
_VARIANT_CODES = {name: i + 1 for i, name in enumerate(LEARNABLE_VARIANTS)}


class MissingGroundTruthError(KeyError):
    """A TrueModel was asked about a group it has no scores for."""


@dataclass(frozen=True)
class TrueModel:
    """Evaluator holding the generating scores instead of predictions."""

    scores_by_group: dict
    proclivity: object

    def scores_for(self, group: Group) -> ScoreParams:
        try:
            return self.scores_by_group[group.group_id]
        except KeyError:
            raise MissingGroundTruthError(group.group_id) from None


def true_model(groups, proclivity) -> TrueModel:
    return TrueModel(
        scores_by_group={g.group_id: g.scores for g in groups if g.scores is not None},
        proclivity=proclivity,
    )


def _scores_for(model, group: Group) -> ScoreParams:
    if isinstance(model, ModelBundle):
        return predict_scores(model, group.roster)
    return model.scores_for(group)


@dataclass(frozen=True, slots=True)
class GroupLoss:
    group_id: int
    nll: float
    nll_turn: float
    turns: int


@dataclass(frozen=True)
class EvalSummary:
    """Per-group losses plus turn-weighted means and raw across-group sums."""

    groups: tuple
    nll: float
    nll_turn: float
    nll_sum: float
    nll_turn_sum: float

    def metric(self, name: str) -> float:
        return {"nll": self.nll, "nll_turn": self.nll_turn}[name]


def evaluate(model, groups) -> EvalSummary:
    """Both losses per group, aggregated by turn-weighted mean.

    ``model`` is a ModelBundle or TrueModel. Each group is scored by the
    likelihood pass that ``fit`` minimises. The raw sums add up per-group
    mean losses without turn weighting; with equal-length conversations the
    weighted mean is exactly the plain mean of the per-group values.
    """
    if not groups:
        raise ValueError("need at least one group to evaluate")
    rows = []
    for group in groups:
        scores = _scores_for(model, group)
        conversation = group.conversation
        if scores.size != conversation.group_size:
            raise ValueError(
                f"group {group.group_id}: {scores.size} scores for "
                f"{conversation.group_size} members"
            )
        # One stack per group: a stack of the whole split would hold every
        # group's cells in memory at once.
        stacks = _build_stacks([(group.roster, conversation)])
        (stack,) = stacks
        (w,) = stacks.gather(model.proclivity)
        # Finite scores can still overflow the turn totals; the loss check
        # below reports that as ZeroLikelihoodError, so numpy's own warning
        # would only be noise ahead of it.
        with np.errstate(over="ignore", invalid="ignore"):
            _, totals, observed = _likelihood_pass(
                stack, w, scores.inherent[None], scores.memory[None]
            )
            turn_nll = np.log(totals[0]) - np.log(observed[0])
        nll = float(turn_nll.mean())
        if not np.isfinite(nll):
            raise ZeroLikelihoodError(f"group {group.group_id}: non-finite loss {nll}")
        rows.append(
            GroupLoss(
                group_id=group.group_id,
                nll=nll,
                nll_turn=float((class_weights(conversation) * turn_nll).mean()),
                turns=len(conversation),
            )
        )
    turns = np.array([r.turns for r in rows], dtype=float)
    nlls = np.array([r.nll for r in rows])
    nll_turns = np.array([r.nll_turn for r in rows])
    weights = turns / turns.sum()
    return EvalSummary(
        groups=tuple(rows),
        nll=float(weights @ nlls),
        nll_turn=float(weights @ nll_turns),
        nll_sum=float(nlls.sum()),
        nll_turn_sum=float(nll_turns.sum()),
    )


def model_curve(model, trait_grid=None, gaps=None) -> ProclivityCurve:
    """Rescaled proclivity curve for a bundle or the true synthetic model."""
    grid = default_trait_grid() if trait_grid is None else np.asarray(trait_grid, dtype=float)
    if isinstance(model, ModelBundle):
        scores = predict_scores(model, Roster(grid))
    else:
        scores = traits_to_scores(grid)
    return rescaled_curve(scores.inherent, scores.memory, model.proclivity, gaps=gaps)


@dataclass(frozen=True)
class ExperimentConfig:
    """Synthetic-world, fit, variant, and curve settings for one experiment."""

    synth: SynthConfig = field(default_factory=SynthConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    variants: tuple = VARIANTS
    curve_lo: int = CURVE_DELTA_MIN
    curve_hi: int = CURVE_DELTA_MAX
    hidden: tuple = DEFAULT_HIDDEN
    delta_scale: float = DEFAULT_DELTA_SCALE
    activation: str = "tanh"

    def __post_init__(self):
        if not self.variants:
            raise ValueError("need at least one variant")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants: {sorted(unknown)}")
        if not 1 <= self.curve_lo < self.curve_hi:
            raise ValueError("curve grid must satisfy 1 <= lo < hi")
        if not 0 < self.delta_scale < np.inf:
            raise ValueError(f"delta_scale must be positive and finite, got {self.delta_scale}")

    @property
    def curve_gaps(self) -> np.ndarray:
        return np.arange(self.curve_lo, self.curve_hi + 1)


@dataclass
class TrialResult:
    """Evaluations and curves for one trial; failures recorded per variant."""

    trial: int
    losses: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return not self.losses


@dataclass
class EvalReport:
    config: ExperimentConfig
    trials: list

    def trial_values(self, variant: str, metric: str) -> list:
        """Aggregated metric per successful trial, in trial order."""
        return [
            t.losses[variant].metric(metric)
            for t in self.trials
            if variant in t.losses
        ]

    def mean_curve(self, variant: str) -> ProclivityCurve:
        """Trial-averaged curve for one variant."""
        curves = [t.curves[variant] for t in self.trials if variant in t.curves]
        if not curves:
            raise ValueError(f"no successful curves for variant {variant!r}")
        gaps = curves[0].gaps
        values = np.mean([c.values for c in curves], axis=0)
        return ProclivityCurve(gaps=gaps, values=values)


def boxplot_stats(values) -> dict:
    """Median, quartiles, and Tukey whiskers (1.5 IQR) for one cell."""
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValueError("no values to summarize")
    q1, median, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    in_lo = vals[vals >= q1 - 1.5 * iqr]
    in_hi = vals[vals <= q3 + 1.5 * iqr]
    return {
        "median": float(median),
        "q1": float(q1),
        "q3": float(q3),
        "lo_whisker": float(in_lo.min()),
        "hi_whisker": float(in_hi.max()),
    }


def _run_trial(config: ExperimentConfig, trial: int) -> TrialResult:
    result = TrialResult(trial=trial)
    try:
        dataset = generate_dataset(config.synth, trial)
    except Exception as exc:  # data generation sinks the whole trial
        for variant in config.variants:
            result.failures[variant] = f"generation failed: {exc}"
        return result

    training_set = TrainingSet(dataset.pairs("train"), dataset.pairs("val"))
    gaps = config.curve_gaps

    truth = true_model(dataset.all_groups, by_name(config.synth.proclivity))
    result.losses[TRUE_VARIANT] = evaluate(truth, dataset.test)
    result.curves[TRUE_VARIANT] = model_curve(truth, gaps=gaps)

    for variant in config.variants:
        try:
            bundle = ModelBundle.make(
                variant,
                seed=np.random.SeedSequence(
                    config.synth.master_seed,
                    spawn_key=(trial, _VARIANT_CODES.get(variant, 0), STREAM_FIT),
                ),
                hidden=config.hidden,
                delta_scale=config.delta_scale,
                activation=config.activation,
            )
            if variant in LEARNABLE_VARIANTS:
                bundle = fit(bundle, training_set, config.fit).bundle
            result.losses[variant] = evaluate(bundle, dataset.test)
            result.curves[variant] = model_curve(bundle, gaps=gaps)
        except NUMERIC_FAILURES as exc:
            log.warning("trial %d variant %s failed: %s", trial, variant, exc)
            result.failures[variant] = str(exc)
    return result


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> EvalReport:
    """Generate, fit, and evaluate all trials; deterministic per master seed.

    Trials are independent; ``parallel`` > 1 distributes them over worker
    processes with results assembled in trial order either way.
    """
    trials = range(1, config.synth.trials + 1)
    if parallel > 1:
        # Imported here: the process pool costs import time and memory that
        # sequential runs never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_run_trial, [config] * len(trials), trials))
    else:
        results = []
        for trial in trials:
            results.append(_run_trial(config, trial))
            log.info("trial %d/%d done", trial, config.synth.trials)
    return EvalReport(config=config, trials=results)

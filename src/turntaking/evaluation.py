"""Test-set evaluation, multi-trial experiments, and rescaled-curve export.

Evaluation scores a model on held-out conversations with two metrics: the
mean per-turn negative log-likelihood and its class-weighted counterpart.
A model here is either a fitted ModelBundle or a TrueModel that scores each
group by the group's own generating scores, so synthetic experiments can
report how close the learned variants come to the ceiling.

run_experiment drives the full protocol: per trial, generate a synthetic
dataset, fit the learnable variants on the train/validation splits,
evaluate every variant on the test groups, and compute rescaled proclivity
curves, and keeps a ``FitRecord`` of each fit. Numeric failures (see
``NUMERIC_FAILURES``) of a trial's data generation or of individual fits are
recorded and skipped rather than aborting the experiment; any other error
propagates.
"""

from __future__ import annotations

import logging
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .model import (
    DegenerateDistributionError,
    Roster,
    ScoreParams,
    ZeroLikelihoodError,
    class_weights,
)
from .proclivity import DegenerateRatioError, ProclivityCurve, by_name, rescaled_curve
from .synthgen import (
    STREAM_FIT,
    TRAIT_GRID,
    Group,
    SynthConfig,
    generate_dataset,
    traits_to_scores,
)
from .training import (
    FitConfig,
    FitDivergenceError,
    LEARNABLE_VARIANTS,
    ModelBundle,
    TrainingSet,
    VARIANTS,
    _Stacks,
    _pass,
    fit,
    predict_scores,
)

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class TrueModel:
    """Evaluator that scores each group by its own ``Group.scores``, not predictions."""

    proclivity: object

    def scores_for(self, group: Group) -> ScoreParams:
        if group.scores is None:
            raise ValueError(f"group {group.group_id} has no true scores")
        return group.scores


def true_model(groups, proclivity) -> TrueModel:
    """The true model of ``groups``, each of which must carry its scores."""
    model = TrueModel(proclivity)
    for group in groups:
        model.scores_for(group)
    return model


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
        # One split per group: a split of all groups would hold every
        # group's cells in memory at once.
        stacks = _Stacks([(group.roster, conversation)])
        # Finite scores can still overflow the turn totals; the loss check
        # below reports that as ZeroLikelihoodError, so numpy's own warning
        # would only be noise ahead of it.
        with np.errstate(over="ignore", invalid="ignore"):
            totals, observed, _ = _pass(
                stacks, stacks.record(scores.inherent, scores.memory), stacks.gather(model.proclivity)
            )
            turn_nll = np.log(totals) - np.log(observed)
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


def model_curve(model) -> ProclivityCurve:
    """Rescaled proclivity curve for a bundle or the true synthetic model,
    its score ratio averaged over ``TRAIT_GRID``."""
    if isinstance(model, ModelBundle):
        scores = predict_scores(model, Roster(TRAIT_GRID))
    else:
        scores = traits_to_scores(TRAIT_GRID)
    return rescaled_curve(scores.inherent, scores.memory, model.proclivity)


@dataclass(frozen=True)
class ExperimentConfig:
    """Synthetic-world, fit, and variant settings for one experiment.

    No net setting: every trial builds its nets at ``neural.DEFAULT_HIDDEN``.
    """

    synth: SynthConfig = field(default_factory=SynthConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    variants: tuple = VARIANTS

    def __post_init__(self):
        if not self.variants:
            raise ValueError("need at least one variant")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants: {sorted(unknown)}")
        repeated = sorted({v for v in self.variants if self.variants.count(v) > 1})
        if repeated:
            raise ValueError(f"variants named more than once: {repeated}")


# How one fit of a trial ended: ``FitResult``'s stop reason, best snapshot
# and pass count, and its outer iteration count.
FitRecord = namedtuple("FitRecord", "stop_reason best_outer outer_iters passes")


@dataclass
class TrialResult:
    """Evaluations and curves for one trial; failures recorded per variant.

    ``fits`` holds a ``FitRecord`` per learnable variant whose fit returned;
    a fit that raised is only a failure.
    """

    trial: int
    losses: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Whether data generation failed: the true model is scored right after it."""
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
    except NUMERIC_FAILURES as exc:  # a numeric failure of generation sinks the whole trial
        for variant in config.variants:
            result.failures[variant] = f"generation failed: {exc}"
        return result

    training_set = TrainingSet(dataset.pairs("train"), dataset.pairs("val"))

    truth = true_model(dataset.all_groups, by_name(config.synth.proclivity))
    result.losses[TRUE_VARIANT] = evaluate(truth, dataset.test)
    result.curves[TRUE_VARIANT] = model_curve(truth)

    for variant in config.variants:
        try:
            bundle = ModelBundle.make(
                variant,
                seed=np.random.SeedSequence(
                    config.synth.master_seed,
                    spawn_key=(trial, _VARIANT_CODES.get(variant, 0), STREAM_FIT),
                ),
            )
            if variant in LEARNABLE_VARIANTS:
                fitted = fit(bundle, training_set, config.fit)
                bundle = fitted.bundle
                result.fits[variant] = FitRecord(fitted.stop_reason, fitted.best_outer,
                                                 len(fitted.history) - 1, fitted.passes)
            result.losses[variant] = evaluate(bundle, dataset.test)
            result.curves[variant] = model_curve(bundle)
        except NUMERIC_FAILURES as exc:
            log.warning("trial %d variant %s failed: %s", trial, variant, exc)
            result.failures[variant] = str(exc)
    return result


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> EvalReport:
    """Generate, fit, and evaluate all trials; deterministic per master seed.

    Trials are independent; ``parallel`` > 1 distributes them over at most
    one worker process per trial, with results assembled in trial order
    either way. A ``parallel`` below 1 is a ValueError.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be at least 1, got {parallel}")
    trials = range(1, config.synth.trials + 1)
    # A process pool starts all its workers at the first submit, so more
    # workers than trials would only be processes that never get one.
    workers = min(parallel, len(trials))
    if workers > 1:
        # Imported here: the process pool costs import time and memory that
        # sequential runs never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, [config] * len(trials), trials))
    else:
        results = []
        for trial in trials:
            results.append(_run_trial(config, trial))
            log.info("trial %d/%d done", trial, config.synth.trials)
    return EvalReport(config=config, trials=results)

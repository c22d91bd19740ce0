"""Probabilistic modeling, fitting, and simulation of group turn-taking.

The model scores each member's inclination to take the next turn from an
inherent score, a memory score, and a proclivity function of how long ago
they last spoke; turn probabilities are the normalized scores with the
previous speaker excluded. The package provides the model core, fixed and
learnable proclivities, maximum-likelihood fitting by block coordinate
descent, synthetic data generation with known ground truth, evaluation
with plain and class-weighted losses, and a CLI for full experiments.
"""

from .model import (
    Conversation,
    DegenerateDistributionError,
    Roster,
    ScoreParams,
    ZeroLikelihoodError,
    gap_matrix,
    sample_conversation,
    sample_conversations,
)
from .proclivity import (
    DegenerateRatioError,
    ExpDecayProclivity,
    LearnedProclivity,
    ProclivityCurve,
    SigmoidProclivity,
    by_name,
)
from .synthgen import (
    Group,
    SynthConfig,
    SynthDataset,
    generate_dataset,
    substream,
    traits_to_scores,
)
from .training import (
    FitConfig,
    FitDivergenceError,
    FitResult,
    ModelBundle,
    TrainingSet,
    conversation_nll_gradients,
    fit,
)
from .evaluation import (
    EvalReport,
    EvalSummary,
    ExperimentConfig,
    GroupLoss,
    TrialResult,
    evaluate,
    model_curve,
    run_experiment,
    true_model,
)

__version__ = "0.1.0"

__all__ = [
    "Conversation",
    "DegenerateDistributionError",
    "DegenerateRatioError",
    "EvalReport",
    "EvalSummary",
    "ExpDecayProclivity",
    "ExperimentConfig",
    "FitConfig",
    "FitDivergenceError",
    "FitResult",
    "Group",
    "GroupLoss",
    "LearnedProclivity",
    "ModelBundle",
    "ProclivityCurve",
    "Roster",
    "ScoreParams",
    "SigmoidProclivity",
    "SynthConfig",
    "SynthDataset",
    "TrainingSet",
    "TrialResult",
    "ZeroLikelihoodError",
    "by_name",
    "conversation_nll_gradients",
    "evaluate",
    "fit",
    "gap_matrix",
    "generate_dataset",
    "model_curve",
    "run_experiment",
    "sample_conversation",
    "sample_conversations",
    "substream",
    "traits_to_scores",
    "true_model",
]

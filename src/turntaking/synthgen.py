"""Synthetic conversation worlds with known ground-truth scores.

Each group draws a latent trait per member uniformly from the trait
interval ``[TRAIT_LOW, TRAIT_HIGH]``, maps traits to inherent and memory
scores through fixed nonlinear curves, and rolls out a conversation from
the generative model. The trait-to-score maps are chosen so that
talkative members (high inherent score) also hold the floor longer (high
memory score), with the memory score spanning roughly a 4x range across the
trait interval.

Randomness is split into named substreams keyed by (trial, group, purpose)
so that, for example, regenerating conversations with a different proclivity
reuses the exact same rosters, and so that ``generate_datasets`` can sample
many trials' groups in one lockstep call and give each trial the dataset
``generate_dataset`` builds for it alone.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .model import Conversation, Roster, ScoreParams, sample_conversations
from .proclivity import by_name

# Purpose codes for substream spawning.
STREAM_TRAITS = 0
STREAM_CONV = 1
STREAM_FIT = 2

TRAIT_LOW = 0.1
TRAIT_HIGH = 1.0
# The traits a rescaled curve's score ratio averages over.
TRAIT_GRID = np.linspace(TRAIT_LOW, TRAIT_HIGH, 50)
TRAIT_GRID.flags.writeable = False


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """An independent generator for one (trial, group, purpose) path."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(path)))


def pi_of_trait(trait: np.ndarray) -> np.ndarray:
    """Inherent score: sqrt of the trait, in (0, 1] over the trait interval."""
    trait = np.asarray(trait, dtype=float)
    _check_traits(trait)
    return np.sqrt(trait)


def d_of_trait(trait: np.ndarray) -> np.ndarray:
    """Memory score: a rising saturating curve from about 6.8 to about 27.2.

    The curve is (15e/2) * [(exp(-2(1.1 - x)) - exp(-2)) / (exp(-0.2) - exp(-2)) + 1/3]
    over x in [0.1, 1], so d(0.1) = 2.5e and d(1) = 10e.
    """
    trait = np.asarray(trait, dtype=float)
    _check_traits(trait)
    num = np.exp(-2.0 * (1.1 - trait)) - np.exp(-2.0)
    den = np.exp(-0.2) - np.exp(-2.0)
    return (15.0 * np.e / 2.0) * (num / den + 1.0 / 3.0)


def traits_to_scores(traits) -> ScoreParams:
    """Ground-truth score pair for a trait vector or Roster."""
    if isinstance(traits, Roster):
        traits = traits.traits
    return ScoreParams(pi_of_trait(traits), d_of_trait(traits))


def _check_traits(trait: np.ndarray) -> None:
    if trait.size and (trait.min() < TRAIT_LOW or trait.max() > TRAIT_HIGH):
        raise ValueError(f"traits must lie in [{TRAIT_LOW}, {TRAIT_HIGH}]")


@dataclass(frozen=True)
class SynthConfig:
    """Sizes, proclivity, and seeding of a synthetic world.

    ``train_groups``, ``val_groups`` and ``test_groups`` are the only split
    counts: a trial fits on ``train_groups + val_groups`` groups. For
    callers that still pass it, the keyword ``groups_total`` is accepted
    when it equals that sum; it is neither stored nor read.
    """

    train_groups: int = 10
    val_groups: int = 5
    test_groups: int = 5
    members: int = 5
    turns: int = 800
    proclivity: str = "exp"
    trials: int = 10
    master_seed: int = 0
    groups_total: InitVar[int | None] = None

    def __post_init__(self, groups_total):
        if groups_total is not None and groups_total != self.train_groups + self.val_groups:
            raise ValueError("train_groups + val_groups must equal groups_total")
        if min(self.train_groups, self.val_groups, self.test_groups) < 1:
            raise ValueError("every split needs at least one group")
        if self.members < 2:
            raise ValueError("groups need at least two members")
        if self.turns < 1:
            raise ValueError("conversations need at least one turn")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        by_name(self.proclivity)  # reject unknown names early


@dataclass(frozen=True, slots=True)
class Group:
    """One group: roster, conversation, and ground-truth scores if known.

    ``scores`` is None for observed data loaded without a scores file.
    """

    group_id: int
    roster: Roster
    scores: ScoreParams | None
    conversation: Conversation


@dataclass
class SynthDataset:
    """Train / validation / test groups for one trial."""

    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)

    @property
    def all_groups(self) -> list:
        return [*self.train, *self.val, *self.test]

    def pairs(self, split: str) -> list:
        groups = getattr(self, split)
        return [(g.roster, g.conversation) for g in groups]


def sample_traits(config: SynthConfig, rng: np.random.Generator) -> Roster:
    return Roster(rng.uniform(TRAIT_LOW, TRAIT_HIGH, size=config.members))


def _make_groups(config: SynthConfig, keys) -> list:
    """Generate groups from their own substreams, sampled in one lockstep call.

    ``keys`` holds a (trial, group id) pair per group. Each roster comes
    from its group's traits substream and each conversation from its conv
    substream, so a group is the same whichever other groups, of its own
    trial or of others, are generated with it.
    """
    rosters = [
        sample_traits(config, substream(config.master_seed, trial, gid, STREAM_TRAITS))
        for trial, gid in keys
    ]
    scores = [traits_to_scores(roster.traits) for roster in rosters]
    conversations = sample_conversations(
        scores,
        by_name(config.proclivity),
        config.turns,
        [substream(config.master_seed, trial, gid, STREAM_CONV) for trial, gid in keys],
    )
    return [
        Group(group_id=gid, roster=roster, scores=params, conversation=conversation)
        for (_, gid), roster, params, conversation in zip(keys, rosters, scores, conversations)
    ]


def generate_datasets(config: SynthConfig, trials) -> list:
    """Each trial's dataset, in the order of ``trials``, from one lockstep call.

    A trial's dataset equals ``generate_dataset(config, trial)`` group by
    group. A numeric failure of any trial's sampling raises for the call.
    """
    n_train, n_fit = config.train_groups, config.train_groups + config.val_groups
    n = n_fit + config.test_groups
    groups = _make_groups(config, [(trial, gid) for trial in trials for gid in range(1, n + 1)])
    return [
        SynthDataset(train=groups[k:k + n_train], val=groups[k + n_train:k + n_fit],
                     test=groups[k + n_fit:k + n])
        for k in range(0, len(groups), n)
    ]


def generate_dataset(config: SynthConfig, trial: int = 1) -> SynthDataset:
    """All groups for one trial: train, then validation, then test groups,
    with ids 1..train_groups+val_groups+test_groups in that order."""
    return generate_datasets(config, [trial])[0]

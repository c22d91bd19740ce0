"""Synthetic conversation worlds with known ground-truth scores.

Each group draws a latent trait per member uniformly from an interval, maps
traits to inherent and memory scores through fixed nonlinear curves, and
rolls out a conversation from the generative model. The trait-to-score maps
are chosen so that talkative members (high inherent score) also hold the
floor longer (high memory score), with the memory score spanning roughly a
4x range across the trait interval.

Randomness is split into named substreams keyed by (trial, group, purpose)
so that, for example, regenerating conversations with a different proclivity
reuses the exact same rosters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Conversation, Roster, ScoreParams, sample_conversations
from .proclivity import by_name

# Purpose codes for substream spawning.
STREAM_TRAITS = 0
STREAM_CONV = 1
STREAM_FIT = 2

TRAIT_LOW = 0.1
TRAIT_HIGH = 1.0


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
    """Sizes, trait interval, proclivity, and seeding of a synthetic world."""

    groups_total: int = 15
    train_groups: int = 10
    val_groups: int = 5
    test_groups: int = 5
    members: int = 5
    turns: int = 800
    trait_low: float = TRAIT_LOW
    trait_high: float = TRAIT_HIGH
    proclivity: str = "exp"
    trials: int = 10
    master_seed: int = 0

    def __post_init__(self):
        if self.train_groups + self.val_groups != self.groups_total:
            raise ValueError("train_groups + val_groups must equal groups_total")
        if min(self.groups_total, self.train_groups, self.val_groups, self.test_groups) < 1:
            raise ValueError("every split needs at least one group")
        if self.members < 2:
            raise ValueError("groups need at least two members")
        if self.turns < 1:
            raise ValueError("conversations need at least one turn")
        if not (TRAIT_LOW <= self.trait_low < self.trait_high <= TRAIT_HIGH):
            raise ValueError(f"trait interval must sit inside [{TRAIT_LOW}, {TRAIT_HIGH}]")
        if self.trials < 1:
            raise ValueError("need at least one trial")
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
    return Roster(rng.uniform(config.trait_low, config.trait_high, size=config.members))


def _make_groups(config: SynthConfig, trial: int, group_ids) -> list:
    """Generate groups from their own substreams, sampled in lockstep.

    Each roster comes from its group's traits substream and each
    conversation from its conv substream, so a group is the same whichever
    other groups are generated with it.
    """
    rosters = [
        sample_traits(config, substream(config.master_seed, trial, gid, STREAM_TRAITS))
        for gid in group_ids
    ]
    scores = [traits_to_scores(roster.traits) for roster in rosters]
    conversations = sample_conversations(
        scores,
        by_name(config.proclivity),
        config.turns,
        [substream(config.master_seed, trial, gid, STREAM_CONV) for gid in group_ids],
    )
    return [
        Group(group_id=gid, roster=roster, scores=params, conversation=conversation)
        for gid, roster, params, conversation in zip(group_ids, rosters, scores, conversations)
    ]


def make_group(config: SynthConfig, trial: int, group_id: int) -> Group:
    """Generate one group from its own substreams."""
    return _make_groups(config, trial, [group_id])[0]


def generate_dataset(config: SynthConfig, trial: int = 1) -> SynthDataset:
    """All groups for one trial; ids run 1..groups_total+test_groups."""
    n_fit = config.groups_total
    groups = _make_groups(config, trial, range(1, n_fit + config.test_groups + 1))
    return SynthDataset(
        train=groups[: config.train_groups],
        val=groups[config.train_groups : n_fit],
        test=groups[n_fit:],
    )

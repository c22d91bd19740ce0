"""Core turn-taking model: gaps, speaking scores, turn classes, sampling.

A group of N members takes turns speaking. At every turn each member i has a
nonnegative speaking score

    u_i = (pi_i + d_i * w(gap_i)) * [gap_i != 1]

where ``pi_i`` is the member's inherent tendency to speak, ``d_i`` scales a
recency effect, ``w`` maps the number of turns since the member last spoke
(the gap) to a proclivity value, and the previous speaker (gap == 1) is
excluded because a turn only ends when somebody else starts. Members who have
not yet spoken keep their inherent score, so the very first turn is governed
by ``pi`` alone. The next speaker is distributed as ``u / sum(u)``.

The per-turn negative log-likelihood of observed conversations, which
``fit`` minimises and ``evaluate`` reports, is computed in one batched pass
in ``training.py``. Sampling, in ``sample_conversations``, advances every
group of a batch of equal-sized groups by one turn per step.

Members are labeled 1..N in all public inputs and outputs; vectors are plain
numpy arrays where position k belongs to member k+1. Gaps are positive
integers, with the sentinel ``NEVER`` (0) marking members who have not spoken.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

NEVER = 0  # gap sentinel: the member has not spoken yet

# Floor applied to eligible scores inside the likelihood pass only
# (training._likelihood_pass), so a model that assigns (numerically) zero
# mass to an observed speaker yields a large but finite loss instead of
# -log 0. Sampling never uses it.
EPS_FLOOR = 1e-8


class DegenerateDistributionError(ValueError):
    """All speaking scores are zero: no member can take the next turn."""


class ZeroLikelihoodError(ValueError):
    """A group's loss is not finite even after flooring.

    The floor keeps every observed speaker's score positive, so this means
    finite scores overflowed the turn totals.
    """


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


@dataclass(frozen=True, slots=True)
class Roster:
    """Scalar trait per member of one group."""

    traits: np.ndarray

    def __post_init__(self):
        arr = _as_float_vector(self.traits, "traits")
        if arr.size < 2:
            raise ValueError("a roster needs at least 2 members")
        if not np.all(np.isfinite(arr)):
            raise ValueError("traits must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "traits", arr)

    @property
    def size(self) -> int:
        return int(self.traits.size)


@dataclass(frozen=True, slots=True)
class Conversation:
    """Ordered speaker labels s(1..T), each in 1..group_size.

    Consecutive entries never repeat: a turn ends when another member speaks.
    Labels are stored in the smallest unsigned dtype that holds group_size
    (uint8 up to 255 members); cast to a wide integer before arithmetic that
    can leave that range.
    """

    speakers: np.ndarray
    group_size: int

    def __post_init__(self):
        arr = np.asarray(self.speakers, dtype=int)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("speakers must be a nonempty 1-d sequence")
        if self.group_size < 2:
            raise ValueError("group_size must be at least 2")
        if arr.min() < 1 or arr.max() > self.group_size:
            raise ValueError("speaker labels must lie in 1..group_size")
        if np.any(arr[1:] == arr[:-1]):
            raise ValueError("consecutive turns cannot share a speaker")
        # Cast only now that every label is known to lie in 1..group_size.
        arr = arr.astype(np.min_scalar_type(self.group_size))
        arr.flags.writeable = False
        object.__setattr__(self, "speakers", arr)

    def __len__(self) -> int:
        return int(self.speakers.size)


@dataclass(frozen=True, slots=True)
class ScoreParams:
    """Per-member inherent scores ``pi`` and memory scores ``d``."""

    inherent: np.ndarray
    memory: np.ndarray

    def __post_init__(self):
        pi = _as_float_vector(self.inherent, "inherent")
        d = _as_float_vector(self.memory, "memory")
        if pi.size != d.size:
            raise ValueError("inherent and memory must have equal length")
        for name, arr in (("inherent", pi), ("memory", d)):
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} scores must be finite and nonnegative")
        pi.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "inherent", pi)
        object.__setattr__(self, "memory", d)

    @property
    def size(self) -> int:
        return int(self.inherent.size)

    def scaled(self, factor: float) -> "ScoreParams":
        return ScoreParams(self.inherent * factor, self.memory * factor)


class TurnClass(IntEnum):
    """Four-way classification of a turn by the local floor pattern."""

    FLOOR = 0
    BROKEN_FLOOR = 1
    REGAIN = 2
    NONFLOOR = 3


def gap_matrix(conversation: Conversation, horizon: int | None = None) -> np.ndarray:
    """Stacked gaps for turns 1..horizon (default T), shape (horizon, N)."""
    T = len(conversation)
    H = T if horizon is None else horizon
    if not 1 <= H <= T + 1:
        raise ValueError(f"horizon {H} outside 1..{T + 1}")
    # Row r holds the gaps at turn r + 1, so turn j is recorded from row j
    # on: scatter j into its speaker's column, then carry the latest turn
    # down each column.
    last = np.zeros((H, conversation.group_size), dtype=int)
    recorded = np.arange(1, H)
    last[recorded, conversation.speakers[: H - 1] - 1] = recorded
    last = np.maximum.accumulate(last, axis=0)
    return np.where(last > 0, np.arange(1, H + 1)[:, None] - last, NEVER)


def classify_turns(conversation: Conversation) -> np.ndarray:
    """TurnClass value for every turn, as an int array of length T.

    FLOOR: the speaker from two turns ago retakes the turn. BROKEN_FLOOR:
    someone else interrupts an ongoing two-person exchange. REGAIN: the
    speaker from three turns back recovers the floor after a one-turn
    interruption of an exchange. Everything else, including early turns whose
    look-back turns do not exist, is NONFLOOR. The first class that applies
    wins.
    """
    s = conversation.speakers

    def back(k: int) -> np.ndarray:
        # Speaker k turns back; a missing turn gets the sentinel -k, which
        # equals no label and no other look-back's sentinel.
        shifted = np.full(s.size, -k)
        shifted[k:] = s[:-k]
        return shifted

    s1, s2, s3, s4 = back(1), back(2), back(3), back(4)
    return np.select(
        [s == s2, s1 == s3, (s == s3) & (s3 != s1) & (s2 == s4)],
        [TurnClass.FLOOR, TurnClass.BROKEN_FLOOR, TurnClass.REGAIN],
        default=TurnClass.NONFLOOR,
    )


def class_weights(conversation: Conversation) -> np.ndarray:
    """Per-turn inverse-frequency weights equalizing the four turn classes.

    A turn in class k gets weight T / (4 * T_k); empty classes contribute no
    turns and define no weight. When all four classes occur, the weights sum
    to T exactly.
    """
    classes = classify_turns(conversation)
    counts = np.bincount(classes, minlength=len(TurnClass))
    return len(conversation) / (len(TurnClass) * counts[classes])


def _checked_table(proclivity, max_gap: int) -> np.ndarray:
    """The proclivity's values at gaps 0..max_gap, all finite and nonnegative."""
    table = np.asarray(proclivity.table(max_gap), dtype=float)
    bad = np.flatnonzero(~(np.isfinite(table) & (table >= 0)))
    if bad.size:
        gap = int(bad[0])
        raise ValueError(
            f"proclivity {type(proclivity).__name__} gives {table[gap]!r} at gap {gap}; "
            "its values must be finite and nonnegative"
        )
    return table


def sample_conversations(
    params_list, proclivity, length: int, rngs
) -> list[Conversation]:
    """Simulate one conversation per group, all groups turn by turn in lockstep.

    The groups share their size N and the proclivity; group k has scores
    ``params_list[k]`` and draws only from ``rngs[k]``, one uniform per turn,
    so its conversation and the state its generator is left in do not depend
    on which other groups are sampled with it. Raises
    ``DegenerateDistributionError`` naming the group if at some turn none of
    its members has a positive score.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if not params_list or len(params_list) != len(rngs):
        raise ValueError("need one random generator per group, and at least one group")
    N = params_list[0].size
    if any(params.size != N for params in params_list):
        raise ValueError("groups sampled together must have equal sizes")
    # A gap of ``length`` or more cannot occur within ``length`` turns.
    table = _checked_table(proclivity, length - 1)
    pi = np.stack([params.inherent for params in params_list])
    d = np.stack([params.memory for params in params_list])
    draws = np.stack([rng.random(length) for rng in rngs], axis=1)
    G = len(params_list)
    rows = np.arange(G)
    gaps = np.full((G, N), NEVER)
    speakers = np.empty((length, G), dtype=np.intp)
    for t in range(length):
        u = table[gaps] * d + pi
        if t:
            u[rows, speakers[t - 1]] = 0.0  # the previous speaker's gap is 1
        # The order of operations below is fixed: it reproduces, bit for
        # bit, one group normalized and searched on its own.
        total = u.sum(axis=1)
        positive = total > 0.0
        if not positive.all():
            raise DegenerateDistributionError(
                f"group {int(np.argmin(positive))}: all speaking scores are zero at turn {t + 1}"
            )
        cdf = np.cumsum(u / total[:, None], axis=1)
        # Entries of the cdf at or below the draw: searchsorted side="right".
        picked = np.minimum((cdf <= draws[t, :, None]).sum(axis=1), N - 1)
        speakers[t] = picked
        gaps += gaps > 0
        gaps[rows, picked] = 1
    return [Conversation(labels + 1, N) for labels in speakers.T]


def sample_conversation(
    params: ScoreParams, proclivity, length: int, rng: np.random.Generator
) -> Conversation:
    """Simulate one conversation: ``sample_conversations`` for one group.

    The caller owns the random source, so a fixed seed reproduces the exact
    sequence.
    """
    return sample_conversations([params], proclivity, length, [rng])[0]

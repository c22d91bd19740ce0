"""Core turn-taking model: speaking scores, probabilities, losses, sampling.

A group of N members takes turns speaking. At every turn each member i has a
nonnegative speaking score

    u_i = (pi_i + d_i * w(gap_i)) * [gap_i != 1]

where ``pi_i`` is the member's inherent tendency to speak, ``d_i`` scales a
recency effect, ``w`` maps the number of turns since the member last spoke
(the gap) to a proclivity value, and the previous speaker (gap == 1) is
excluded because a turn only ends when somebody else starts. Members who have
not yet spoken keep their inherent score, so the very first turn is governed
by ``pi`` alone. The next speaker is distributed as ``u / sum(u)``.

Members are labeled 1..N in all public inputs and outputs; vectors are plain
numpy arrays where position k belongs to member k+1. Gaps are positive
integers, with the sentinel ``NEVER`` (0) marking members who have not spoken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

NEVER = 0  # gap sentinel: the member has not spoken yet

# Floor applied to eligible scores inside the losses only, so a model that
# assigns (numerically) zero mass to an observed speaker yields a large but
# finite loss instead of -log 0. Sampling never uses it.
EPS_FLOOR = 1e-8


class DegenerateDistributionError(ValueError):
    """All speaking scores are zero: no member can take the next turn."""


class ZeroLikelihoodError(ValueError):
    """An observed speaker has zero probability even after flooring."""


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Conversation:
    """Ordered speaker labels s(1..T), each in 1..group_size.

    Consecutive entries never repeat: a turn ends when another member speaks.
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
        arr.flags.writeable = False
        object.__setattr__(self, "speakers", arr)

    def __len__(self) -> int:
        return int(self.speakers.size)


@dataclass(frozen=True)
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


@dataclass
class GapState:
    """Tracks, per member, the most recent turn at which they spoke.

    ``last_spoke`` holds 1-indexed turn numbers, 0 while a member has not
    spoken. Querying at turn t yields gap ``t - last_spoke`` (or NEVER).
    """

    last_spoke: np.ndarray

    @classmethod
    def fresh(cls, group_size: int) -> "GapState":
        return cls(np.zeros(group_size, dtype=int))

    def gaps(self, t: int) -> np.ndarray:
        return np.where(self.last_spoke > 0, t - self.last_spoke, NEVER)

    def record(self, t: int, speaker: int) -> None:
        self.last_spoke[speaker - 1] = t


@dataclass(frozen=True)
class ClassWeights:
    """Per-class turn counts and the per-turn weights T / (4 * T_k)."""

    counts: np.ndarray  # indexed by TurnClass, length 4
    per_turn: np.ndarray  # weight for each turn, length T


def compute_gaps(conversation: Conversation, t: int) -> np.ndarray:
    """Per-member gap at turn t: turns since each member last spoke.

    t may run to T+1 so the state feeding a prediction of the next turn
    needs no special case. Members yet to speak get ``NEVER``.
    """
    T = len(conversation)
    if not 1 <= t <= T + 1:
        raise ValueError(f"turn index {t} outside 1..{T + 1}")
    state = GapState.fresh(conversation.group_size)
    for j in range(1, t):
        state.record(j, int(conversation.speakers[j - 1]))
    return state.gaps(t)


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


def speaking_scores(params: ScoreParams, proclivity, gaps: np.ndarray) -> np.ndarray:
    """Score vector u from scores, a proclivity, and per-member gaps.

    The previous speaker (gap 1) scores zero; members who have never spoken
    fall back to their inherent score because the proclivity vanishes there.
    """
    gaps = np.asarray(gaps)
    w = proclivity.values(gaps)
    u = params.inherent + params.memory * w
    return np.where(gaps != 1, u, 0.0)


def speaking_probabilities(u: np.ndarray) -> np.ndarray:
    """Normalize scores into next-speaker probabilities."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("speaking scores must be nonnegative")
    total = u.sum()
    if total <= 0.0:
        raise DegenerateDistributionError("all speaking scores are zero")
    return u / total


def next_speaker(u: np.ndarray) -> int:
    """Most likely next speaker (1-indexed); ties go to the lowest member."""
    u = np.asarray(u, dtype=float)
    if np.all(u <= 0.0):
        raise DegenerateDistributionError("all speaking scores are zero")
    return int(np.argmax(u)) + 1


def classify_turn(conversation: Conversation, t: int) -> TurnClass:
    """Classify turn t by its floor pattern.

    FLOOR: the speaker from two turns ago retakes the turn. BROKEN_FLOOR:
    someone else interrupts an ongoing two-person exchange. REGAIN: the
    speaker from three turns back recovers the floor after a one-turn
    interruption of an exchange. Everything else, including early turns whose
    look-back indices do not exist, is NONFLOOR.
    """
    T = len(conversation)
    if not 1 <= t <= T:
        raise ValueError(f"turn index {t} outside 1..{T}")

    def s(j: int) -> int | None:
        return int(conversation.speakers[j - 1]) if j >= 1 else None

    s0, s1, s2, s3, s4 = s(t), s(t - 1), s(t - 2), s(t - 3), s(t - 4)
    if s2 is not None and s0 == s2:
        return TurnClass.FLOOR
    if s3 is not None and s0 != s2 and s1 == s3:
        return TurnClass.BROKEN_FLOOR
    if s4 is not None and s0 == s3 and s3 != s1 and s2 == s4:
        return TurnClass.REGAIN
    return TurnClass.NONFLOOR


def classify_turns(conversation: Conversation) -> np.ndarray:
    """TurnClass value for every turn, as an int array of length T."""
    return np.array(
        [classify_turn(conversation, t) for t in range(1, len(conversation) + 1)],
        dtype=int,
    )


def class_weights(conversation: Conversation) -> ClassWeights:
    """Inverse-frequency weights equalizing the four turn classes.

    A turn in class k gets weight T / (4 * T_k); empty classes contribute no
    turns and define no weight. When all four classes occur, the weights sum
    to T exactly.
    """
    classes = classify_turns(conversation)
    T = len(conversation)
    counts = np.bincount(classes, minlength=len(TurnClass))
    weights = np.empty(T, dtype=float)
    for k in range(len(TurnClass)):
        if counts[k]:
            weights[classes == k] = T / (len(TurnClass) * counts[k])
    return ClassWeights(counts=counts, per_turn=weights)


def _floored_observed_probabilities(
    U: np.ndarray, conversation: Conversation, eps: float
) -> np.ndarray:
    """Probability assigned to each observed speaker, after the eps floor."""
    U = np.asarray(U, dtype=float)
    T = len(conversation)
    if U.shape != (T, conversation.group_size):
        raise ValueError(f"likelihood array must have shape ({T}, {conversation.group_size})")
    s_idx = conversation.speakers - 1
    eligible = np.ones_like(U, dtype=bool)
    eligible[np.arange(1, T), s_idx[:-1]] = False
    floored = np.where(eligible, np.maximum(U, eps), U)
    totals = floored.sum(axis=1)
    observed = floored[np.arange(T), s_idx]
    if np.any(totals <= 0.0):
        raise DegenerateDistributionError("a turn has no positive speaking score")
    p = observed / totals
    if np.any(p <= 0.0):
        raise ZeroLikelihoodError("observed speaker has zero probability")
    return p


def nll_loss(U: np.ndarray, conversation: Conversation, eps: float = EPS_FLOOR) -> float:
    """Mean per-turn negative log-likelihood of the conversation under U.

    U stacks the score vectors u(t) row by row, shape (T, N). Scores of
    eligible members are floored at ``eps`` before normalizing.
    """
    p = _floored_observed_probabilities(U, conversation, eps)
    return float(-np.log(p).mean())


def weighted_loss(U: np.ndarray, conversation: Conversation, eps: float = EPS_FLOOR) -> float:
    """Class-weighted mean per-turn negative log-likelihood.

    Each turn's -log p is scaled by the inverse-frequency weight of its turn
    class, so rare patterns count as much as the ubiquitous floor turns.
    """
    p = _floored_observed_probabilities(U, conversation, eps)
    gamma = class_weights(conversation).per_turn
    return float((gamma * -np.log(p)).mean())


def likelihood_sequence(params: ScoreParams, proclivity, conversation: Conversation) -> np.ndarray:
    """Score vectors u(t) for every turn of a conversation, shape (T, N)."""
    gaps = gap_matrix(conversation)
    table = proclivity.table(int(gaps.max(initial=0)))
    u = params.inherent + params.memory * table[gaps]
    return np.where(gaps != 1, u, 0.0)


def sample_speaker(u: np.ndarray, rng: np.random.Generator) -> int:
    """Draw the next speaker (1-indexed) proportionally to the scores u."""
    p = speaking_probabilities(u)
    cdf = np.cumsum(p)
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, p.size - 1) + 1


def sample_conversation(
    params: ScoreParams, proclivity, length: int, rng: np.random.Generator
) -> Conversation:
    """Simulate a conversation of the given length, turn by turn.

    The caller owns the random source, so a fixed seed reproduces the exact
    sequence. Raises if at some turn no member has a positive score.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    N = params.size
    state = GapState.fresh(N)
    speakers = np.empty(length, dtype=int)
    for t in range(1, length + 1):
        u = speaking_scores(params, proclivity, state.gaps(t))
        speaker = sample_speaker(u, rng)
        speakers[t - 1] = speaker
        state.record(t, speaker)
    return Conversation(speakers=speakers, group_size=N)

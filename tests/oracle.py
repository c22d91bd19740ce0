"""Brute-force reference implementations used to check the package.

Everything here is written directly from the model definitions, with no
reuse of any package code.  The likelihood references are plain Python:
dicts and lists instead of arrays, Fractions for the exact class weights.
Slow but obviously correct, which is the point.  The reference sampler is
the one exception: it is a per-turn numpy loop, one group and one draw at a
time, whose floating-point operations the package's lockstep sampler must
reproduce bit for bit.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

FLOOR = "floor"
BROKEN = "broken_floor"
REGAIN = "regain"
NONFLOOR = "nonfloor"

CLASS_ORDER = (FLOOR, BROKEN, REGAIN, NONFLOOR)


def gaps_at(speakers, group_size, t):
    """Per-member gap at turn t; None marks members who have not yet spoken."""
    last = {}
    for turn in range(1, t):
        last[speakers[turn - 1]] = turn
    return [t - last[m] if m in last else None for m in range(1, group_size + 1)]


def scores_at(pi, d, w, speakers, group_size, t):
    """Unnormalized speaking scores at turn t from first principles."""
    scores = []
    for i, gap in enumerate(gaps_at(speakers, group_size, t)):
        if gap is None:
            scores.append(pi[i])
        elif gap == 1:
            scores.append(0.0)
        else:
            scores.append(pi[i] + d[i] * w(gap))
    return scores


def probabilities_at(pi, d, w, speakers, group_size, t):
    scores = scores_at(pi, d, w, speakers, group_size, t)
    total = sum(scores)
    return [s / total for s in scores]


def classify(speakers, t):
    """Turn class at t, straight from the defining predicates."""

    def s(j):
        return speakers[j - 1] if 1 <= j <= len(speakers) else None

    if s(t - 2) is not None and s(t) == s(t - 2):
        return FLOOR
    if s(t - 3) is not None and s(t) != s(t - 2) and s(t - 1) == s(t - 3):
        return BROKEN
    if s(t - 4) is not None and s(t) == s(t - 3) != s(t - 1) and s(t - 2) == s(t - 4):
        return REGAIN
    return NONFLOOR


def class_labels(speakers):
    return [classify(speakers, t) for t in range(1, len(speakers) + 1)]


def class_weight_map(speakers):
    """Exact Fraction weight for each class that occurs in the conversation."""
    labels = class_labels(speakers)
    total = len(speakers)
    return {
        name: Fraction(total, 4 * labels.count(name))
        for name in set(labels)
    }


def nll(pi, d, w, speakers, group_size):
    """Mean per-turn negative log-likelihood of the observed speakers."""
    total = 0.0
    for t, who in enumerate(speakers, start=1):
        p = probabilities_at(pi, d, w, speakers, group_size, t)
        total -= math.log(p[who - 1])
    return total / len(speakers)


def weighted_nll(pi, d, w, speakers, group_size):
    """Mean class-weighted negative log-likelihood."""
    weights = class_weight_map(speakers)
    labels = class_labels(speakers)
    total = 0.0
    for t, who in enumerate(speakers, start=1):
        p = probabilities_at(pi, d, w, speakers, group_size, t)
        total += float(weights[labels[t - 1]]) * -math.log(p[who - 1])
    return total / len(speakers)


def all_conversations(group_size, length):
    """Every speaker sequence of the given length without immediate repeats."""
    seqs = [(first,) for first in range(1, group_size + 1)]
    for _ in range(length - 1):
        seqs = [
            seq + (nxt,)
            for seq in seqs
            for nxt in range(1, group_size + 1)
            if nxt != seq[-1]
        ]
    return seqs


def enumerate_all(group_size, max_length):
    """All conversations of lengths 1..max_length."""
    return list(
        itertools.chain.from_iterable(
            all_conversations(group_size, n) for n in range(1, max_length + 1)
        )
    )


def speaking_probabilities(u):
    """Normalize one turn's scores into next-speaker probabilities."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("speaking scores must be nonnegative")
    total = u.sum()
    if total <= 0.0:
        raise ValueError("all speaking scores are zero")
    return u / total


def sample_speaker(u, rng):
    """Draw the next speaker (1-indexed) proportionally to the scores u."""
    p = speaking_probabilities(u)
    cdf = np.cumsum(p)
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    return min(idx, p.size - 1) + 1


def sample_speakers(pi, d, proclivity, length, rng):
    """Reference sampler: speaker labels of one conversation, turn by turn.

    Each turn scores every member as ``pi + d * w(gap)`` with the previous
    speaker zeroed, and takes one ``rng.random()`` draw.
    """
    pi = np.asarray(pi, dtype=float)
    d = np.asarray(d, dtype=float)
    last_spoke = np.zeros(pi.size, dtype=int)  # 0 before a member's first turn
    speakers = []
    for t in range(1, length + 1):
        gaps = np.where(last_spoke > 0, t - last_spoke, 0)
        u = np.where(gaps != 1, pi + d * proclivity.values(gaps), 0.0)
        speaker = sample_speaker(u, rng)
        speakers.append(speaker)
        last_spoke[speaker - 1] = t
    return speakers

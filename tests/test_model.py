"""Core model: gaps, scores, probabilities, turn classes, losses, sampling.

Losses are checked through ``evaluate`` with fixed ground-truth scores, the
public entry to the one likelihood pass.
"""

import math

import numpy as np
import pytest

import oracle
from turntaking import (
    EPS_FLOOR,
    NEVER,
    Conversation,
    DegenerateDistributionError,
    ExpDecayProclivity,
    Group,
    LearnedProclivity,
    Roster,
    ScoreParams,
    SigmoidProclivity,
    TurnClass,
    ZeroLikelihoodError,
    ZeroProclivity,
    class_weights,
    classify_turns,
    evaluate,
    gap_matrix,
    sample_conversation,
    sample_conversations,
    true_model,
)
from turntaking.training import _build_stacks, _likelihood_pass

W_EXP = ExpDecayProclivity()
W_SIG = SigmoidProclivity()

ORACLE_EXP = lambda g: math.exp(-g / 2)  # noqa: E731
ORACLE_SIG = lambda g: 0.95 / (1 + math.exp(-(10 - g / 2)))  # noqa: E731


def conv(speakers, group_size):
    return Conversation(speakers=np.array(speakers, dtype=int), group_size=group_size)


def random_conversation(rng, group_size, length):
    speakers = [int(rng.integers(1, group_size + 1))]
    for _ in range(length - 1):
        choices = [m for m in range(1, group_size + 1) if m != speakers[-1]]
        speakers.append(int(rng.choice(choices)))
    return conv(speakers, group_size)


def gaps_at(c, t):
    """Per-member gaps at turn t, which may run to T + 1."""
    return gap_matrix(c, horizon=t)[-1]


def engine_scores(params, proclivity, c):
    """(T, N) speaking scores of one conversation, as the likelihood pass has them.

    Cells are floored at EPS_FLOOR, which no test score here comes near.
    """
    stacks = _build_stacks([(Roster(np.linspace(0.1, 1.0, c.group_size)), c)])
    (w,) = stacks.gather(proclivity)
    cells, _, _ = _likelihood_pass(stacks.stacks[0], w, params.inherent[None], params.memory[None])
    return cells[0].T


class TableProclivity:
    """A proclivity given by its values at gaps 0, 1, 2, ...; zero beyond."""

    def __init__(self, *head):
        self.head = np.array(head, dtype=float)

    def values(self, gaps):
        gaps = np.asarray(gaps)
        return np.where(gaps < self.head.size, self.head[np.minimum(gaps, self.head.size - 1)], 0.0)

    def table(self, max_gap):
        return self.values(np.arange(max_gap + 1))


def losses(params, proclivity, c):
    """(nll, nll_turn) of one conversation under fixed scores, via evaluate."""
    group = Group(
        group_id=1,
        roster=Roster(np.linspace(0.1, 1.0, c.group_size)),
        scores=params,
        conversation=c,
    )
    row = evaluate(true_model([group], proclivity), [group]).groups[0]
    return row.nll, row.nll_turn


def random_params(rng, size):
    return ScoreParams(
        inherent=rng.uniform(0.2, 1.5, size),
        memory=rng.uniform(0.0, 3.0, size),
    )


# ---------------------------------------------------------------- validation


def test_roster_rejects_fewer_than_two_members():
    with pytest.raises(ValueError):
        Roster(traits=np.array([0.5]))


def test_roster_rejects_non_finite_traits():
    with pytest.raises(ValueError):
        Roster(traits=np.array([0.5, np.nan]))


def test_roster_traits_are_read_only():
    roster = Roster(traits=np.array([0.2, 0.8]))
    assert roster.size == 2
    with pytest.raises(ValueError):
        roster.traits[0] = 1.0


def test_conversation_rejects_consecutive_repeats():
    with pytest.raises(ValueError):
        conv([1, 1, 2], 3)


def test_conversation_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        conv([1, 4], 3)
    with pytest.raises(ValueError):
        conv([0, 1], 3)
    # Labels are checked before the cast to uint8, where 257 would wrap to 1.
    with pytest.raises(ValueError):
        conv([2, 257], 255)


@pytest.mark.parametrize(
    "group_size, dtype", [(2, np.uint8), (255, np.uint8), (256, np.uint16), (300, np.uint16)]
)
def test_conversation_stores_labels_in_the_smallest_unsigned_dtype(group_size, dtype):
    labels = np.array([1, group_size, 1, group_size])
    c = conv(labels, group_size)
    assert c.speakers.dtype == dtype
    assert c.speakers.tolist() == labels.tolist()
    assert not c.speakers.flags.writeable


def test_conversation_rejects_empty():
    with pytest.raises(ValueError):
        conv([], 3)


def test_conversation_len():
    assert len(conv([1, 2, 1, 3, 2], 3)) == 5


def test_score_params_reject_negative_and_mismatched():
    with pytest.raises(ValueError):
        ScoreParams(inherent=np.array([0.5, -0.1]), memory=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ScoreParams(inherent=np.array([0.5, 0.5]), memory=np.array([1.0]))


def test_score_params_scaled():
    params = ScoreParams(inherent=np.array([0.5, 1.0]), memory=np.array([2.0, 0.0]))
    doubled = params.scaled(2.0)
    assert np.allclose(doubled.inherent, [1.0, 2.0])
    assert np.allclose(doubled.memory, [4.0, 0.0])


# ---------------------------------------------------------------------- gaps


def test_compute_gaps_hand_example():
    c = conv([1, 2, 1, 3, 2], 3)
    assert gaps_at(c, 6).tolist() == [3, 1, 2]


def test_compute_gaps_never_spoken_sentinel():
    c = conv([1, 2], 3)
    gaps = gaps_at(c, 3)
    assert gaps.tolist() == [2, 1, NEVER]


def test_compute_gaps_first_turn_all_never():
    c = conv([1, 2], 4)
    assert gaps_at(c, 1).tolist() == [NEVER] * 4


def test_compute_gaps_allows_t_after_last_turn():
    c = conv([1, 2, 3], 3)
    assert gaps_at(c, 4).tolist() == [3, 2, 1]
    with pytest.raises(ValueError):
        gaps_at(c, 5)
    with pytest.raises(ValueError):
        gaps_at(c, 0)


def test_gaps_match_oracle_on_random_conversations():
    rng = np.random.default_rng(1)
    for _ in range(50):
        N = int(rng.integers(2, 6))
        T = int(rng.integers(1, 15))
        c = random_conversation(rng, N, T)
        for t in range(1, T + 2):
            expected = [
                g if g is not None else NEVER
                for g in oracle.gaps_at(c.speakers.tolist(), N, t)
            ]
            assert gaps_at(c, t).tolist() == expected


def test_gap_matrix_stacks_compute_gaps():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = random_conversation(rng, 4, int(rng.integers(1, 12)))
        speakers = c.speakers.tolist()

        def expected(t):
            return [g if g is not None else NEVER for g in oracle.gaps_at(speakers, 4, t)]

        M = gap_matrix(c)
        assert M.shape == (len(c), 4)
        for t in range(1, len(c) + 1):
            assert M[t - 1].tolist() == expected(t)
        ahead = gap_matrix(c, horizon=len(c) + 1)
        assert ahead[-1].tolist() == expected(len(c) + 1)
        assert np.array_equal(ahead[:-1], M)
        assert gap_matrix(c, horizon=1).tolist() == [expected(1)]


# ------------------------------------------------------------------- scores


def test_speaking_scores_hand_example():
    # At turn 3 of 1, 2, 3 the gaps are 2, 1 and never.
    params = ScoreParams(inherent=np.full(3, 0.5), memory=np.ones(3))
    u = engine_scores(params, W_EXP, conv([1, 2, 3], 3))[2]
    assert u == pytest.approx([0.5 + math.exp(-1), 0.0, 0.5], abs=1e-12)


def test_previous_speaker_scores_zero():
    rng = np.random.default_rng(3)
    for _ in range(25):
        N = int(rng.integers(2, 6))
        c = random_conversation(rng, N, int(rng.integers(2, 12)))
        params = random_params(rng, N)
        U = engine_scores(params, W_EXP, c)
        for t in range(2, len(c) + 1):
            assert U[t - 1, c.speakers[t - 2] - 1] == 0.0


def test_never_spoken_member_keeps_inherent_score():
    params = ScoreParams(inherent=np.array([0.3, 0.7, 1.1]), memory=np.full(3, 5.0))
    for c in (conv([2], 3), conv([2, 3], 3)):
        U = engine_scores(params, W_SIG, c)
        assert U[0] == pytest.approx([0.3, 0.7, 1.1], abs=0)
    assert U[1, 0] == 0.3


def test_scores_match_oracle_on_random_conversations():
    rng = np.random.default_rng(4)
    for _ in range(30):
        N = int(rng.integers(2, 6))
        c = random_conversation(rng, N, int(rng.integers(1, 12)))
        params = random_params(rng, N)
        U = engine_scores(params, W_EXP, c)
        for t in range(1, len(c) + 1):
            expected = oracle.scores_at(
                params.inherent.tolist(),
                params.memory.tolist(),
                ORACLE_EXP,
                c.speakers.tolist(),
                N,
                t,
            )
            assert U[t - 1] == pytest.approx(expected, abs=1e-12)


# -------------------------------------------------------------- probabilities


def test_probabilities_hand_example():
    u = np.array([0.5 + math.exp(-1), 0.0, 0.5])
    p = oracle.speaking_probabilities(u)
    total = 0.5 + math.exp(-1) + 0.5
    assert p == pytest.approx([(0.5 + math.exp(-1)) / total, 0.0, 0.5 / total], abs=1e-12)
    assert p == pytest.approx([0.63447071, 0.0, 0.36552929], abs=1e-8)


def test_probabilities_sum_to_one_and_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(40):
        N = int(rng.integers(2, 7))
        c = random_conversation(rng, N, int(rng.integers(1, 20)))
        params = random_params(rng, N)
        U = engine_scores(params, W_SIG, c)
        for row in U:
            p = oracle.speaking_probabilities(row)
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_probabilities_reject_all_zero():
    # Scores that are all zero leave the sampler nothing to draw from; the
    # error names the group of the batch and the turn.
    zero = ScoreParams(inherent=np.zeros(3), memory=np.zeros(3))
    with pytest.raises(DegenerateDistributionError, match="group 0: .* turn 1"):
        sample_conversation(zero, W_EXP, 5, np.random.default_rng(0))
    # Only member 2 can open; once it has spoken nobody can follow.
    lone = ScoreParams(inherent=np.array([0.0, 1.0, 0.0]), memory=np.zeros(3))
    fine = ScoreParams(inherent=np.ones(3), memory=np.ones(3))
    rngs = [np.random.default_rng(k) for k in range(3)]
    with pytest.raises(DegenerateDistributionError, match="group 1: .* turn 2"):
        sample_conversations([fine, lone, fine], ZeroProclivity(), 5, rngs)


def test_probabilities_reject_negative():
    # Scores are pi + d * w; a negative proclivity value makes them negative.
    params = ScoreParams(inherent=np.ones(3), memory=np.ones(3))
    with pytest.raises(ValueError, match="nonnegative"):
        sample_conversation(params, TableProclivity(0.0, 0.5, -2.0), 6, np.random.default_rng(0))


def test_scale_invariance_of_probabilities_and_losses():
    rng = np.random.default_rng(6)
    for _ in range(20):
        N = int(rng.integers(2, 6))
        c = random_conversation(rng, N, int(rng.integers(2, 15)))
        params = random_params(rng, N)
        factor = float(rng.uniform(0.1, 40.0))
        U = engine_scores(params, W_EXP, c)
        V = engine_scores(params.scaled(factor), W_EXP, c)
        for a, b in zip(U, V):
            assert oracle.speaking_probabilities(a) == pytest.approx(
                oracle.speaking_probabilities(b), abs=1e-10
            )
        # Every score is at least 0.2 * 0.1, so the eps floor never binds.
        assert losses(params, W_EXP, c) == pytest.approx(
            losses(params.scaled(factor), W_EXP, c), abs=1e-10
        )


# ------------------------------------------------------------- turn classes


def test_classify_hand_example():
    c = conv([1, 2, 1, 3, 2], 3)
    expected = [
        TurnClass.NONFLOOR,
        TurnClass.NONFLOOR,
        TurnClass.FLOOR,
        TurnClass.BROKEN_FLOOR,
        TurnClass.REGAIN,
    ]
    assert classify_turns(c).tolist() == [int(k) for k in expected]


def test_first_two_turns_are_always_nonfloor():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_conversation(rng, 4, int(rng.integers(2, 10)))
        assert classify_turns(c)[:2].tolist() == [TurnClass.NONFLOOR] * 2


def test_classification_matches_oracle_exhaustively():
    for seq in oracle.enumerate_all(3, 6):
        c = conv(list(seq), 3)
        got = [TurnClass(k).name.lower() for k in classify_turns(c)]
        expected = oracle.class_labels(list(seq))
        assert got == expected, f"sequence {seq}"


def test_class_weights_hand_example():
    c = conv([1, 2, 1, 3, 2], 3)
    assert np.bincount(classify_turns(c), minlength=4).tolist() == [1, 1, 1, 2]
    gamma = class_weights(c)
    assert gamma == pytest.approx([0.625, 0.625, 1.25, 1.25, 1.25], abs=1e-12)
    assert gamma.sum() == pytest.approx(len(c), abs=1e-12)


def test_class_weights_single_class():
    c = conv([1, 2, 3, 1, 2, 3, 1, 2], 3)
    assert np.bincount(classify_turns(c), minlength=4).tolist() == [0, 0, 0, 8]
    assert np.all(class_weights(c) == 0.25)


def test_class_weights_match_oracle_exhaustively():
    for seq in oracle.enumerate_all(3, 6):
        c = conv(list(seq), 3)
        weights = oracle.class_weight_map(list(seq))
        labels = oracle.class_labels(list(seq))
        expected = [float(weights[name]) for name in labels]
        assert class_weights(c) == pytest.approx(expected, abs=1e-12)


# -------------------------------------------------------------------- losses


def test_uniform_scores_give_analytic_loss():
    # With u identically 1 the first turn is uniform over N and every later
    # turn uniform over N-1, so the mean loss has a closed form.
    for N, T in ((5, 10), (3, 7), (4, 1)):
        rng = np.random.default_rng(N * 100 + T)
        c = random_conversation(rng, N, T)
        params = ScoreParams(inherent=np.ones(N), memory=np.zeros(N))
        expected = math.log(N - 1) + (math.log(N) - math.log(N - 1)) / T
        assert losses(params, ZeroProclivity(), c)[0] == pytest.approx(expected, abs=1e-12)


def test_losses_match_oracle_exhaustively():
    pi = [0.7, 1.1, 0.4]
    d = [2.0, 0.5, 1.3]
    params = ScoreParams(inherent=np.array(pi), memory=np.array(d))
    for seq in oracle.enumerate_all(3, 5):
        c = conv(list(seq), 3)
        nll, nll_turn = losses(params, W_EXP, c)
        assert nll == pytest.approx(oracle.nll(pi, d, ORACLE_EXP, list(seq), 3), abs=1e-12)
        assert nll_turn == pytest.approx(
            oracle.weighted_nll(pi, d, ORACLE_EXP, list(seq), 3), abs=1e-12
        )


def test_losses_match_oracle_on_random_sigmoid_instances():
    rng = np.random.default_rng(8)
    for _ in range(20):
        N = int(rng.integers(2, 6))
        c = random_conversation(rng, N, int(rng.integers(1, 20)))
        params = random_params(rng, N)
        nll, nll_turn = losses(params, W_SIG, c)
        speakers = c.speakers.tolist()
        assert nll == pytest.approx(
            oracle.nll(params.inherent.tolist(), params.memory.tolist(), ORACLE_SIG, speakers, N),
            abs=1e-12,
        )
        assert nll_turn == pytest.approx(
            oracle.weighted_nll(
                params.inherent.tolist(), params.memory.tolist(), ORACLE_SIG, speakers, N
            ),
            abs=1e-12,
        )


def test_eps_floor_keeps_observed_zero_finite():
    # Member 2 scores zero and speaks at turn 2; flooring the eligible scores
    # turns -log 0 into a large but finite penalty with a closed form.
    c = conv([1, 2], 3)
    params = ScoreParams(inherent=np.array([1.0, 0.0, 1.0]), memory=np.zeros(3))
    eps = EPS_FLOOR
    expected = (math.log(2 + eps) + math.log(1 + eps) - math.log(eps)) / 2
    nll, nll_turn = losses(params, W_EXP, c)
    assert nll == pytest.approx(expected, rel=1e-12)
    # Both turns are NONFLOOR, so the weights are uniform at 2 / (4 * 2).
    assert nll_turn == pytest.approx(0.25 * nll, rel=1e-12)


def test_overflowing_scores_raise_zero_likelihood():
    # Finite scores whose turn totals overflow leave no finite likelihood.
    # It is reported as ZeroLikelihoodError, with no numpy RuntimeWarning
    # ahead of it; the last case overflows the observed cell too, so its
    # turn NLL is inf - inf.
    import warnings

    c = conv([1, 2, 3], 3)
    for inherent, memory in ((1e308, 0.0), (1e308, 1e308), (1.5e308, 1e308)):
        params = ScoreParams(inherent=np.full(3, inherent), memory=np.full(3, memory))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroLikelihoodError):
                losses(params, W_EXP, c)


def test_loss_shape_mismatch_rejected():
    # Scores for fewer (or more) members than the group must not broadcast.
    c = conv([1, 2, 3, 1], 3)
    for size in (1, 2, 4):
        params = ScoreParams(inherent=np.ones(size), memory=np.ones(size))
        with pytest.raises(ValueError, match="scores for 3 members"):
            losses(params, W_EXP, c)


def test_likelihood_sequence_matches_per_turn_scores():
    # Conversations of one shape share a stack; each group's cells still
    # hold its own scores, turn by turn.
    rng = np.random.default_rng(9)
    for _ in range(10):
        N, T = int(rng.integers(2, 6)), int(rng.integers(1, 15))
        convs = [random_conversation(rng, N, T) for _ in range(3)]
        params = [random_params(rng, N) for _ in convs]
        stacks = _build_stacks([(Roster(np.linspace(0.1, 1.0, N)), c) for c in convs])
        (w,) = stacks.gather(W_SIG)
        pi = np.stack([p.inherent for p in params])
        d = np.stack([p.memory for p in params])
        cells, _, _ = _likelihood_pass(stacks.stacks[0], w, pi, d)
        for c, p, U in zip(convs, params, cells):
            for t in range(1, T + 1):
                expected = oracle.scores_at(
                    p.inherent.tolist(), p.memory.tolist(), ORACLE_SIG, c.speakers.tolist(), N, t
                )
                assert U[:, t - 1] == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------------ sampling


def random_score_list(rng, groups, size):
    return [
        ScoreParams(inherent=rng.uniform(0.05, 2.0, size), memory=rng.uniform(0.0, 20.0, size))
        for _ in range(groups)
    ]


@pytest.mark.parametrize(
    "proclivity",
    [W_EXP, W_SIG, LearnedProclivity.fresh(7, hidden=(5, 5))],
    ids=["exp", "sigmoid", "learned"],
)
def test_lockstep_sampler_equals_reference_bit_for_bit(proclivity):
    # N spans numpy's 8-wide pairwise-summation block in the turn totals.
    rng = np.random.default_rng(21)
    turns = 90
    for N in (2, 3, 5, 8, 9, 17):
        for G in (1, 3, 20):
            params = random_score_list(rng, G, N)
            seeds = rng.integers(0, 2**32, size=G)
            rngs = [np.random.default_rng(s) for s in seeds]
            refs = [np.random.default_rng(s) for s in seeds]
            got = sample_conversations(params, proclivity, turns, rngs)
            for p, c, r, ref in zip(params, got, rngs, refs):
                want = oracle.sample_speakers(p.inherent, p.memory, proclivity, turns, ref)
                assert c.speakers.tolist() == want, (N, G)
                assert r.bit_generator.state == ref.bit_generator.state
            if G == 1:
                alone = np.random.default_rng(seeds[0])
                c = sample_conversation(params[0], proclivity, turns, alone)
                assert np.array_equal(c.speakers, got[0].speakers)
                assert alone.bit_generator.state == refs[0].bit_generator.state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
def test_bad_proclivity_value_is_reported_with_its_gap(bad):
    params = ScoreParams(inherent=np.ones(4), memory=np.ones(4))
    proclivity = TableProclivity(0.0, 0.5, 0.4, bad, 0.2)
    with pytest.raises(ValueError, match="proclivity TableProclivity gives .* at gap 3"):
        sample_conversation(params, proclivity, 50, np.random.default_rng(3))
    # A gap the conversation is too short to reach is never looked up.
    assert len(sample_conversation(params, proclivity, 3, np.random.default_rng(3))) == 3


def test_sampler_is_deterministic_per_seed():
    rng = np.random.default_rng(11)
    params = random_score_list(rng, 3, 4)
    a = sample_conversations(params, W_EXP, 60, [np.random.default_rng(k) for k in (1, 2, 3)])
    b = sample_conversations(params, W_EXP, 60, [np.random.default_rng(k) for k in (1, 2, 3)])
    assert [c.speakers.tolist() for c in a] == [c.speakers.tolist() for c in b]
    # A group's conversation does not depend on the groups sampled with it.
    alone = sample_conversation(params[1], W_EXP, 60, np.random.default_rng(2))
    assert np.array_equal(alone.speakers, a[1].speakers)
    assert not np.array_equal(a[0].speakers, a[2].speakers)


def test_sampler_matches_probabilities():
    # First turns only: member 2 scores zero, members 1 and 3 split 1:3.
    draws = 20000
    params = ScoreParams(inherent=np.array([1.0, 0.0, 3.0]), memory=np.zeros(3))
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(12).spawn(draws)]
    first = np.array([c.speakers[0] for c in sample_conversations([params] * draws, W_EXP, 1, rngs)])
    assert not np.any(first == 2)
    freq1 = np.mean(first == 1)
    assert freq1 == pytest.approx(0.25, abs=3 * math.sqrt(0.25 * 0.75 / draws))


def test_sample_conversation_is_valid_and_reproducible():
    params = ScoreParams(inherent=np.full(4, 0.5), memory=np.full(4, 10.0))
    a = sample_conversation(params, W_EXP, 200, np.random.default_rng(13))
    b = sample_conversation(params, W_EXP, 200, np.random.default_rng(13))
    other = sample_conversation(params, W_EXP, 200, np.random.default_rng(14))
    assert len(a) == 200
    assert a.group_size == 4
    assert np.all(a.speakers[1:] != a.speakers[:-1])
    assert np.array_equal(a.speakers, b.speakers)
    assert not np.array_equal(a.speakers, other.speakers)


def test_sample_conversation_rejects_bad_length():
    params = ScoreParams(inherent=np.ones(3), memory=np.ones(3))
    with pytest.raises(ValueError):
        sample_conversation(params, W_EXP, 0, np.random.default_rng(0))


def test_sample_conversations_rejects_mismatched_groups():
    three = ScoreParams(inherent=np.ones(3), memory=np.ones(3))
    four = ScoreParams(inherent=np.ones(4), memory=np.ones(4))
    rngs = [np.random.default_rng(k) for k in range(2)]
    with pytest.raises(ValueError, match="equal sizes"):
        sample_conversations([three, four], W_EXP, 5, rngs)
    with pytest.raises(ValueError, match="one random generator per group"):
        sample_conversations([three, three], W_EXP, 5, rngs[:1])
    with pytest.raises(ValueError, match="at least one group"):
        sample_conversations([], W_EXP, 5, [])

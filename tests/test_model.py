"""Core model: gaps, scores, probabilities, turn classes, losses, sampling."""

import math

import numpy as np
import pytest

import oracle
from turntaking import (
    NEVER,
    ClassWeights,
    Conversation,
    DegenerateDistributionError,
    ExpDecayProclivity,
    GapState,
    Roster,
    ScoreParams,
    SigmoidProclivity,
    TurnClass,
    ZeroLikelihoodError,
    class_weights,
    classify_turn,
    classify_turns,
    compute_gaps,
    gap_matrix,
    likelihood_sequence,
    next_speaker,
    nll_loss,
    sample_conversation,
    sample_speaker,
    speaking_probabilities,
    speaking_scores,
    weighted_loss,
)

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
    assert compute_gaps(c, 6).tolist() == [3, 1, 2]


def test_compute_gaps_never_spoken_sentinel():
    c = conv([1, 2], 3)
    gaps = compute_gaps(c, 3)
    assert gaps.tolist() == [2, 1, NEVER]


def test_compute_gaps_first_turn_all_never():
    c = conv([1, 2], 4)
    assert compute_gaps(c, 1).tolist() == [NEVER] * 4


def test_compute_gaps_allows_t_after_last_turn():
    c = conv([1, 2, 3], 3)
    assert compute_gaps(c, 4).tolist() == [3, 2, 1]
    with pytest.raises(ValueError):
        compute_gaps(c, 5)
    with pytest.raises(ValueError):
        compute_gaps(c, 0)


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
            assert compute_gaps(c, t).tolist() == expected


def test_gap_matrix_stacks_compute_gaps():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = random_conversation(rng, 4, int(rng.integers(1, 12)))
        M = gap_matrix(c)
        assert M.shape == (len(c), 4)
        for t in range(1, len(c) + 1):
            assert M[t - 1].tolist() == compute_gaps(c, t).tolist()
        ahead = gap_matrix(c, horizon=len(c) + 1)
        assert ahead[-1].tolist() == compute_gaps(c, len(c) + 1).tolist()
        assert np.array_equal(ahead[:-1], M)
        assert gap_matrix(c, horizon=1).tolist() == [compute_gaps(c, 1).tolist()]


def test_gap_state_incremental():
    state = GapState.fresh(3)
    assert state.gaps(1).tolist() == [NEVER] * 3
    state.record(1, 2)
    assert state.gaps(2).tolist() == [NEVER, 1, NEVER]
    state.record(2, 3)
    assert state.gaps(3).tolist() == [NEVER, 2, 1]


# ------------------------------------------------------------------- scores


def test_speaking_scores_hand_example():
    params = ScoreParams(inherent=np.full(3, 0.5), memory=np.ones(3))
    u = speaking_scores(params, W_EXP, np.array([2, 1, NEVER]))
    assert u == pytest.approx([0.5 + math.exp(-1), 0.0, 0.5], abs=1e-12)


def test_previous_speaker_scores_zero():
    rng = np.random.default_rng(3)
    for _ in range(25):
        N = int(rng.integers(2, 6))
        c = random_conversation(rng, N, int(rng.integers(2, 12)))
        params = random_params(rng, N)
        for t in range(2, len(c) + 1):
            u = speaking_scores(params, W_EXP, compute_gaps(c, t))
            assert u[c.speakers[t - 2] - 1] == 0.0


def test_never_spoken_member_keeps_inherent_score():
    params = ScoreParams(inherent=np.array([0.3, 0.7, 1.1]), memory=np.full(3, 5.0))
    u = speaking_scores(params, W_SIG, np.array([NEVER, NEVER, NEVER]))
    assert u == pytest.approx([0.3, 0.7, 1.1], abs=0)


def test_scores_match_oracle_on_random_conversations():
    rng = np.random.default_rng(4)
    for _ in range(30):
        N = int(rng.integers(2, 6))
        c = random_conversation(rng, N, int(rng.integers(1, 12)))
        params = random_params(rng, N)
        for t in range(1, len(c) + 1):
            u = speaking_scores(params, W_EXP, compute_gaps(c, t))
            expected = oracle.scores_at(
                params.inherent.tolist(),
                params.memory.tolist(),
                ORACLE_EXP,
                c.speakers.tolist(),
                N,
                t,
            )
            assert u == pytest.approx(expected, abs=1e-12)


# -------------------------------------------------------------- probabilities


def test_probabilities_hand_example():
    u = np.array([0.5 + math.exp(-1), 0.0, 0.5])
    p = speaking_probabilities(u)
    total = 0.5 + math.exp(-1) + 0.5
    assert p == pytest.approx([(0.5 + math.exp(-1)) / total, 0.0, 0.5 / total], abs=1e-12)
    assert p == pytest.approx([0.63447071, 0.0, 0.36552929], abs=1e-8)


def test_probabilities_sum_to_one_and_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(40):
        N = int(rng.integers(2, 7))
        c = random_conversation(rng, N, int(rng.integers(1, 20)))
        params = random_params(rng, N)
        U = likelihood_sequence(params, W_SIG, c)
        for row in U:
            p = speaking_probabilities(row)
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_probabilities_reject_all_zero():
    with pytest.raises(DegenerateDistributionError):
        speaking_probabilities(np.zeros(3))


def test_probabilities_reject_negative():
    with pytest.raises(ValueError):
        speaking_probabilities(np.array([0.5, -0.1, 0.2]))


def test_scale_invariance_of_probabilities_and_losses():
    rng = np.random.default_rng(6)
    for _ in range(20):
        N = int(rng.integers(2, 6))
        c = random_conversation(rng, N, int(rng.integers(2, 15)))
        params = random_params(rng, N)
        factor = float(rng.uniform(0.1, 40.0))
        U = likelihood_sequence(params, W_EXP, c)
        V = likelihood_sequence(params.scaled(factor), W_EXP, c)
        for a, b in zip(U, V):
            assert speaking_probabilities(a) == pytest.approx(
                speaking_probabilities(b), abs=1e-10
            )
        assert nll_loss(U, c, eps=0.0) == pytest.approx(nll_loss(V, c, eps=0.0), abs=1e-10)
        assert weighted_loss(U, c, eps=0.0) == pytest.approx(
            weighted_loss(V, c, eps=0.0), abs=1e-10
        )


def test_next_speaker_breaks_ties_at_lowest_member():
    assert next_speaker(np.array([0.2, 0.7, 0.7])) == 2
    assert next_speaker(np.array([0.7, 0.2, 0.7])) == 1
    with pytest.raises(DegenerateDistributionError):
        next_speaker(np.zeros(4))


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
    assert [classify_turn(c, t) for t in range(1, 6)] == expected
    assert classify_turns(c).tolist() == [int(k) for k in expected]


def test_first_two_turns_are_always_nonfloor():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_conversation(rng, 4, int(rng.integers(2, 10)))
        assert classify_turn(c, 1) is TurnClass.NONFLOOR
        assert classify_turn(c, 2) is TurnClass.NONFLOOR


def test_classification_matches_oracle_exhaustively():
    for seq in oracle.enumerate_all(3, 6):
        c = conv(list(seq), 3)
        got = [TurnClass(k).name.lower() for k in classify_turns(c)]
        expected = oracle.class_labels(list(seq))
        assert got == expected, f"sequence {seq}"


def test_classify_turn_rejects_out_of_range():
    c = conv([1, 2], 3)
    with pytest.raises(ValueError):
        classify_turn(c, 0)
    with pytest.raises(ValueError):
        classify_turn(c, 3)


def test_class_weights_hand_example():
    c = conv([1, 2, 1, 3, 2], 3)
    cw = class_weights(c)
    assert isinstance(cw, ClassWeights)
    assert cw.counts.tolist() == [1, 1, 1, 2]
    assert cw.per_turn == pytest.approx([0.625, 0.625, 1.25, 1.25, 1.25], abs=1e-12)
    assert cw.per_turn.sum() == pytest.approx(len(c), abs=1e-12)


def test_class_weights_single_class():
    c = conv([1, 2, 3, 1, 2, 3, 1, 2], 3)
    cw = class_weights(c)
    assert cw.counts.tolist() == [0, 0, 0, 8]
    assert np.all(cw.per_turn == 0.25)


def test_class_weights_match_oracle_exhaustively():
    for seq in oracle.enumerate_all(3, 6):
        c = conv(list(seq), 3)
        weights = oracle.class_weight_map(list(seq))
        labels = oracle.class_labels(list(seq))
        expected = [float(weights[name]) for name in labels]
        assert class_weights(c).per_turn == pytest.approx(expected, abs=1e-12)


# -------------------------------------------------------------------- losses


def test_uniform_scores_give_analytic_loss():
    # With u identically 1 the first turn is uniform over N and every later
    # turn uniform over N-1, so the mean loss has a closed form.
    for N, T in ((5, 10), (3, 7), (4, 1)):
        rng = np.random.default_rng(N * 100 + T)
        c = random_conversation(rng, N, T)
        U = np.ones((T, N))
        U[np.arange(1, T), c.speakers[:-1] - 1] = 0.0
        expected = math.log(N - 1) + (math.log(N) - math.log(N - 1)) / T
        assert nll_loss(U, c) == pytest.approx(expected, abs=1e-12)


def test_losses_match_oracle_exhaustively():
    pi = [0.7, 1.1, 0.4]
    d = [2.0, 0.5, 1.3]
    params = ScoreParams(inherent=np.array(pi), memory=np.array(d))
    for seq in oracle.enumerate_all(3, 5):
        c = conv(list(seq), 3)
        U = likelihood_sequence(params, W_EXP, c)
        assert nll_loss(U, c, eps=0.0) == pytest.approx(
            oracle.nll(pi, d, ORACLE_EXP, list(seq), 3), abs=1e-12
        )
        assert weighted_loss(U, c, eps=0.0) == pytest.approx(
            oracle.weighted_nll(pi, d, ORACLE_EXP, list(seq), 3), abs=1e-12
        )


def test_losses_match_oracle_on_random_sigmoid_instances():
    rng = np.random.default_rng(8)
    for _ in range(20):
        N = int(rng.integers(2, 6))
        c = random_conversation(rng, N, int(rng.integers(1, 20)))
        params = random_params(rng, N)
        U = likelihood_sequence(params, W_SIG, c)
        speakers = c.speakers.tolist()
        assert nll_loss(U, c, eps=0.0) == pytest.approx(
            oracle.nll(params.inherent.tolist(), params.memory.tolist(), ORACLE_SIG, speakers, N),
            abs=1e-12,
        )
        assert weighted_loss(U, c, eps=0.0) == pytest.approx(
            oracle.weighted_nll(
                params.inherent.tolist(), params.memory.tolist(), ORACLE_SIG, speakers, N
            ),
            abs=1e-12,
        )


def test_eps_floor_keeps_observed_zero_finite():
    # Member 2 speaks at turn 2 with score zero; flooring the eligible scores
    # turns -log 0 into a large but finite penalty with a closed form.
    c = conv([1, 2], 3)
    U = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    for eps in (1e-8, 1e-6):
        expected = (math.log(3) - math.log(eps / (1 + eps))) / 2
        assert nll_loss(U, c, eps=eps) == pytest.approx(expected, rel=1e-12)
    # Both turns are NONFLOOR, so the weights are uniform at 2 / (4 * 2).
    assert weighted_loss(U, c, eps=1e-8) == pytest.approx(
        0.25 * nll_loss(U, c, eps=1e-8), rel=1e-12
    )


def test_zero_eps_raises_on_zero_observed():
    c = conv([1, 2], 3)
    U = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ZeroLikelihoodError):
        nll_loss(U, c, eps=0.0)


def test_loss_raises_when_all_scores_zero_without_floor():
    c = conv([1, 2], 2)
    U = np.zeros((2, 2))
    with pytest.raises(DegenerateDistributionError):
        nll_loss(U, c, eps=0.0)


def test_loss_shape_mismatch_rejected():
    c = conv([1, 2], 3)
    with pytest.raises(ValueError):
        nll_loss(np.ones((2, 2)), c)


def test_likelihood_sequence_matches_per_turn_scores():
    rng = np.random.default_rng(9)
    for _ in range(20):
        N = int(rng.integers(2, 6))
        c = random_conversation(rng, N, int(rng.integers(1, 15)))
        params = random_params(rng, N)
        U = likelihood_sequence(params, W_SIG, c)
        for t in range(1, len(c) + 1):
            u = speaking_scores(params, W_SIG, compute_gaps(c, t))
            assert U[t - 1] == pytest.approx(u, abs=1e-15)


# ------------------------------------------------------------------ sampling


def test_sample_speaker_is_deterministic_per_seed():
    u = np.array([0.2, 0.5, 0.3])
    a = [sample_speaker(u, np.random.default_rng(11)) for _ in range(5)]
    b = [sample_speaker(u, np.random.default_rng(11)) for _ in range(5)]
    assert a == b


def test_sample_speaker_matches_probabilities():
    u = np.array([1.0, 0.0, 3.0])
    rng = np.random.default_rng(12)
    draws = np.array([sample_speaker(u, rng) for _ in range(20000)])
    assert not np.any(draws == 2)
    freq1 = np.mean(draws == 1)
    assert freq1 == pytest.approx(0.25, abs=3 * math.sqrt(0.25 * 0.75 / 20000))


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

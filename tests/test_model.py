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
    sample_speaker,
    speaking_probabilities,
    speaking_scores,
    true_model,
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


def gaps_at(c, t):
    """Per-member gaps at turn t, which may run to T + 1."""
    return gap_matrix(c, horizon=t)[-1]


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
            u = speaking_scores(params, W_EXP, gaps_at(c, t))
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
            u = speaking_scores(params, W_EXP, gaps_at(c, t))
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
        U = speaking_scores(params, W_SIG, gap_matrix(c))
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
        U = speaking_scores(params, W_EXP, gap_matrix(c))
        V = speaking_scores(params.scaled(factor), W_EXP, gap_matrix(c))
        for a, b in zip(U, V):
            assert speaking_probabilities(a) == pytest.approx(
                speaking_probabilities(b), abs=1e-10
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
    rng = np.random.default_rng(9)
    for _ in range(20):
        N = int(rng.integers(2, 6))
        c = random_conversation(rng, N, int(rng.integers(1, 15)))
        params = random_params(rng, N)
        U = speaking_scores(params, W_SIG, gap_matrix(c))
        for t in range(1, len(c) + 1):
            u = speaking_scores(params, W_SIG, gaps_at(c, t))
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

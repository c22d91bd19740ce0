"""Synthetic worlds: trait draws, score maps, dataset assembly, seeding."""

import dataclasses
import math

import numpy as np
import pytest

from turntaking import (
    SynthConfig,
    evaluate,
    generate_dataset,
    substream,
    traits_to_scores,
    true_model,
)
from turntaking.synthgen import (
    STREAM_CONV,
    STREAM_TRAITS,
    _make_groups,
    d_of_trait,
    pi_of_trait,
    sample_traits,
)


def literal_d(x):
    """The memory-score map written out independently."""
    return (15 * math.e / 2) * (
        (math.exp(-2 * (1.1 - x)) - math.exp(-2)) / (math.exp(-0.2) - math.exp(-2)) + 1 / 3
    )


# --------------------------------------------------------------- score maps


def test_pi_endpoints_and_midpoint():
    assert pi_of_trait(0.1) == pytest.approx(math.sqrt(0.1), abs=1e-15)
    assert pi_of_trait(1.0) == 1.0
    assert pi_of_trait(0.5) == pytest.approx(0.7071067811865476, abs=1e-15)


def test_d_endpoints():
    assert d_of_trait(0.1) == pytest.approx(2.5 * math.e, abs=1e-12)
    assert d_of_trait(1.0) == pytest.approx(10 * math.e, abs=1e-12)
    assert d_of_trait(0.1) == pytest.approx(6.7957045711476125, abs=1e-12)
    assert d_of_trait(1.0) == pytest.approx(27.18281828459045, abs=1e-12)


def test_d_matches_literal_formula_on_grid():
    for x in np.linspace(0.1, 1.0, 40):
        assert d_of_trait(x) == pytest.approx(literal_d(float(x)), rel=1e-14)


def test_d_is_increasing_and_spans_about_4x():
    grid = np.linspace(0.1, 1.0, 200)
    vals = d_of_trait(grid)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] / vals[0] == pytest.approx(4.0, abs=1e-12)


def test_score_maps_reject_out_of_range_traits():
    for bad in (0.05, 1.05, -1.0):
        with pytest.raises(ValueError):
            pi_of_trait(np.array([bad]))
        with pytest.raises(ValueError):
            d_of_trait(np.array([0.5, bad]))


def test_traits_to_scores_accepts_roster_and_array():
    from turntaking import Roster

    traits = np.array([0.1, 0.5, 1.0])
    a = traits_to_scores(traits)
    b = traits_to_scores(Roster(traits=traits))
    np.testing.assert_array_equal(a.inherent, b.inherent)
    np.testing.assert_array_equal(a.memory, b.memory)
    assert a.inherent[0] == pytest.approx(math.sqrt(0.1), abs=1e-15)
    assert a.memory[2] == pytest.approx(10 * math.e, abs=1e-12)


# -------------------------------------------------------------- trait draws


def test_sample_traits_range_and_shape():
    config = SynthConfig()
    roster = sample_traits(config, np.random.default_rng(1))
    assert roster.size == 5
    assert np.all(roster.traits >= 0.1)
    assert np.all(roster.traits <= 1.0)


def test_sample_traits_mean_matches_uniform():
    config = SynthConfig()
    rng = np.random.default_rng(2)
    draws = np.concatenate([sample_traits(config, rng).traits for _ in range(2000)])
    assert draws.size == 10_000
    assert draws.mean() == pytest.approx(0.55, abs=0.01)


# ---------------------------------------------------------------- substreams


def test_substream_is_deterministic_per_path():
    a = substream(0, 1, 2, STREAM_TRAITS).random(4)
    b = substream(0, 1, 2, STREAM_TRAITS).random(4)
    np.testing.assert_array_equal(a, b)


def test_substream_paths_are_independent():
    base = substream(0, 1, 2, STREAM_TRAITS).random(4)
    for other in (
        substream(0, 1, 2, STREAM_CONV),
        substream(0, 1, 3, STREAM_TRAITS),
        substream(0, 2, 2, STREAM_TRAITS),
        substream(1, 1, 2, STREAM_TRAITS),
    ):
        assert not np.array_equal(base, other.random(4))


# ------------------------------------------------------------------ datasets


def test_default_dataset_shape():
    config = SynthConfig(turns=50)
    data = generate_dataset(config, trial=1)
    assert len(data.train) == 10
    assert len(data.val) == 5
    assert len(data.test) == 5
    assert [g.group_id for g in data.all_groups] == list(range(1, 21))
    for g in data.all_groups:
        assert g.roster.size == 5
        assert len(g.conversation) == 50
        assert g.conversation.group_size == 5


def test_generated_conversations_have_no_consecutive_repeats():
    data = generate_dataset(SynthConfig(turns=200), trial=3)
    for g in data.all_groups:
        s = g.conversation.speakers
        assert np.all(s[1:] != s[:-1])


def test_ground_truth_scores_stay_in_band():
    data = generate_dataset(SynthConfig(turns=5), trial=2)
    for g in data.all_groups:
        assert np.all(g.scores.inherent >= math.sqrt(0.1) - 1e-12)
        assert np.all(g.scores.inherent <= 1.0 + 1e-12)
        assert np.all(g.scores.memory >= 2.5 * math.e - 1e-12)
        assert np.all(g.scores.memory <= 10 * math.e + 1e-12)
        np.testing.assert_allclose(g.scores.inherent, pi_of_trait(g.roster.traits), rtol=1e-15)


def test_dataset_regeneration_is_bit_identical():
    config = SynthConfig(turns=120)
    a = generate_dataset(config, trial=4)
    b = generate_dataset(config, trial=4)
    for ga, gb in zip(a.all_groups, b.all_groups):
        np.testing.assert_array_equal(ga.roster.traits, gb.roster.traits)
        np.testing.assert_array_equal(ga.conversation.speakers, gb.conversation.speakers)


def test_trials_differ():
    config = SynthConfig(turns=120)
    a = generate_dataset(config, trial=1)
    b = generate_dataset(config, trial=2)
    assert not np.array_equal(a.train[0].roster.traits, b.train[0].roster.traits)


def test_proclivity_swap_keeps_rosters_and_changes_conversations():
    exp = generate_dataset(SynthConfig(turns=150, proclivity="exp"), trial=5)
    sig = generate_dataset(SynthConfig(turns=150, proclivity="sigmoid"), trial=5)
    for ge, gs in zip(exp.all_groups, sig.all_groups):
        np.testing.assert_array_equal(ge.roster.traits, gs.roster.traits)
        np.testing.assert_array_equal(ge.scores.memory, gs.scores.memory)
    assert any(
        not np.array_equal(ge.conversation.speakers, gs.conversation.speakers)
        for ge, gs in zip(exp.all_groups, sig.all_groups)
    )


def test_pairs_view():
    data = generate_dataset(SynthConfig(turns=5), trial=1)
    pairs = data.pairs("train")
    assert len(pairs) == 10
    assert pairs[0][0] is data.train[0].roster
    assert pairs[0][1] is data.train[0].conversation


def test_make_group_uses_per_group_streams():
    config = SynthConfig(turns=30)
    g1, g2 = _make_groups(config, trial=1, group_ids=[1, 2])
    assert not np.array_equal(g1.roster.traits, g2.roster.traits)
    [regen] = _make_groups(config, trial=1, group_ids=[1])
    np.testing.assert_array_equal(g1.roster.traits, regen.roster.traits)
    np.testing.assert_array_equal(g1.conversation.speakers, regen.conversation.speakers)
    # A dataset samples its groups in lockstep; each equals the group alone.
    for g in generate_dataset(config, trial=1).all_groups:
        [alone] = _make_groups(config, trial=1, group_ids=[g.group_id])
        np.testing.assert_array_equal(g.roster.traits, alone.roster.traits)
        np.testing.assert_array_equal(g.conversation.speakers, alone.conversation.speakers)


def test_ground_truth_loss_sits_in_plausible_band():
    # The generating parameters should explain their own conversations far
    # better than the uniform baseline (about 1.39) but still leave
    # irreducible randomness, putting the loss near one.
    from turntaking import by_name

    config = SynthConfig()
    data = generate_dataset(config, trial=1)
    prox = by_name(config.proclivity)
    losses = [row.nll for row in evaluate(true_model(data.test, prox), data.test).groups]
    assert 0.85 <= float(np.mean(losses)) <= 1.35


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(groups_total=15, train_groups=9, val_groups=5)
    with pytest.raises(ValueError, match="every split needs at least one group"):
        SynthConfig(test_groups=0)
    with pytest.raises(ValueError):
        SynthConfig(members=1)
    with pytest.raises(ValueError):
        SynthConfig(turns=0)
    with pytest.raises(ValueError):
        SynthConfig(proclivity="mystery")
    with pytest.raises(ValueError):
        SynthConfig(trials=0)


def test_split_counts_are_the_only_layout():
    data = generate_dataset(SynthConfig(train_groups=4, turns=5))
    assert [len(data.train), len(data.val), len(data.test)] == [4, 5, 5]
    assert [g.group_id for g in data.all_groups] == list(range(1, 15))
    assert "groups_total" not in {f.name for f in dataclasses.fields(SynthConfig)}
    # The keyword is still taken when it states the sum, and then forgotten.
    config = SynthConfig(groups_total=6, train_groups=4, val_groups=2)
    assert config == SynthConfig(train_groups=4, val_groups=2)
    assert "groups_total" not in repr(config)

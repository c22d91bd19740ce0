"""Variant bundles, likelihood gradients, and the block coordinate fit."""

import logging

import numpy as np
import pytest

import oracle
from turntaking import (
    Conversation,
    ExpDecayProclivity,
    FitConfig,
    Group,
    LearnedProclivity,
    ModelBundle,
    Roster,
    TrainingSet,
    ZeroProclivity,
    conversation_nll_gradients,
    evaluate,
    fit,
    predict_scores,
    sample_conversation,
    traits_to_scores,
)
from turntaking.neural import DenseNet
from turntaking.training import (
    BLOCK_PROCLIVITY,
    BLOCK_SCORES,
    _build_stacks,
    _descend_proclivity,
    _descend_scores,
    _mean_nll,
    _nll_gradients,
)


def bundle_loss(bundle, roster, conversation):
    """Mean per-turn NLL of one conversation through the public ``evaluate``."""
    group = Group(group_id=1, roster=roster, scores=None, conversation=conversation)
    return evaluate(bundle, [group]).nll


def make_pair(rng, members=3, turns=12):
    roster = Roster(traits=rng.uniform(0.1, 1.0, members))
    params = traits_to_scores(roster)
    conversation = sample_conversation(params, ExpDecayProclivity(), turns, rng)
    return roster, conversation


def perturbed_net(net, layer, index, kind, h):
    weights = [W.copy() for W in net.weights]
    biases = [b.copy() for b in net.biases]
    (weights if kind == "w" else biases)[layer][index] += h
    return DenseNet(weights=tuple(weights), biases=tuple(biases), activation=net.activation)


def warmed_bundle(rng, hidden=(4,), seed=0, variant="pro", **settings):
    """A bundle nudged off its neutral start so every output varies.

    ``settings`` (``activation``, ``delta_scale``) go to ``ModelBundle.make``.
    """
    from dataclasses import replace

    from turntaking import apply_update, backward

    def warmed(net):
        for _ in range(3):
            grads = backward(net, rng.uniform(0.1, 1.0, 6), rng.normal(size=6))
            net = apply_update(net, grads, 0.8)
        return net

    bundle = ModelBundle.make(variant, seed=seed, hidden=hidden, **settings)
    bundle = replace(bundle, f_net=warmed(bundle.f_net), g_net=warmed(bundle.g_net))
    if bundle.learns_proclivity:
        bundle = replace(bundle, proclivity=bundle.proclivity.with_net(warmed(bundle.proclivity.net)))
    return bundle


# ------------------------------------------------------------------ variants


def test_nm_scores_are_uniform_no_memory():
    roster = Roster(traits=np.array([0.2, 0.5, 0.9]))
    params = predict_scores(ModelBundle.make("nm"), roster)
    assert np.all(params.inherent == 1.0)
    assert np.all(params.memory == 0.0)


def test_hm_scores_are_memory_dominated():
    roster = Roster(traits=np.array([0.2, 0.5]))
    bundle = ModelBundle.make("hm")
    params = predict_scores(bundle, roster)
    assert np.all(params.inherent == 1e-2)
    assert np.all(params.memory == 1.0)
    assert isinstance(bundle.proclivity, ExpDecayProclivity)


def test_fresh_learnable_bundles_predict_half():
    roster = Roster(traits=np.array([0.1, 0.55, 1.0]))
    for variant in ("pro", "exp"):
        bundle = ModelBundle.make(variant, seed=11)
        params = predict_scores(bundle, roster)
        assert np.all(params.inherent == 0.5)
        assert np.all(params.memory == 0.5)
    pro = ModelBundle.make("pro", seed=11)
    assert pro.learns_proclivity
    assert pro.proclivity(5) == 0.5
    exp = ModelBundle.make("exp", seed=11)
    assert not exp.learns_proclivity
    assert isinstance(exp.proclivity, ExpDecayProclivity)


def test_nm_bundle_has_zero_proclivity():
    bundle = ModelBundle.make("nm")
    assert isinstance(bundle.proclivity, ZeroProclivity)
    assert not bundle.learns_proclivity


def test_make_is_deterministic_and_seed_sensitive():
    a = ModelBundle.make("pro", seed=3)
    b = ModelBundle.make("pro", seed=3)
    c = ModelBundle.make("pro", seed=4)
    assert a.f_net == b.f_net and a.g_net == b.g_net
    assert a.proclivity.net == b.proclivity.net
    assert a.f_net != c.f_net
    # f, g, and the proclivity net all start from distinct draws.
    assert a.f_net != a.g_net


def test_bundle_validation():
    with pytest.raises(ValueError):
        ModelBundle.make("mystery")
    with pytest.raises(ValueError):
        ModelBundle(variant="pro", proclivity=ExpDecayProclivity())


# ----------------------------------------------------------------- gradients


def assert_gradients_match_finite_differences(bundle, roster, conversation, h=1e-5):
    """Both blocks' exact gradients against central differences of the loss."""
    from dataclasses import replace

    def central(perturb):
        hi, lo = (bundle_loss(perturb(step), roster, conversation) for step in (h, -h))
        return (hi - lo) / (2 * h)

    grads = conversation_nll_gradients(bundle, roster, conversation, BLOCK_SCORES)
    for name in ("f", "g"):
        net = getattr(bundle, f"{name}_net")
        for l in range(len(net.weights)):
            for idx in np.ndindex(net.weights[l].shape):
                fd = central(
                    lambda step: replace(
                        bundle, **{f"{name}_net": perturbed_net(net, l, idx, "w", step)}
                    )
                )
                assert grads[name].weights[l][idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    grads = conversation_nll_gradients(bundle, roster, conversation, BLOCK_PROCLIVITY)
    net = bundle.proclivity.net
    for l in range(len(net.weights)):
        for idx in np.ndindex(net.biases[l].shape):
            fd = central(
                lambda step: replace(
                    bundle,
                    proclivity=bundle.proclivity.with_net(perturbed_net(net, l, idx, "b", step)),
                )
            )
            assert grads["nu"].biases[l][idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(41)
    for trial in range(4):
        bundle = warmed_bundle(rng, seed=trial)
        roster, conversation = make_pair(rng, members=3, turns=10)
        assert_gradients_match_finite_differences(bundle, roster, conversation)


def test_gradients_empty_for_non_learnable_blocks():
    rng = np.random.default_rng(42)
    roster, conversation = make_pair(rng)
    exp = ModelBundle.make("exp", seed=0)
    assert conversation_nll_gradients(exp, roster, conversation, BLOCK_PROCLIVITY) == {}
    assert set(conversation_nll_gradients(exp, roster, conversation, BLOCK_SCORES)) == {"f", "g"}
    nm = ModelBundle.make("nm")
    assert conversation_nll_gradients(nm, roster, conversation, BLOCK_SCORES) == {}
    assert conversation_nll_gradients(nm, roster, conversation, BLOCK_PROCLIVITY) == {}


def test_gradients_reject_unknown_block():
    rng = np.random.default_rng(43)
    roster, conversation = make_pair(rng)
    with pytest.raises(ValueError):
        conversation_nll_gradients(ModelBundle.make("pro"), roster, conversation, "both")


def test_first_turn_only_conversation_trains_inherent_scores_only():
    # A single turn is governed by pi alone: no gradient reaches g or nu.
    rng = np.random.default_rng(44)
    bundle = warmed_bundle(rng)
    roster = Roster(traits=np.array([0.3, 0.6, 0.9]))
    conversation = Conversation(speakers=np.array([2]), group_size=3)
    grads = conversation_nll_gradients(bundle, roster, conversation, BLOCK_SCORES)
    assert grads["f"].norm() > 0.0
    assert grads["g"].norm() == 0.0
    grads = conversation_nll_gradients(bundle, roster, conversation, BLOCK_PROCLIVITY)
    assert grads["nu"].norm() == 0.0


@pytest.mark.parametrize("members, turns", [(2, 300), (3, 200)])
def test_compact_labels_keep_flat_indices_exact(members, turns):
    # uint8 labels times T would leave uint8: 300 does not fit (numpy raises),
    # and 2 * 200 would wrap silently. Loss and gradients must not notice.
    rng = np.random.default_rng(46)
    bundle = warmed_bundle(rng)
    roster, conversation = make_pair(rng, members=members, turns=turns)
    assert conversation.speakers.dtype == np.uint8
    params = predict_scores(bundle, roster)
    want = oracle.nll(
        params.inherent.tolist(),
        params.memory.tolist(),
        bundle.proclivity,
        conversation.speakers.tolist(),
        members,
    )
    assert bundle_loss(bundle, roster, conversation) == pytest.approx(want, abs=1e-12)
    assert_gradients_match_finite_differences(bundle, roster, conversation)


def test_batched_loss_matches_public_path():
    # Checked against the oracle, not evaluate: evaluate runs the same pass.
    rng = np.random.default_rng(45)
    bundle = warmed_bundle(rng)
    pairs = [make_pair(rng, members=3, turns=8) for _ in range(3)]
    stacks = _build_stacks(pairs)
    per_group = []
    for roster, conversation in pairs:
        params = predict_scores(bundle, roster)
        per_group.append(
            oracle.nll(
                params.inherent.tolist(),
                params.memory.tolist(),
                bundle.proclivity,
                conversation.speakers.tolist(),
                roster.size,
            )
        )
    assert _mean_nll(bundle, stacks) == pytest.approx(np.mean(per_group), abs=1e-12)


def mixed_shape_pairs(rng):
    """Two groups of one shape plus one of another: two stacks, one with B = 2."""
    return [
        make_pair(rng, members=3, turns=10),
        make_pair(rng, members=3, turns=10),
        make_pair(rng, members=4, turns=7),
    ]


def test_batched_gradients_match_finite_differences_across_stacks():
    from dataclasses import replace

    rng = np.random.default_rng(56)
    h = 1e-5
    bundle = warmed_bundle(rng)
    stacks = _build_stacks(mixed_shape_pairs(rng))
    assert sorted(s.shape[0] for s in stacks) == [1, 2]

    def loss(b):
        return _mean_nll(b, stacks)

    attach = {
        "f": lambda n: replace(bundle, f_net=n),
        "g": lambda n: replace(bundle, g_net=n),
        "nu": lambda n: replace(bundle, proclivity=bundle.proclivity.with_net(n)),
    }
    nets = {"f": bundle.f_net, "g": bundle.g_net, "nu": bundle.proclivity.net}
    for block, names in ((BLOCK_SCORES, ("f", "g")), (BLOCK_PROCLIVITY, ("nu",))):
        grads = _nll_gradients(bundle, stacks, block)
        assert set(grads) == set(names)
        for name in names:
            net = nets[name]
            for l in range(len(net.weights)):
                for kind, params, got in (
                    ("w", net.weights[l], grads[name].weights[l]),
                    ("b", net.biases[l], grads[name].biases[l]),
                ):
                    for idx in np.ndindex(params.shape):
                        hi = loss(attach[name](perturbed_net(net, l, idx, kind, h)))
                        lo = loss(attach[name](perturbed_net(net, l, idx, kind, -h)))
                        fd = (hi - lo) / (2 * h)
                        assert got[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def assert_same_on_fresh_stacks(bundle, stacks, pairs):
    """Loss and both blocks' gradients on ``stacks`` equal those on a fresh build."""
    fresh = _build_stacks(pairs)
    assert _mean_nll(bundle, stacks) == _mean_nll(bundle, fresh)
    for block in (BLOCK_SCORES, BLOCK_PROCLIVITY):
        grads = _nll_gradients(bundle, stacks, block)
        ref_grads = _nll_gradients(bundle, fresh, block)
        assert set(grads) == set(ref_grads)
        for name in grads:
            for got, ref in zip(
                grads[name].weights + grads[name].biases,
                ref_grads[name].weights + ref_grads[name].biases,
            ):
                assert np.array_equal(got, ref)


def test_reused_stacks_follow_a_changed_proclivity():
    rng = np.random.default_rng(57)
    bundle = warmed_bundle(rng)
    pairs = mixed_shape_pairs(rng)
    stacks = _build_stacks(pairs)
    before = _mean_nll(bundle, stacks)

    moved = _descend_proclivity(bundle, stacks, FitConfig(step=0.5))
    assert moved.proclivity is not bundle.proclivity
    assert stacks.gather(moved.proclivity) is stacks.gather(moved.proclivity)
    assert_same_on_fresh_stacks(moved, stacks, pairs)
    assert stacks.turns == _build_stacks(pairs).turns
    assert _mean_nll(moved, stacks) != before


def test_reused_stacks_follow_changed_score_nets():
    # The score cache must be rebuilt whenever either net changes, and only
    # the pair of nets it was built from may hit it.
    from dataclasses import replace

    rng = np.random.default_rng(58)
    bundle = warmed_bundle(rng)
    pairs = mixed_shape_pairs(rng)
    stacks = _build_stacks(pairs)
    before = _mean_nll(bundle, stacks)

    moved = _descend_scores(bundle, stacks, FitConfig(step=0.5))
    assert moved.f_net is not bundle.f_net and moved.g_net is not bundle.g_net
    assert stacks.scores(moved) is stacks.scores(moved)
    # After the first, each step changes one net from the step before: f, f, g, f.
    for variant in (
        moved,
        replace(moved, f_net=bundle.f_net),
        moved,
        replace(moved, g_net=bundle.g_net),
        bundle,
    ):
        assert_same_on_fresh_stacks(variant, stacks, pairs)
    assert _mean_nll(moved, stacks) != before


def test_nm_and_hm_do_not_share_cached_scores():
    # Both variants have (None, None) nets; each must still score as itself.
    rng = np.random.default_rng(59)
    pairs = mixed_shape_pairs(rng)
    stacks = _build_stacks(pairs)
    nm, hm = ModelBundle.make("nm"), ModelBundle.make("hm")
    nm_loss = _mean_nll(nm, stacks)
    hm_loss = _mean_nll(hm, stacks)
    assert nm_loss == _mean_nll(nm, _build_stacks(pairs))
    assert hm_loss == _mean_nll(hm, _build_stacks(pairs))
    assert nm_loss != hm_loss


def test_stacks_group_mixed_shapes():
    rng = np.random.default_rng(46)
    pairs = [
        make_pair(rng, members=3, turns=8),
        make_pair(rng, members=3, turns=8),
        make_pair(rng, members=4, turns=6),
    ]
    stacks = _build_stacks(pairs)
    assert sorted(s.shape for s in stacks) == [(1, 6, 4), (2, 8, 3)]
    bundle = ModelBundle.make("exp", seed=1)
    per_group = [bundle_loss(bundle, r, c) for r, c in pairs]
    turns = [len(c) for _, c in pairs]
    expected = np.dot(per_group, turns) / sum(turns)
    assert _mean_nll(bundle, stacks) == pytest.approx(expected, abs=1e-12)


def test_stacks_reject_mismatched_roster():
    roster = Roster(traits=np.array([0.2, 0.5]))
    conversation = Conversation(speakers=np.array([1, 2, 3]), group_size=3)
    with pytest.raises(ValueError):
        _build_stacks([(roster, conversation)])


# ----------------------------------------------------------------------- fit


def toy_training_set(rng, groups=1, members=3, turns=60):
    return TrainingSet(train=[make_pair(rng, members, turns) for _ in range(groups)])


def test_fit_returns_nm_and_hm_unchanged():
    rng = np.random.default_rng(47)
    ts = toy_training_set(rng)
    for variant in ("nm", "hm"):
        bundle = ModelBundle.make(variant)
        result = fit(bundle, ts)
        assert result.bundle is bundle
        assert result.history == []
        assert result.best_outer == 0
        assert result.stop_reason is None


def test_fit_training_loss_non_increasing_with_small_step(caplog):
    rng = np.random.default_rng(48)
    ts = toy_training_set(rng, turns=80)
    cfg = FitConfig(step=0.01, max_outer=15, patience=50)
    with caplog.at_level(logging.WARNING, logger="turntaking.training"):
        result = fit(ModelBundle.make("pro", seed=0, hidden=(8,)), ts, cfg)
    train = [row[1] for row in result.history]
    assert len(train) == 16
    assert np.all(np.diff(train) <= 1e-6)
    assert result.stop_reason == "max_outer"
    # Still improving at the cap: the fit says it has not converged.
    assert result.best_outer == 15
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "max_outer=15" in caplog.records[0].getMessage()


def test_fit_history_is_reproducible():
    rng1 = np.random.default_rng(49)
    rng2 = np.random.default_rng(49)
    cfg = FitConfig(step=0.05, max_outer=6, patience=10)
    r1 = fit(ModelBundle.make("pro", seed=5, hidden=(6,)), toy_training_set(rng1), cfg)
    r2 = fit(ModelBundle.make("pro", seed=5, hidden=(6,)), toy_training_set(rng2), cfg)
    assert r1.history == r2.history
    assert r1.bundle.f_net == r2.bundle.f_net
    assert r1.bundle.proclivity.net == r2.bundle.proclivity.net


def test_fit_keeps_best_validation_snapshot():
    rng = np.random.default_rng(50)
    train = [make_pair(rng, turns=40) for _ in range(2)]
    val = [make_pair(rng, turns=40)]
    cfg = FitConfig(step=0.05, max_outer=25, patience=5)
    result = fit(ModelBundle.make("pro", seed=1, hidden=(6,)), TrainingSet(train, val), cfg)
    val_losses = [row[2] for row in result.history]
    assert result.history[result.best_outer][2] == min(val_losses)
    returned_val = np.mean([bundle_loss(result.bundle, r, c) for r, c in val])
    assert returned_val == pytest.approx(min(val_losses), abs=1e-12)


def test_fit_history_row_zero_is_initial_loss():
    rng = np.random.default_rng(51)
    pair = make_pair(rng, turns=30)
    bundle = ModelBundle.make("exp", seed=2)
    result = fit(bundle, TrainingSet([pair]), FitConfig(max_outer=2, patience=5))
    assert result.history[0][0] == 0
    assert result.history[0][1] == pytest.approx(bundle_loss(bundle, *pair), abs=1e-12)
    # Without a validation split the train loss doubles as the val loss.
    assert result.history[0][2] == result.history[0][1]


def test_fit_exp_never_touches_the_proclivity():
    rng = np.random.default_rng(52)
    bundle = ModelBundle.make("exp", seed=3)
    result = fit(bundle, toy_training_set(rng), FitConfig(max_outer=3, patience=5))
    assert result.bundle.proclivity is bundle.proclivity
    assert result.bundle.f_net != bundle.f_net


def test_descent_blocks_are_isolated():
    rng = np.random.default_rng(53)
    bundle = ModelBundle.make("pro", seed=4, hidden=(6,))
    stacks = _build_stacks([make_pair(rng, turns=30)])
    cfg = FitConfig(step=0.05)

    after_scores = _descend_scores(bundle, stacks, cfg)
    assert after_scores.proclivity is bundle.proclivity
    assert after_scores.f_net != bundle.f_net
    assert after_scores.g_net != bundle.g_net

    after_prox = _descend_proclivity(bundle, stacks, cfg)
    assert after_prox.f_net is bundle.f_net
    assert after_prox.g_net is bundle.g_net
    assert after_prox.proclivity.net != bundle.proclivity.net


def test_fit_early_stopping_truncates_history(caplog):
    # A tiny train split overfits quickly against an unrelated validation
    # conversation, so patience kicks in long before max_outer.
    rng = np.random.default_rng(54)
    train = [make_pair(rng, turns=20)]
    val_roster = Roster(traits=np.array([0.15, 0.5, 0.95]))
    val_conv = sample_conversation(
        predict_scores(ModelBundle.make("nm"), val_roster),
        ZeroProclivity(),
        40,
        np.random.default_rng(55),
    )
    cfg = FitConfig(step=0.1, max_outer=500, patience=3)
    with caplog.at_level(logging.WARNING, logger="turntaking.training"):
        result = fit(
            ModelBundle.make("pro", seed=6, hidden=(4,)),
            TrainingSet(train, [(val_roster, val_conv)]),
            cfg,
        )
    assert len(result.history) < 501
    # The history ends with exactly `patience` non-improving iterations.
    best_val = result.history[result.best_outer][2]
    tail = [row[2] for row in result.history[result.best_outer + 1 :]]
    assert len(tail) == 3
    assert all(v >= best_val for v in tail)
    assert result.stop_reason == "patience"
    assert caplog.records == []


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(step=0.0)
    with pytest.raises(ValueError):
        FitConfig(patience=0)
    with pytest.raises(ValueError):
        FitConfig(max_outer=-1)


@pytest.mark.parametrize("setting", [{"step": np.nan}, {"step": np.inf}, {"clip_norm": np.nan},
                                     {"clip_norm": np.inf}])
def test_fit_config_rejects_non_finite_step_and_clip_norm(setting):
    (name,) = setting
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        FitConfig(**setting)


def test_training_set_requires_train_pairs():
    with pytest.raises(ValueError):
        TrainingSet(train=[])

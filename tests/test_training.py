"""Variant bundles, likelihood gradients, the L-BFGS block steps and the block coordinate fit."""

import logging
import re
from collections import deque

import numpy as np
import pytest

import oracle
from turntaking import (
    Conversation,
    ExpDecayProclivity,
    FitConfig,
    FitDivergenceError,
    Group,
    LearnedProclivity,
    ModelBundle,
    Roster,
    SigmoidProclivity,
    SynthConfig,
    TrainingSet,
    conversation_nll_gradients,
    evaluate,
    fit,
    gap_matrix,
    generate_dataset,
    sample_conversation,
    traits_to_scores,
)
from turntaking import training
from turntaking.model import EPS_FLOOR
from turntaking.neural import DenseNet, _forward
from turntaking.proclivity import ZeroProclivity
from turntaking.training import (
    BLOCK_PROCLIVITY,
    BLOCK_SCORES,
    MAX_MOVE,
    MEMORY,
    MIN_GAIN,
    _block,
    _direction,
    _Stacks,
    _mean_nll,
    _proclivity_gradient,
    _score_gradient,
    predict_scores,
)

from test_model import random_conversation
from test_neural import net_gradient, same_bits, stepped


def bundle_loss(bundle, roster, conversation):
    """Mean per-turn NLL of one conversation through the public ``evaluate``."""
    group = Group(group_id=1, roster=roster, scores=None, conversation=conversation)
    return evaluate(bundle, [group]).nll


def make_pair(rng, members=3, turns=12):
    roster = Roster(traits=rng.uniform(0.1, 1.0, members))
    params = traits_to_scores(roster)
    conversation = sample_conversation(params, ExpDecayProclivity(), turns, rng)
    return roster, conversation


def nudged_net(net, index, h):
    """Copy of ``net`` with entry ``index`` of its ``params`` moved by h."""
    params = net.params.copy()
    params[index] += h
    return net._with_params(params)


def weight_count(net) -> int:
    """How many of ``net.params`` are weights: they come first, then the biases."""
    return sum(W.size for W in net.weights)


def warmed_bundle(rng, hidden=(4,), seed=0, variant="pro"):
    """A bundle nudged off its neutral start so every output varies."""
    from dataclasses import replace

    def warmed(net):
        for _ in range(3):
            net = stepped(net, net_gradient(net, rng.uniform(0.1, 1.0, 6), rng.normal(size=6)), 0.8)
        return net

    bundle = ModelBundle.make(variant, seed=seed, hidden=hidden)
    bundle = replace(bundle, f_net=warmed(bundle.f_net), g_net=warmed(bundle.g_net))
    if bundle.learns_proclivity:
        bundle = replace(bundle, proclivity=LearnedProclivity(warmed(bundle.proclivity.net)))
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
    assert type(bundle.proclivity) is ExpDecayProclivity


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
    assert type(exp.proclivity) is ExpDecayProclivity


def test_nm_bundle_has_zero_proclivity():
    bundle = ModelBundle.make("nm")
    assert type(bundle.proclivity) is ZeroProclivity
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


@pytest.mark.parametrize("build", [
    lambda: ModelBundle.make("pro", hidden=()),
    lambda: ModelBundle.make("exp", hidden=()),
    lambda: LearnedProclivity.fresh(0, hidden=()),
], ids=["pro", "exp", "proclivity"])
def test_net_without_hidden_layer_is_refused(build):
    with pytest.raises(ValueError, match="at least one hidden layer"):
        build()


def test_bundle_validation():
    with pytest.raises(ValueError):
        ModelBundle.make("mystery")
    with pytest.raises(ValueError, match="unknown variant 'mystery'"):
        ModelBundle(variant="mystery", proclivity=ExpDecayProclivity())
    with pytest.raises(ValueError, match="needs f and g"):
        ModelBundle(variant="exp", proclivity=ExpDecayProclivity())
    wide, narrow = (ModelBundle.make("exp", hidden=hidden) for hidden in ((4,), (3,)))
    with pytest.raises(ValueError, match="f and g networks must share one layout"):
        ModelBundle(variant="exp", proclivity=ExpDecayProclivity(),
                    f_net=wide.f_net, g_net=narrow.g_net)


@pytest.mark.parametrize("variant, proclivity", [
    ("pro", ExpDecayProclivity()),
    ("exp", SigmoidProclivity()),
    ("exp", LearnedProclivity.fresh(seed=1)),
    ("hm", ZeroProclivity()),
    ("nm", ExpDecayProclivity()),
])
def test_bundle_takes_only_its_variant_proclivity_kind(variant, proclivity):
    # Each of these once made a bundle that a checkpoint misread or rejected.
    nets = ModelBundle.make("exp", seed=2)
    with pytest.raises(ValueError, match=f"variant {variant!r} takes the"):
        ModelBundle(variant=variant, proclivity=proclivity, f_net=nets.f_net, g_net=nets.g_net)


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
        assert grads[name].shape == net.params.shape
        for i in range(weight_count(net)):
            fd = central(lambda step: replace(bundle, **{f"{name}_net": nudged_net(net, i, step)}))
            assert grads[name][i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    grads = conversation_nll_gradients(bundle, roster, conversation, BLOCK_PROCLIVITY)
    net = bundle.proclivity.net
    assert grads["nu"].shape == net.params.shape
    for i in range(weight_count(net), net.params.size):
        fd = central(
            lambda step: replace(bundle, proclivity=LearnedProclivity(nudged_net(net, i, step)))
        )
        assert grads["nu"][i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


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
    assert np.any(grads["f"] != 0.0)
    assert np.all(grads["g"] == 0.0)
    grads = conversation_nll_gradients(bundle, roster, conversation, BLOCK_PROCLIVITY)
    assert np.all(grads["nu"] == 0.0)


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


def split_parts(bundle, stacks):
    """A split's scores and table under a learnable bundle, as ``fit`` builds them."""
    return stacks.scores(bundle.f_net, bundle.pair), stacks.gather(bundle.proclivity)


def split_loss(bundle, stacks):
    return _mean_nll(stacks, training._pass(stacks, *split_parts(bundle, stacks)))


def test_batched_loss_matches_public_path():
    # Checked against the oracle, not evaluate: evaluate runs the same pass.
    rng = np.random.default_rng(45)
    bundle = warmed_bundle(rng)
    pairs = [make_pair(rng, members=3, turns=8) for _ in range(3)]
    stacks = _Stacks(pairs)
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
    assert split_loss(bundle, stacks) == pytest.approx(np.mean(per_group), abs=1e-12)


def mixed_shape_pairs(rng):
    """Two groups of one shape plus one of another: two stacks, one with B = 2."""
    return [
        make_pair(rng, members=3, turns=10),
        make_pair(rng, members=3, turns=10),
        make_pair(rng, members=4, turns=7),
    ]


def assert_split_gradients_match_finite_differences(bundle, stacks, h=1e-5):
    """Every parameter's gradient on a split against central differences of its loss."""
    from dataclasses import replace

    attach = {
        "f": lambda n: replace(bundle, f_net=n),
        "g": lambda n: replace(bundle, g_net=n),
        "nu": lambda n: replace(bundle, proclivity=LearnedProclivity(n)),
    }
    nets = {"f": bundle.f_net, "g": bundle.g_net, "nu": bundle.proclivity.net}
    sc, tab = split_parts(bundle, stacks)
    passed = training._pass(stacks, sc, tab)
    grads = {**dict(zip("fg", _score_gradient(stacks, sc, tab, passed))),
             "nu": _proclivity_gradient(stacks, sc, tab, passed)}
    for name, net in nets.items():
        assert grads[name].shape == net.params.shape
        for i in range(net.params.size):
            hi = split_loss(attach[name](nudged_net(net, i, h)), stacks)
            lo = split_loss(attach[name](nudged_net(net, i, -h)), stacks)
            fd = (hi - lo) / (2 * h)
            assert grads[name][i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_batched_gradients_match_finite_differences_across_stacks():
    rng = np.random.default_rng(56)
    bundle = warmed_bundle(rng)
    stacks = _Stacks(mixed_shape_pairs(rng))
    assert sorted(s.gaps.shape[0] for s in stacks.stacks) == [1, 2]
    assert_split_gradients_match_finite_differences(bundle, stacks)


def test_gathered_table_is_the_proclivity_table_without_gap_one():
    rng = np.random.default_rng(64)
    stacks = _Stacks(mixed_shape_pairs(rng) + [make_pair(rng, members=6, turns=600)])
    assert stacks.max_gap > 64
    for proclivity in (warmed_bundle(rng, hidden=(16, 16)).proclivity,
                       warmed_bundle(rng, hidden=(4, 3)).proclivity,
                       ExpDecayProclivity(), SigmoidProclivity(), ZeroProclivity()):
        expected = proclivity.table(stacks.max_gap)
        expected[1] = 0.0
        tab = stacks.gather(proclivity)
        for s, w in zip(stacks.stacks, tab.w):
            assert np.array_equal(w, expected[s.gaps])
        assert np.array_equal(tab.w_obs, expected[stacks.gap_obs])


def test_a_split_holds_no_model_output():
    # A split is a fixed layout, and fit reuses one table across the score
    # steps and one set of scores across the proclivity steps: a pass and
    # both gradients change none of them.
    import pickle

    rng = np.random.default_rng(57)
    bundle = warmed_bundle(rng)
    stacks = _Stacks(mixed_shape_pairs(rng))
    pickled = pickle.dumps(vars(stacks))
    sc, tab = split_parts(bundle, stacks)

    def outputs():
        return [*sc[:6], *tab.w, tab.w_obs]

    kept = [a.copy() for a in outputs()]
    passed = training._pass(stacks, sc, tab)
    _mean_nll(stacks, passed)
    _score_gradient(stacks, sc, tab, passed)
    _proclivity_gradient(stacks, sc, tab, passed)
    assert pickle.dumps(vars(stacks)) == pickled
    assert all(np.array_equal(a, b) for a, b in zip(outputs(), kept))


def test_score_nets_run_once_per_split(monkeypatch):
    # However many stacks a split holds, each trial of a score step runs one
    # stacked forward for the new pair, and each trial of a proclivity step
    # one net forward for the new table, then one pass; an accepted trial
    # takes its gradient from that pass, one backward from the activations
    # it was given and no forward of its own. Only row 0 runs a pass at a
    # point no trial passed: every block starts from the pass the last one
    # ended on, reads its gradient there (an exp block after the first is
    # handed the one its predecessor ended with), and runs no pass. A
    # validation loss runs one forward of each and a pass.
    from turntaking import neural, proclivity

    rng = np.random.default_rng(63)
    train = mixed_shape_pairs(rng) + [make_pair(rng, members=5, turns=9)]
    val = [make_pair(rng, members=3, turns=10), make_pair(rng, members=4, turns=12)]
    assert len(_Stacks(train).stacks) == 3 and len(_Stacks(val).stacks) == 2
    val_turns = _Stacks(val).turns
    assert _Stacks(train).turns != val_turns
    events = []

    def spy(module, name, letter):
        real = getattr(module, name)

        def call(*args):
            events.append(letter(*args))
            return real(*args)

        monkeypatch.setattr(module, name, call)

    bundles = {variant: warmed_bundle(rng, variant=variant) for variant in ("pro", "exp")}
    # A forward or backward is named by the parameters it ran on (argument 2
    # of ``_forward``, 3 of ``_backward``): the (2, P) pair, or a net's own.
    for module in (neural, proclivity, training):
        spy(module, "_forward", lambda *args: "f" if args[2].ndim == 2 else "t")
        spy(module, "_backward", lambda *args: "b" if args[3].ndim == 2 else "n")
    spy(training, "_pass", lambda stacks, sc, tab: "V" if stacks.turns == val_turns else "P")
    spy(training, "_score_gradient", lambda *args: "S")
    spy(training, "_proclivity_gradient", lambda *args: "G")

    monkeypatch.setattr(training, "BLOCK_STEPS", 2)
    cfg = FitConfig(max_outer=3)
    # A block's trials: each a forward and a pass, an accepted one with its
    # gradient and backward.
    score, prox = r"(?:fP(?:Sb)?)*", r"(?:tP(?:Gn)?)*"
    patterns = {"pro": f"ftPftV(?:Sb{score}Gn{prox}ftV){{3}}",
                "exp": f"fPfVSb(?:{score}fV){{3}}"}
    steps = []
    for variant, pattern in patterns.items():
        events.clear()
        result = fit(bundles[variant], TrainingSet(train, val), cfg)
        assert len(result.history) == 4
        trace = "".join(events)
        assert re.fullmatch(pattern, trace), trace
        assert result.passes == trace.count("P") + trace.count("V")
        # Each block takes at most BLOCK_STEPS accepted steps. The trace
        # splits at the validation losses: row 0's pass, then each outer
        # iteration's blocks.
        outers = trace.split("ftV" if variant == "pro" else "fV")[1:-1]
        assert len(outers) == cfg.max_outer
        steps += [outer.count(accepted) for outer in outers for accepted in ("fPSb", "tPGn")]
    assert max(steps) == training.BLOCK_STEPS


def test_stacks_group_mixed_shapes():
    rng = np.random.default_rng(46)
    pairs = [
        make_pair(rng, members=3, turns=8),
        make_pair(rng, members=3, turns=8),
        make_pair(rng, members=4, turns=6),
    ]
    stacks = _Stacks(pairs)
    assert sorted(s.gaps.shape for s in stacks.stacks) == [(1, 4, 6), (2, 3, 8)]
    bundle = ModelBundle.make("exp", seed=1)
    per_group = [bundle_loss(bundle, r, c) for r, c in pairs]
    turns = [len(c) for _, c in pairs]
    expected = np.dot(per_group, turns) / sum(turns)
    assert split_loss(bundle, stacks) == pytest.approx(expected, abs=1e-12)


def test_gap_one_marks_exactly_the_previous_speaker():
    # The likelihood pass leaves the previous speaker out through its gap-1
    # cell: that must be the turn before's speaker, and nobody on turn 1.
    rng = np.random.default_rng(61)
    for _ in range(20):
        N, T = int(rng.integers(2, 7)), int(rng.integers(1, 40))
        convs = [make_pair(rng, members=N, turns=T)[1] for _ in range(3)]
        stacks = _Stacks([(Roster(np.linspace(0.1, 1.0, N)), c) for c in convs])
        labels = np.stack([c.speakers for c in convs]).astype(int) - 1
        assert np.array_equal(stacks.speaker, (np.arange(3)[:, None] * N + labels).ravel())
        for gaps, speakers in zip(stacks.stacks[0].gaps, labels):
            expected = np.zeros((N, T), dtype=bool)
            expected[speakers[:-1], np.arange(1, T)] = True
            assert np.array_equal(gaps == 1, expected)


def floored_bundle(traits):
    """A ``pro`` bundle whose scores sit around EPS_FLOOR: pi about 1e-9 for
    the two lower traits and 6e-8 for the highest, memory scores 1e-8 to 4e-8,
    and a learned proclivity falling from 0.8 at gap 2 towards 0."""
    def net(weight, bias):
        return DenseNet(weights=(np.array([[weight]]),), biases=(np.array([bias]),))

    bundle = ModelBundle(
        variant="pro",
        proclivity=LearnedProclivity(net(-8.0, 2.0)),
        f_net=net(7.0, -22.2),
        g_net=net(2.0, -18.5),
    )
    pi = _forward(bundle.f_net, traits)[0]
    assert (pi <= EPS_FLOOR).sum() == 2
    return bundle


def assert_floor_straddled(bundle, roster, conversation):
    """The conversation has eligible cells of floored members on both sides
    of EPS_FLOOR, none within 1% of it, and an observed score at or below it."""
    params = predict_scores(bundle, roster)
    low = np.flatnonzero(params.inherent <= EPS_FLOOR)
    gaps = gap_matrix(conversation)
    cells = params.inherent + params.memory * bundle.proclivity.values(gaps)
    eligible = cells[:, low][gaps[:, low] != 1]
    assert np.min(np.abs(eligible / EPS_FLOOR - 1.0)) > 1e-2
    assert (eligible <= EPS_FLOOR).any() and (eligible > EPS_FLOOR).any()
    observed = cells[np.arange(len(conversation)), conversation.speakers - 1]
    assert (observed <= EPS_FLOOR).any()


def test_gradients_with_floored_cells_match_finite_differences():
    # Floored cells have no slope. Finite differences see that only if no
    # cell sits within a step's reach of the floor, so that is checked too.
    rng = np.random.default_rng(62)
    roster = Roster(traits=np.array([0.2, 0.5, 0.8]))
    bundle = floored_bundle(roster.traits)
    for _ in range(3):
        conversation = random_conversation(rng, 3, 40)
        assert_floor_straddled(bundle, roster, conversation)
        assert_gradients_match_finite_differences(bundle, roster, conversation)


def interleaved_floored_split():
    """``floored_bundle`` and a split of stacks of 3, 4 and 3 members, the
    floored members at different positions, each straddling the floor."""
    rng = np.random.default_rng(64)
    rosters = [Roster(traits=np.array(t)) for t in
               ([0.2, 0.5, 0.8], [0.8, 0.2, 0.9, 0.7], [0.9, 0.8, 0.5])]
    bundle = floored_bundle(rosters[0].traits)
    pairs = [
        (roster, random_conversation(rng, roster.size, turns))
        for roster, turns in zip(rosters, (40, 40, 30))
    ]
    for roster, conversation in pairs:
        assert_floor_straddled(bundle, roster, conversation)
    stacks = _Stacks(pairs)
    assert [s.gaps.shape for s in stacks.stacks] == [(1, 3, 40), (1, 4, 40), (1, 3, 30)]
    return bundle, stacks


def test_floored_cells_get_no_slope_in_interleaved_stacks():
    # Each stack writes its score slopes, floor corrections included, into
    # its own rows of the split's vectors; the three stacks check those offsets.
    assert_split_gradients_match_finite_differences(*interleaved_floored_split())


def test_gradients_read_a_pass_without_changing_it():
    # fit hands the pass at a block's last accepted point to the next block,
    # and in a pro fit both gradients read it. Either gradient, read first or
    # second from a shared pass, must be the bits it reads from its own fresh
    # pass, and the pass, floored cells included, must keep its bits.
    bundle, stacks = interleaved_floored_split()
    sc, tab = split_parts(bundle, stacks)
    gradients = (_score_gradient, _proclivity_gradient)
    fresh = [gradient(stacks, sc, tab, training._pass(stacks, sc, tab)) for gradient in gradients]
    for order in (gradients, gradients[::-1]):
        passed = training._pass(stacks, sc, tab)
        totals, observed, floored = passed
        assert floored is not None and (observed == EPS_FLOOR).any()
        arrays = [totals, observed, *floored[:3], *floored[3]]
        kept = [a.copy() for a in arrays]
        for gradient in order:
            assert same_bits(gradient(stacks, sc, tab, passed), fresh[gradients.index(gradient)])
        assert all(same_bits(a, b) for a, b in zip(arrays, kept))


def test_split_pass_matches_the_oracle_at_conversation_boundaries():
    # Three stacks of two conversations each: T = 2, an N = 2 group, and
    # N = 4. Member 1 of every group scores under the floor whenever it is
    # eligible, so floored cells sit on first and last turns next to
    # conversation and stack boundaries mid-split, where the per-turn
    # vectors (c, the next-turn shift, the floor corrections) change rows.
    import math

    speakers = [[2, 3], [3, 1], [1, 2, 1, 2, 1, 2, 1, 2, 1], [2, 1, 2, 1, 2, 1, 2, 1, 2],
                [2, 3, 4, 2, 3, 2, 4], [1, 3, 1, 4, 2, 3, 1]]
    sizes = [3, 3, 2, 2, 4, 4]
    rng = np.random.default_rng(66)
    pairs = [(Roster(np.linspace(0.1, 1.0, N)), Conversation(np.array(s), N))
             for s, N in zip(speakers, sizes)]
    pi = [np.concatenate([[1e-9], rng.uniform(0.2, 1.5, N - 1)]) for N in sizes]
    d = [np.concatenate([[0.0], rng.uniform(0.0, 3.0, N - 1)]) for N in sizes]
    stacks = _Stacks(pairs)
    assert [s.gaps.shape for s in stacks.stacks] == [(2, 3, 2), (2, 2, 9), (2, 4, 7)]
    proclivity = ExpDecayProclivity()
    totals, observed, floored = training._pass(
        stacks, stacks.record(np.concatenate(pi), np.concatenate(d)), stacks.gather(proclivity)
    )
    assert floored is not None and (observed == EPS_FLOOR).any()
    turn_nll = np.log(totals) - np.log(observed)
    start = 0
    for (roster, conversation), p, m in zip(pairs, pi, d):
        got = turn_nll[start : start + len(conversation)].mean()
        start += len(conversation)
        want = oracle.nll(p.tolist(), m.tolist(), lambda g: math.exp(-g / 2),
                          conversation.speakers.tolist(), roster.size, floor=EPS_FLOOR)
        assert got == pytest.approx(want, abs=1e-12)
    # The same pairs through evaluate (one split per group) and through the
    # split pass, under score nets that floor two of the traits.
    rosters = {3: [0.2, 0.5, 0.8], 2: [0.2, 0.9], 4: [0.8, 0.2, 0.5, 0.7]}
    pairs = [(Roster(np.array(rosters[c.group_size])), c) for _, c in pairs]
    bundle = floored_bundle(np.array(rosters[3]))
    groups = [Group(group_id=k, roster=r, scores=None, conversation=c)
              for k, (r, c) in enumerate(pairs)]
    assert evaluate(bundle, groups).nll == pytest.approx(
        split_loss(bundle, _Stacks(pairs)), abs=1e-12
    )


def test_stacks_reject_mismatched_roster():
    roster = Roster(traits=np.array([0.2, 0.5]))
    conversation = Conversation(speakers=np.array([1, 2, 3]), group_size=3)
    with pytest.raises(ValueError):
        _Stacks([(roster, conversation)])


# ------------------------------------------------------------ L-BFGS blocks


def quadratic(A, minimum):
    """``run`` and ``gradient`` of ``0.5 (x - minimum)' A (x - minimum)``, with
    ``x`` its own output and the residual ``x - minimum`` its pass."""
    def run(x):
        r = x - minimum
        return 0.5 * r @ A @ r, r

    return run, lambda x, r: A @ r


def run_block(x, run, gradient, build=lambda x: x):
    """``_block`` from ``x``, its own output, after a pass there."""
    return _block(x, x, run(x), deque(maxlen=MEMORY), build, run, gradient)


def dense_inverse_hessian(pairs, n):
    """The BFGS inverse Hessian from ``pairs``, oldest first, as one matrix."""
    s, y = pairs[-1]
    H = np.eye(n) * (s @ y) / (y @ y)
    for s, y in pairs:
        rho = 1.0 / (s @ y)
        V = np.eye(n) - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    return H


def test_two_loop_direction_is_the_dense_bfgs_step():
    rng = np.random.default_rng(70)
    n = 6
    root = rng.normal(size=(n, n))
    A = root @ root.T + n * np.eye(n)
    pairs = [(s, A @ s) for s in rng.normal(size=(n, n))]
    grad = rng.normal(size=n)
    memory = deque(pairs, maxlen=MEMORY)
    got = _direction(memory, grad)
    np.testing.assert_allclose(got, -dense_inverse_hessian(pairs, n) @ grad, rtol=1e-12)
    assert got @ grad < 0 and len(memory) == n


def test_direction_falls_back_to_steepest_descent_scaled_to_max_move():
    grad = np.array([[0.5, -2.0, 1.0], [0.25, 0.0, -1.5]])
    want = grad * (-MAX_MOVE / 2.0)
    assert np.array_equal(_direction(deque(maxlen=MEMORY), grad), want)
    assert np.abs(want).max() == MAX_MOVE
    # A pair with s.y < 0 gives a negative H0, so -Hg climbs: the pairs go.
    s = np.ones_like(grad)
    memory = deque([(s, -s)], maxlen=MEMORY)
    assert np.array_equal(_direction(memory, grad), want)
    assert not memory


@pytest.mark.parametrize("seed", range(5))
def test_block_minimises_a_convex_quadratic_within_reach(seed, monkeypatch):
    # Armijo's unit steps do not end a quadratic in n steps the way exact line
    # searches do, so the quadratic is well conditioned (eigenvalues in
    # [1, 2]) and its minimum within a few MAX_MOVE steps of the start.
    rng = np.random.default_rng(seed)
    n = 6
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = Q @ np.diag(rng.uniform(1.0, 2.0, n)) @ Q.T
    start = np.zeros(n)
    monkeypatch.setattr(training, "BLOCK_STEPS", n + 1)
    x, at, (loss, _), _ = run_block(start, *quadratic(A, rng.uniform(-0.1, 0.1, n)))
    assert loss <= 1e-10 and at is x
    assert not start.any()


@pytest.mark.parametrize("failure", ["raises", "inf", "nan"])
def test_block_backtracks_a_failed_trial(failure, monkeypatch):
    # The first trial moves x by MAX_MOVE to 0.3; past 0.2 the forward raises
    # FloatingPointError or the loss is not finite. Both halve the step.
    run, gradient = quadratic(np.eye(1), np.array([0.3]))

    def build(x):
        if failure == "raises" and x[0] > 0.2:
            raise FloatingPointError("non-finite value in forward pass")
        return x

    def failing(x):
        loss, r = run(x)
        return (float(failure) if failure != "raises" and x[0] > 0.2 else loss), r

    monkeypatch.setattr(training, "BLOCK_STEPS", 1)
    x, *_ = run_block(np.zeros(1), failing, gradient, build)
    assert x.tolist() == [0.15]


def test_block_with_no_passing_trial_ends_without_moving():
    def build(x):
        raise FloatingPointError("non-finite value in forward pass")

    start = np.array([1.0, -1.0])
    run, gradient = quadratic(np.eye(2), np.zeros(2))
    begun = run(start)
    x, at, now, _ = _block(start, start, begun, deque(maxlen=MEMORY), build, run, gradient)
    assert x is start and at is start and now[0] == 1.0 and now[1] is begun[1]


def test_block_ends_once_a_step_gains_too_little():
    # Far above its minimum, each step gains well under BLOCK_GAIN of the
    # loss: the block stops after its first accepted step.
    gradients = []
    run, gradient = quadratic(np.eye(2), np.zeros(2))

    def offset(x):
        loss, r = run(x)
        return 1e6 + loss, r

    def read(x, r):
        gradients.append(x)
        return gradient(x, r)

    _, _, (loss, _), _ = run_block(np.array([0.5, 0.5]), offset, read)
    assert len(gradients) == 2 and loss < 1e6 + 0.25


def test_block_ends_on_the_pass_and_gradient_of_its_last_accepted_point():
    # fit hands both to the next block: the loss and the pass must be the
    # ones a fresh pass there gives, and a block handed its start gradient
    # reads none at its start.
    run, gradient = quadratic(np.diag([1.0, 2.0, 3.0]), np.array([0.1, -0.2, 0.3]))
    reads = []

    def read(x, r):
        reads.append(x)
        return gradient(x, r)

    x, at, (loss, r), grad = run_block(np.zeros(3), run, read)
    assert len(reads) > 2 and at is x and x is reads[-1]
    assert loss == run(x)[0] and np.array_equal(r, x - np.array([0.1, -0.2, 0.3]))
    assert np.array_equal(grad, gradient(x, r))
    reads.clear()
    _block(x, at, (loss, r), deque(maxlen=MEMORY), lambda x: x, run, read, grad)
    assert reads and all(point is not x for point in reads)


@pytest.mark.parametrize("bad", [np.inf, 1e200])
def test_non_finite_gradient_at_an_accepted_point_is_floating_point_error(bad):
    # The first accepted trial's gradient is not finite: 1e200 squared
    # overflows, with no numpy warning ahead of the FloatingPointError. The
    # start point is left untouched. A NaN is the same error, see
    # test_neural's test_apply_update_reports_divergence_as_floating_point_error.
    def gradient(x, _):
        scale = (bad, bad) if x[0] < 1.0 else (1.0, 1.0)
        return 2.0 * x * scale[0] * scale[1]

    start = np.array([1.0, 0.5])
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        run_block(start, lambda x: (float(x @ x), None), gradient)
    assert start.tolist() == [1.0, 0.5]


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


def test_fit_train_loss_never_rises():
    # Each accepted step lowers the loss, and a block starts where the last
    # one ended, so a default fit's train losses never rise.
    rng = np.random.default_rng(48)
    ts = toy_training_set(rng, turns=80)
    result = fit(ModelBundle.make("pro", seed=0, hidden=(8,)), ts)
    train = [row[1] for row in result.history]
    assert len(train) > 2
    assert np.all(np.diff(train) <= 0)


def test_fit_training_loss_non_increasing_with_small_step(monkeypatch, caplog):
    # With the move cap cut to 0.01, the fit creeps: its train losses still
    # never rise, and it is still improving at the cap, so it says it has
    # not converged.
    monkeypatch.setattr(training, "MAX_MOVE", 0.01)
    rng = np.random.default_rng(48)
    ts = toy_training_set(rng, turns=80)
    cfg = FitConfig(max_outer=15)
    with caplog.at_level(logging.WARNING, logger="turntaking.training"):
        result = fit(ModelBundle.make("pro", seed=0, hidden=(8,)), ts, cfg)
    train = [row[1] for row in result.history]
    assert len(train) == 16
    assert np.all(np.diff(train) <= 0)
    assert result.stop_reason == "max_outer"
    assert result.best_outer == 15
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "max_outer=15" in caplog.records[0].getMessage()


def test_fit_history_is_reproducible():
    rng1 = np.random.default_rng(49)
    rng2 = np.random.default_rng(49)
    cfg = FitConfig(max_outer=6)
    r1 = fit(ModelBundle.make("pro", seed=5, hidden=(6,)), toy_training_set(rng1), cfg)
    r2 = fit(ModelBundle.make("pro", seed=5, hidden=(6,)), toy_training_set(rng2), cfg)
    assert r1.history == r2.history
    assert r1.bundle.f_net == r2.bundle.f_net
    assert r1.bundle.proclivity.net == r2.bundle.proclivity.net


def test_fit_keeps_best_validation_snapshot():
    rng = np.random.default_rng(50)
    train = [make_pair(rng, turns=40) for _ in range(2)]
    val = [make_pair(rng, turns=40)]
    cfg = FitConfig(max_outer=25)
    result = fit(ModelBundle.make("pro", seed=1, hidden=(6,)), TrainingSet(train, val), cfg)
    val_losses = [row[2] for row in result.history]
    assert result.history[result.best_outer][2] == min(val_losses)
    returned_val = np.mean([bundle_loss(result.bundle, r, c) for r, c in val])
    assert returned_val == pytest.approx(min(val_losses), abs=1e-12)


def test_fit_history_row_zero_is_initial_loss():
    rng = np.random.default_rng(51)
    pair = make_pair(rng, turns=30)
    bundle = ModelBundle.make("exp", seed=2)
    result = fit(bundle, TrainingSet([pair]), FitConfig(max_outer=2))
    assert result.history[0][0] == 0
    assert result.history[0][1] == pytest.approx(bundle_loss(bundle, *pair), abs=1e-12)
    # Without a validation split there is no val loss.
    assert [row[2] for row in result.history] == [None] * 3


def test_fit_without_a_validation_split_stops_on_the_train_loss(monkeypatch):
    # With no validation split the fit stops and snapshots as if the train
    # split were its validation split, but its history holds no val loss.
    # At a patience of 3 the pro fit stops on the rule before the cap.
    rng = np.random.default_rng(51)
    train = [make_pair(rng, turns=40) for _ in range(2)]
    cfg = FitConfig(max_outer=30)
    monkeypatch.setattr(training, "PATIENCE", 3)
    for variant in ("pro", "exp"):
        alone, twice = (fit(ModelBundle.make(variant, seed=2, hidden=(6,)), ts, cfg)
                        for ts in (TrainingSet(train), TrainingSet(train, train)))
        assert [row[2] for row in alone.history] == [None] * len(alone.history)
        assert [row[:2] for row in alone.history] == [row[:2] for row in twice.history]
        assert all(row[1] == row[2] for row in twice.history)
        assert (alone.best_outer, alone.stop_reason) == (twice.best_outer, twice.stop_reason)
        assert (alone.bundle.f_net, alone.bundle.g_net) == (twice.bundle.f_net, twice.bundle.g_net)
        if variant == "pro":
            assert alone.bundle.proclivity == twice.bundle.proclivity


def test_fit_without_a_validation_split_names_the_train_loss(monkeypatch, caplog):
    # The iteration-cap warning and the divergence error name the loss the
    # fit watched: with no validation split, the train loss.
    rng = np.random.default_rng(53)
    train = TrainingSet([make_pair(rng, turns=40) for _ in range(2)])
    with caplog.at_level(logging.WARNING, logger="turntaking.training"):
        result = fit(ModelBundle.make("exp", seed=2, hidden=(6,)), train, FitConfig(max_outer=2))
    assert (result.stop_reason, result.best_outer) == ("max_outer", 2)
    [record] = caplog.records
    message = record.getMessage()
    assert "max_outer=2 while train loss (no validation split) was still improving" in message
    assert "validation loss" not in message

    block = training._block

    def diverging(*args):
        x, at, (_, passed), grad = block(*args)
        return x, at, (float("nan"), passed), grad

    monkeypatch.setattr(training, "_block", diverging)
    with pytest.raises(FitDivergenceError) as caught:
        fit(ModelBundle.make("exp", seed=2, hidden=(6,)), train, FitConfig(max_outer=2))
    assert str(caught.value) == ("non-finite loss at outer iteration 1 "
                                 "(train=nan, no validation split)")


def test_fit_exp_never_touches_the_proclivity():
    rng = np.random.default_rng(52)
    bundle = ModelBundle.make("exp", seed=3)
    result = fit(bundle, toy_training_set(rng), FitConfig(max_outer=3))
    assert result.bundle.proclivity is bundle.proclivity
    assert result.bundle.f_net != bundle.f_net


def test_descent_blocks_are_isolated(monkeypatch):
    # The score block steps only the (2, P) pair of f and g, the proclivity
    # block only nu's vector, each from where its own last step left it and
    # with its own L-BFGS memory, kept for the whole fit. Each block starts
    # from the (loss, pass) the block before it ended on.
    rng = np.random.default_rng(53)
    bundle = ModelBundle.make("pro", seed=4, hidden=(6,))
    calls, real_block = [], training._block

    def block(x, at, now, memory, *rest):
        moved = real_block(x, at, now, memory, *rest)
        calls.append((x, now, memory, moved))
        return moved

    monkeypatch.setattr(training, "_block", block)
    monkeypatch.setattr(training, "BLOCK_STEPS", 2)
    fit(bundle, TrainingSet([make_pair(rng, turns=30)]), FitConfig(max_outer=2))
    assert [x.ndim for x, *_ in calls] == [2, 1] * 2
    assert calls[0][2] is not calls[1][2]
    for (_, now, *_), (*_, moved) in zip(calls[1:], calls):
        assert now is moved[2]
    for ndim, start in ((2, bundle.pair), (1, bundle.proclivity.net.params)):
        own = [call for call in calls if call[0].ndim == ndim]
        assert np.array_equal(own[0][0], start)
        assert all(memory is own[0][2] for _, _, memory, _ in own)
        for (x, *_), (*_, moved) in zip(own[1:], own):
            assert x is moved[0]


def test_fit_early_stopping_truncates_history(monkeypatch, caplog):
    # A tiny train split overfits quickly against an unrelated validation
    # conversation, so at a patience of 3 the fit stops long before max_outer.
    rng = np.random.default_rng(54)
    train = [make_pair(rng, turns=20)]
    val_roster = Roster(traits=np.array([0.15, 0.5, 0.95]))
    val_conv = sample_conversation(
        predict_scores(ModelBundle.make("nm"), val_roster),
        ZeroProclivity(),
        40,
        np.random.default_rng(55),
    )
    cfg = FitConfig(max_outer=500)
    monkeypatch.setattr(training, "PATIENCE", 3)
    with caplog.at_level(logging.WARNING, logger="turntaking.training"):
        result = fit(
            ModelBundle.make("pro", seed=6, hidden=(4,)),
            TrainingSet(train, [(val_roster, val_conv)]),
            cfg,
        )
    assert len(result.history) < 501
    # The history ends with exactly PATIENCE non-improving iterations.
    best_val = result.history[result.best_outer][2]
    tail = [row[2] for row in result.history[result.best_outer + 1 :]]
    assert len(tail) == 3
    assert all(v >= best_val for v in tail)
    assert result.stop_reason == "patience"
    assert caplog.records == []


def test_patience_only_truncates_the_fit(monkeypatch):
    # PATIENCE is read only by the stop rule, so a fit at PATIENCE 10 is the
    # first rows of the same fit at PATIENCE 20, and its snapshot is the
    # lowest validation loss of those rows. On this data the PATIENCE-20 fit
    # goes on to a later, lower one.
    assert training.PATIENCE == 10
    data = generate_dataset(SynthConfig(train_groups=3, val_groups=2, members=4, turns=120), trial=1)
    ts = TrainingSet(data.pairs("train"), data.pairs("val"))
    bundle = ModelBundle.make("pro", seed=2)
    short = fit(bundle, ts)
    monkeypatch.setattr(training, "PATIENCE", 20)
    long = fit(bundle, ts)
    assert short.stop_reason == "patience"
    assert long.history[: len(short.history)] == short.history
    assert short.best_outer == int(np.argmin([row[2] for row in short.history]))
    assert long.best_outer > len(short.history)
    # The same PATIENCE-20 fit capped at that row returns the same snapshot.
    capped = fit(bundle, ts, FitConfig(max_outer=short.best_outer))
    assert capped.bundle.pair.tobytes() == short.bundle.pair.tobytes()
    assert capped.bundle.proclivity.net == short.bundle.proclivity.net


# Train losses that fall by 1% an outer iteration: never a plateau.
FALLING = [2.0 * 0.99 ** k for k in range(201)]


def scripted_fit(monkeypatch, losses, patience=10, train=FALLING, max_outer=100):
    """``fit`` at PATIENCE ``patience`` with one scripted validation loss per
    outer iteration, from row 0 on, and one scripted train loss per row in
    ``train``; also the score pairs it scored.

    The blocks still step the nets on their real passes, so each row has its
    own parameters; only the train loss each row ends on is scripted.
    """
    scored, script, train_script = [], iter(losses), iter(train)
    real_scores, real_nll, real_block = training._Stacks.scores, training._mean_nll, training._block
    rng = np.random.default_rng(60)
    ts = TrainingSet([make_pair(rng, turns=20)], [make_pair(rng, turns=20)])
    blocks = 0

    def is_val(stacks):
        return np.array_equal(stacks.traits, ts.val[0][0].traits)

    def scores(stacks, f_net, pair):
        if is_val(stacks):
            scored.append(pair)
        return real_scores(stacks, f_net, pair)

    def scripted_nll(stacks, passed):
        if is_val(stacks):
            return next(script)
        # Row 0's train pass is the only one before the first block.
        return real_nll(stacks, passed) if blocks else next(train_script)

    def block(*args):
        # exp runs one block per outer iteration: it ends on the row's train loss.
        nonlocal blocks
        blocks += 1
        x, at, (_, passed), grad = real_block(*args)
        return x, at, (next(train_script), passed), grad

    # The validation split is scored once per row, the train split by the
    # blocks' passes; _mean_nll reads both.
    monkeypatch.setattr(training._Stacks, "scores", scores)
    monkeypatch.setattr(training, "_mean_nll", scripted_nll)
    monkeypatch.setattr(training, "_block", block)
    monkeypatch.setattr(training, "PATIENCE", patience)
    bundle = ModelBundle.make("exp", seed=0, hidden=(3,))
    return fit(bundle, ts, FitConfig(max_outer=max_outer)), scored


def test_negligible_validation_gains_do_not_reset_patience(monkeypatch, caplog):
    # Every iteration is a new lowest loss, but by 1e-6 of it, under MIN_GAIN.
    assert MIN_GAIN == 1e-4
    losses = [2.0 * (1 - 1e-6) ** k for k in range(101)]
    with caplog.at_level(logging.WARNING, logger="turntaking.training"):
        result, scored = scripted_fit(monkeypatch, losses, patience=7)
    assert result.stop_reason == "patience"
    assert len(result.history) == 8
    assert [row[1] for row in result.history] == FALLING[:8]
    # The snapshot still follows the lowest loss, the last one.
    assert result.best_outer == 7
    assert np.array_equal(result.bundle.pair, scored[7])
    assert caplog.records == []


def test_relative_gain_above_min_gain_resets_patience(monkeypatch):
    tiny = [2.0 * (1 - 1e-6) ** k for k in range(4)]
    dropped = tiny[-1] * (1 - 2e-4)
    # After the drop at outer 4, losses sit just above it: no new lowest.
    losses = tiny + [dropped] + [dropped * (1 + 1e-6)] * 96
    result, scored = scripted_fit(monkeypatch, losses, patience=5)
    assert result.stop_reason == "patience"
    assert len(result.history) == 4 + 5 + 1
    assert [row[1] for row in result.history] == FALLING[:10]
    assert result.best_outer == 4
    assert np.array_equal(result.bundle.pair, scored[4])


def test_plateau_is_two_outer_iterations():
    assert training.PLATEAU == 2


def flat_after(falls: int, flats=(), rows=100) -> list:
    """Train losses that fall by 1% a row up to row ``falls``, then stay put
    at the rows in ``flats`` and fall by 1% again at the others."""
    train = FALLING[: falls + 1]
    for row in range(falls + 1, rows + 1):
        train.append(train[-1] if row in flats else train[-1] * 0.99)
    return train


# Validation losses whose lowest is at row 3: after it, no new lowest.
BEST_AT_3 = [2.0 * 0.99 ** k for k in range(4)] + [2.0] * 97


def test_two_flat_iterations_after_the_best_snapshot_stop_the_fit(monkeypatch, caplog):
    # Train gains of just under BLOCK_GAIN count as flat.
    train = flat_after(3, flats=(4, 5))
    train[5] = train[4] * (1 - 0.9 * training.BLOCK_GAIN)
    with caplog.at_level(logging.WARNING, logger="turntaking.training"):
        result, scored = scripted_fit(monkeypatch, BEST_AT_3, train=train)
    assert result.stop_reason == "plateau"
    assert len(result.history) == 6
    assert result.best_outer == 3
    assert np.array_equal(result.bundle.pair, scored[3])
    assert caplog.records == []


def test_one_flat_iteration_followed_by_a_gain_does_not_stop_the_fit(monkeypatch):
    result, _ = scripted_fit(monkeypatch, BEST_AT_3, train=flat_after(3, flats=(4, 6, 7)))
    assert result.stop_reason == "plateau"
    assert len(result.history) == 8


def test_flat_iterations_while_the_current_one_is_best_do_not_stop_the_fit(monkeypatch, caplog):
    # The train loss is flat from row 1 on. While every row is a new best
    # validation loss the fit runs to the cap; once one is not, it stops there.
    improving = [2.0 * 0.99 ** k for k in range(101)]
    flat = [2.0] * 101
    with caplog.at_level(logging.WARNING, logger="turntaking.training"):
        result, _ = scripted_fit(monkeypatch, improving, train=flat, max_outer=8)
    assert (result.stop_reason, len(result.history), result.best_outer) == ("max_outer", 9, 8)
    assert "max_outer=8" in caplog.records[0].getMessage()
    monkeypatch.undo()
    result, scored = scripted_fit(monkeypatch, improving[:6] + [2.0] * 95, train=flat)
    assert (result.stop_reason, len(result.history), result.best_outer) == ("plateau", 7, 5)
    assert np.array_equal(result.bundle.pair, scored[5])


def test_the_cap_reached_before_a_plateau_is_max_outer(monkeypatch, caplog):
    train = flat_after(3, flats=(5, 6))
    uncapped, _ = scripted_fit(monkeypatch, BEST_AT_3, train=train)
    assert (uncapped.stop_reason, len(uncapped.history)) == ("plateau", 7)
    monkeypatch.undo()
    with caplog.at_level(logging.WARNING, logger="turntaking.training"):
        capped, _ = scripted_fit(monkeypatch, BEST_AT_3, train=train, max_outer=5)
    assert (capped.stop_reason, len(capped.history), capped.best_outer) == ("max_outer", 6, 3)
    assert caplog.records == []


def test_patience_is_checked_before_the_plateau(monkeypatch):
    # At row 6 both rules hold: three rows without a new best at patience 3,
    # and the train loss flat at rows 5 and 6.
    result, _ = scripted_fit(monkeypatch, BEST_AT_3, patience=3, train=flat_after(3, flats=(5, 6)))
    assert (result.stop_reason, len(result.history), result.best_outer) == ("patience", 7, 3)


def default_fit_world(trial=1):
    synth = SynthConfig(train_groups=4, val_groups=2, test_groups=1,
                        members=4, turns=300)
    data = generate_dataset(synth, trial=trial)
    return TrainingSet([(g.roster, g.conversation) for g in data.train],
                       [(g.roster, g.conversation) for g in data.val])


def test_accepted_steps_move_no_parameter_past_max_move(monkeypatch):
    # The points each block takes a gradient at are its start and its
    # accepted trials: no two in a row differ by more than MAX_MOVE in any
    # parameter, so a fit's parameters stay finite.
    moves, real_block = [], training._block

    def block(x, at, now, memory, build, run, gradient, grad=None):
        # A handed-in gradient was read at the start point.
        accepted = [] if grad is None else [x]

        def read(point, passed):
            accepted.append(point[0])
            return gradient(point[1], passed)

        x, (_, at), now, grad = real_block(x, (x, at), now, memory, lambda x: (x, build(x)),
                                           lambda point: run(point[1]), read, grad)
        moves.extend(np.abs(b - a).max() for a, b in zip(accepted, accepted[1:]))
        return x, at, now, grad

    monkeypatch.setattr(training, "_block", block)
    ts = default_fit_world()
    for variant in ("pro", "exp"):
        fit(ModelBundle.make(variant, seed=0), ts)
    assert len(moves) > 100
    assert MAX_MOVE / 2 < max(moves) <= MAX_MOVE + 1e-12


def test_history_train_loss_is_the_mean_nll_at_the_returned_parameters():
    ts = default_fit_world(trial=2)
    stacks = _Stacks(ts.train)
    for variant in ("pro", "exp"):
        result = fit(ModelBundle.make(variant, seed=1), ts, FitConfig(max_outer=30))
        assert result.best_outer > 0
        assert result.history[result.best_outer][1] == split_loss(result.bundle, stacks)


def test_passes_count_every_likelihood_pass(monkeypatch):
    calls, real_pass = [], training._pass

    def counted(*args):
        calls.append(args[0])
        return real_pass(*args)

    monkeypatch.setattr(training, "_pass", counted)
    rng = np.random.default_rng(71)
    train, val = [make_pair(rng, turns=30) for _ in range(2)], [make_pair(rng, turns=30)]
    for variant in ("pro", "exp"):
        for ts in (TrainingSet(train, val), TrainingSet(train)):
            calls.clear()
            result = fit(ModelBundle.make(variant, seed=2, hidden=(4,)), ts,
                         FitConfig(max_outer=5))
            assert result.passes == len(calls) > 0
    assert fit(ModelBundle.make("nm"), TrainingSet(train)).passes == 0


def test_a_fixed_proclivity_gathers_each_table_once(monkeypatch):
    # exp gathers its train and its validation table once per fit. pro
    # gathers at every trial nu of its block and scores validation under a
    # new table at every history row, because nu moves.
    calls, real_gather = [], _Stacks.gather

    def counted(split, proclivity, nu=None):
        calls.append(split)
        return real_gather(split, proclivity, nu)

    monkeypatch.setattr(_Stacks, "gather", counted)
    rng = np.random.default_rng(72)
    ts = TrainingSet([make_pair(rng, turns=30) for _ in range(2)], [make_pair(rng, turns=30)])
    for variant in ("exp", "pro"):
        calls.clear()
        result = fit(ModelBundle.make(variant, seed=3, hidden=(4,)), ts, FitConfig(max_outer=6))
        train, val = calls[0], calls[1]  # the train table comes first, then row 0's
        counts = [sum(split is s for split in calls) for s in (train, val)]
        assert len(result.history) == 7 and sum(counts) == len(calls)
        if variant == "exp":
            assert counts == [1, 1]
        else:
            assert counts[0] >= len(result.history) and counts[1] == len(result.history)


def test_default_fit_converges_before_the_cap(caplog):
    # A small exp world: the default fit must stop on patience, not at max_outer.
    ts = default_fit_world()
    cfg = FitConfig()
    with caplog.at_level(logging.WARNING, logger="turntaking.training"):
        result = fit(ModelBundle.make("pro", seed=0), ts, cfg)
    assert result.stop_reason == "patience"
    assert len(result.history) - 1 < cfg.max_outer // 2
    assert caplog.records == []


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(max_outer=0)
    with pytest.raises(ValueError):
        FitConfig(max_outer=-1)


@pytest.mark.parametrize("setting", [{"step": np.nan}, {"step": np.inf}, {"clip_norm": np.nan},
                                     {"clip_norm": np.inf}, {"score_epochs": 2},
                                     {"proclivity_epochs": 2}, {"patience": 10}])
def test_fit_config_rejects_settings_it_no_longer_has(setting):
    # None of step, clip_norm, the old per-block step caps and patience is a
    # FitConfig field (a block's cap is the constant BLOCK_STEPS, the stop
    # rule's the constant PATIENCE), so any value of one is refused.
    (name,) = setting
    with pytest.raises(TypeError, match=name):
        FitConfig(**setting)


def test_training_set_requires_train_pairs():
    with pytest.raises(ValueError):
        TrainingSet(train=[])

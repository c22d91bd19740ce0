"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The two full-scale recovery tests (exponential and sigmoid-plateau worlds)
each run the complete ten-trial protocol at the default settings and take
about three seconds apiece on two cores; everything else is fast.
"""

import math
import time

import numpy as np
import pytest

import oracle
from turntaking import (
    Conversation,
    ExpDecayProclivity,
    ExperimentConfig,
    FitConfig,
    Group,
    LearnedProclivity,
    ModelBundle,
    Roster,
    ScoreParams,
    SigmoidProclivity,
    SynthConfig,
    evaluate,
    generate_dataset,
    run_experiment,
    sample_conversations,
    true_model,
)
from turntaking.cli import main
from turntaking.model import TurnClass, classify_turns, class_weights
from turntaking.training import BLOCK_PROCLIVITY, BLOCK_SCORES, conversation_nll_gradients

from test_model import engine_probabilities
from test_training import bundle_loss, make_pair, nudged_net, warmed_bundle


def report_line(name, checks):
    """Print exactly one PASS/FAIL line for a criterion, then assert."""
    failed = [label for label, ok in checks if not ok]
    if failed:
        print(f"{name} FAIL: " + "; ".join(failed))
    else:
        print(f"{name} PASS")
    assert not failed, f"{name} failed: {failed}"


@pytest.fixture(scope="module")
def exp_report():
    config = ExperimentConfig(
        synth=SynthConfig(proclivity="exp", master_seed=0), fit=FitConfig()
    )
    return run_experiment(config)


@pytest.fixture(scope="module")
def sig_report():
    config = ExperimentConfig(
        synth=SynthConfig(proclivity="sigmoid", master_seed=0), fit=FitConfig()
    )
    return run_experiment(config)


def median(report, variant, metric):
    return float(np.median(report.trial_values(variant, metric)))


# --------------------------------------------------------------------- AC-1


def test_ac1_uniform_baseline_loss_is_analytic():
    expected = math.log(4) + (math.log(5) - math.log(4)) / 800
    nm = ModelBundle.make("nm")
    checks = []
    # A synthetic conversation and a mechanical round-robin one: the value
    # cannot depend on who actually spoke.
    synthetic = generate_dataset(SynthConfig(), trial=1).test[0].conversation
    round_robin = Conversation(
        speakers=np.arange(800) % 5 + 1, group_size=5
    )
    roster = Roster(np.linspace(0.1, 1.0, 5))
    for label, conversation in (("sampled", synthetic), ("round robin", round_robin)):
        group = Group(group_id=1, roster=roster, scores=None, conversation=conversation)
        loss = evaluate(nm, [group]).nll
        checks.append(
            (f"{label} loss {loss!r} != ln4 + (ln5 - ln4)/800 within 1e-9",
             abs(loss - expected) < 1e-9)
        )
    report_line("AC-1", checks)


# --------------------------------------------------------------------- AC-2


def max_relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    assert analytic.shape == fd.shape
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float((np.abs(analytic - fd) / denom).max())


def fd_bundle_gradients(bundle, roster, conversation, component, h=1e-5):
    """Central differences of the mean per-turn NLL over one net's params."""
    from dataclasses import replace

    def rebuilt(net):
        if component == "f":
            return replace(bundle, f_net=net)
        if component == "g":
            return replace(bundle, g_net=net)
        return replace(bundle, proclivity=LearnedProclivity(net))

    net = {"f": bundle.f_net, "g": bundle.g_net, "nu": bundle.proclivity.net}[component]
    grads = np.empty_like(net.params)
    for i in range(net.params.size):
        hi = bundle_loss(rebuilt(nudged_net(net, i, h)), roster, conversation)
        lo = bundle_loss(rebuilt(nudged_net(net, i, -h)), roster, conversation)
        grads[i] = (hi - lo) / (2 * h)
    return grads


def test_ac2_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for instance in range(20):
        if instance % 4 == 0:
            bundle = ModelBundle.make("pro", seed=instance, hidden=(4,))
        else:
            bundle = warmed_bundle(rng, hidden=(4,), seed=instance)
        roster, conversation = make_pair(
            rng, members=3 + instance % 2, turns=8 + instance % 5
        )
        scores = conversation_nll_gradients(bundle, roster, conversation, BLOCK_SCORES)
        prox = conversation_nll_gradients(bundle, roster, conversation, BLOCK_PROCLIVITY)
        for component, grads in (("f", scores["f"]), ("g", scores["g"]), ("nu", prox["nu"])):
            fd = fd_bundle_gradients(bundle, roster, conversation, component)
            worst = max(worst, max_relative_error(grads, fd))
    elapsed = time.perf_counter() - start
    report_line(
        "AC-2",
        [
            (f"max relative error {worst:.3e} >= 1e-4", worst < 1e-4),
            (f"runtime {elapsed:.1f}s >= 30s", elapsed < 30.0),
        ],
    )


# --------------------------------------------------------------------- AC-3


@pytest.mark.slow
def test_ac3_exponential_world_recovery(exp_report):
    hm_nll = median(exp_report, "hm", "nll")
    nm_nll = median(exp_report, "nm", "nll")
    nm_turn = median(exp_report, "nm", "nll_turn")
    hm_turn = median(exp_report, "hm", "nll_turn")
    true_nll = median(exp_report, "true", "nll")
    pro_nll = median(exp_report, "pro", "nll")
    exp_nll = median(exp_report, "exp", "nll")
    report_line(
        "AC-3",
        [
            (f"(a) median HM nll {hm_nll:.4f} !< median NM nll {nm_nll:.4f}",
             hm_nll < nm_nll),
            (f"(b) median NM nll_turn {nm_turn:.4f} !< median HM nll_turn {hm_turn:.4f}",
             nm_turn < hm_turn),
            (f"(b) median HM nll_turn {hm_turn:.4f} outside 1.56 +/- 0.15",
             abs(hm_turn - 1.56) <= 0.15),
            (f"(c) median PRO nll {pro_nll:.4f} not within 0.1 of True {true_nll:.4f}",
             abs(pro_nll - true_nll) <= 0.1),
            (f"(c) median EXP nll {exp_nll:.4f} not within 0.1 of True {true_nll:.4f}",
             abs(exp_nll - true_nll) <= 0.1),
        ],
    )


# --------------------------------------------------------------------- AC-4


@pytest.mark.slow
def test_ac4_sigmoid_world_separation(sig_report):
    checks = []
    wins = {}
    for metric in ("nll", "nll_turn"):
        pro = median(sig_report, "pro", metric)
        exp = median(sig_report, "exp", metric)
        checks.append(
            (f"(a) median PRO {metric} {pro:.4f} !< median EXP {metric} {exp:.4f}",
             pro < exp)
        )
        pro_vals = sig_report.trial_values("pro", metric)
        exp_vals = sig_report.trial_values("exp", metric)
        wins[metric] = sum(p < e for p, e in zip(pro_vals, exp_vals))
        checks.append(
            (f"(a) PRO beats EXP on {metric} in only {wins[metric]}/10 trials",
             wins[metric] >= 7)
        )
    hm_nll = median(sig_report, "hm", "nll")
    hm_turn = median(sig_report, "hm", "nll_turn")
    checks.append(
        (f"(b) median HM nll {hm_nll:.4f} outside 1.69 +/- 0.15",
         abs(hm_nll - 1.69) <= 0.15)
    )
    checks.append(
        (f"(b) median HM nll_turn {hm_turn:.4f} outside 1.55 +/- 0.15",
         abs(hm_turn - 1.55) <= 0.15)
    )
    for metric in ("nll", "nll_turn"):
        nm = median(sig_report, "nm", metric)
        hm = median(sig_report, "hm", metric)
        checks.append(
            (f"(c) median NM {metric} {nm:.4f} !< median HM {metric} {hm:.4f}",
             nm < hm)
        )
    report_line("AC-4", checks)


# --------------------------------------------------------------------- AC-5


@pytest.mark.slow
def test_ac5_proclivity_curve_recovery(sig_report):
    mean_pro = sig_report.mean_curve("pro").values
    smoothed = np.convolve(mean_pro, np.ones(3) / 3.0, mode="valid")
    non_increasing = bool(np.all(np.diff(smoothed) <= 1e-12))

    true_curve = sig_report.mean_curve("true").values
    closer = 0
    total = 0
    for trial in sig_report.trials:
        if "pro" not in trial.curves or "exp" not in trial.curves:
            continue
        total += 1
        pro_dist = float(np.linalg.norm(trial.curves["pro"].values - true_curve))
        exp_dist = float(np.linalg.norm(trial.curves["exp"].values - true_curve))
        closer += pro_dist < exp_dist
    report_line(
        "AC-5",
        [
            ("(a) smoothed trial-averaged PRO curve is not non-increasing",
             non_increasing),
            (f"(b) PRO curve closer to truth than EXP in only {closer}/{total} trials",
             closer >= 7),
        ],
    )


# --------------------------------------------------------------------- AC-6


def test_ac6_exhaustive_oracle_equivalence():
    pi = [0.7, 1.1, 0.4]
    d = [2.0, 0.5, 1.3]
    params = ScoreParams(np.array(pi), np.array(d))
    kinds = [
        (ExpDecayProclivity(), lambda g: math.exp(-g / 2)),
        (SigmoidProclivity(), lambda g: 0.95 / (1 + math.exp(-(10 - g / 2)))),
    ]
    roster = Roster(np.array([0.2, 0.5, 0.8]))
    sequences = oracle.enumerate_all(3, 6)
    worst = 0.0
    classes_ok = True
    for seq in sequences:
        speakers = list(seq)
        conversation = Conversation(speakers=np.array(speakers), group_size=3)
        got_labels = [TurnClass(k).name.lower() for k in classify_turns(conversation)]
        classes_ok &= got_labels == oracle.class_labels(speakers)
        gamma = class_weights(conversation)
        wmap = oracle.class_weight_map(speakers)
        expect_gamma = [float(wmap[c]) for c in oracle.class_labels(speakers)]
        worst = max(worst, float(np.max(np.abs(gamma - expect_gamma))))
        group = Group(group_id=1, roster=roster, scores=params, conversation=conversation)
        for kind, w in kinds:
            P = engine_probabilities(params, kind, conversation)
            for t in range(1, len(speakers) + 1):
                got_p = P[t - 1]
                expect_p = oracle.probabilities_at(pi, d, w, speakers, 3, t)
                worst = max(worst, float(np.max(np.abs(got_p - expect_p))))
            loss = evaluate(true_model([group], kind), [group])
            worst = max(
                worst,
                abs(loss.nll - oracle.nll(pi, d, w, speakers, 3)),
                abs(loss.nll_turn - oracle.weighted_nll(pi, d, w, speakers, 3)),
            )
    report_line(
        "AC-6",
        [
            (f"only {len(sequences)} sequences enumerated", len(sequences) == 189),
            ("turn classes disagree with the oracle", classes_ok),
            (f"worst probability/loss/weight deviation {worst:.3e} > 1e-12",
             worst <= 1e-12),
        ],
    )


# --------------------------------------------------------------------- AC-7


def test_ac7_sampler_matches_analytic_probabilities():
    # Every 4-turn conversation of 3 members, drawn from many independent
    # groups at once, against its probability from the oracle. Turn 4 sees
    # gaps of 2 and 3, so the proclivity shapes the distribution.
    pi = [0.3, 0.6, 0.45]
    d = [1.5, 0.8, 2.0]
    params = ScoreParams(np.array(pi), np.array(d))
    draws = 40_000
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(77).spawn(draws)]
    conversations = sample_conversations([params] * draws, ExpDecayProclivity(), 4, rngs)
    counts = {}
    for c in conversations:
        key = tuple(c.speakers.tolist())
        counts[key] = counts.get(key, 0) + 1
    sequences = oracle.all_conversations(3, 4)
    checks = [(f"sampled a sequence outside the {len(sequences)} valid ones",
               set(counts) <= set(sequences))]
    w = lambda g: math.exp(-g / 2)  # noqa: E731
    for seq in sequences:
        p = math.prod(
            oracle.probabilities_at(pi, d, w, list(seq), 3, t)[seq[t - 1] - 1]
            for t in range(1, 5)
        )
        freq = counts.get(seq, 0) / draws
        # 4 sigma per sequence keeps the family-wise false-alarm rate of 24
        # sequences near 0.2%.
        bound = 4 * math.sqrt(p * (1 - p) / draws)
        checks.append(
            (f"sequence {seq}: |{freq:.5f} - {p:.5f}| = {abs(freq - p):.5f} > 4 sigma ({bound:.5f})",
             abs(freq - p) <= bound)
        )
    report_line("AC-7", checks)


# --------------------------------------------------------------------- AC-8


def test_ac8_experiment_reruns_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(
        "train_groups=2\nval_groups=1\ntest_groups=1\n"
        "members=4\nturns=120\ntrials=2\nmax_outer=3\n",
        encoding="utf-8",
    )
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(
            ["experiment", "--config", str(cfg), "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    capsys.readouterr()

    checks = []
    for rel in ("report.csv", "summary.csv", "fits.csv"):
        same = (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        checks.append((f"{rel} differs between reruns", same))
    first_curves = sorted((outs[0] / "curves").iterdir())
    checks.append(("no curve files were written", len(first_curves) > 0))
    for path in first_curves:
        twin = outs[1] / "curves" / path.name
        same = twin.is_file() and path.read_bytes() == twin.read_bytes()
        checks.append((f"curves/{path.name} differs between reruns", same))
    report_line("AC-8", checks)

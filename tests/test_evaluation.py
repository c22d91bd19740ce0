"""Evaluation summaries, true-model ceilings, curves, and experiment runs."""

import math
import subprocess
import sys

import numpy as np
import pytest

import oracle
from turntaking import (
    EvalReport,
    ExpDecayProclivity,
    ExperimentConfig,
    FitConfig,
    MissingGroundTruthError,
    ModelBundle,
    SynthConfig,
    ZeroProclivity,
    boxplot_stats,
    evaluate,
    generate_dataset,
    model_curve,
    run_experiment,
    true_model,
)
from turntaking.evaluation import TRUE_VARIANT, _run_trial


def small_dataset(turns=60, trial=1, proclivity="exp"):
    config = SynthConfig(turns=turns, proclivity=proclivity)
    return config, generate_dataset(config, trial=trial)


# ----------------------------------------------------------------- evaluate


def test_no_memory_loss_is_analytic():
    # Uniform scores over eligible members: -log(1/N) on the first turn and
    # -log(1/(N-1)) afterwards, independent of what anyone actually said.
    for turns in (7, 100, 800):
        _, data = small_dataset(turns=turns)
        summary = evaluate(ModelBundle.make("nm"), data.test)
        N = 5
        expected = math.log(N - 1) + (math.log(N) - math.log(N - 1)) / turns
        for row in summary.groups:
            assert row.nll == pytest.approx(expected, abs=1e-12)
        assert summary.nll == pytest.approx(expected, abs=1e-12)


def test_true_model_matches_direct_oracle_loss():
    _, data = small_dataset(turns=40)
    truth = true_model(data.all_groups, ExpDecayProclivity())
    summary = evaluate(truth, data.test)
    w = lambda g: math.exp(-g / 2)  # noqa: E731
    for row, group in zip(summary.groups, data.test):
        pi = group.scores.inherent.tolist()
        d = group.scores.memory.tolist()
        speakers = group.conversation.speakers.tolist()
        assert row.nll == pytest.approx(oracle.nll(pi, d, w, speakers, 5), abs=1e-10)
        assert row.nll_turn == pytest.approx(
            oracle.weighted_nll(pi, d, w, speakers, 5), abs=1e-10
        )


def test_aggregate_is_turn_weighted_mean():
    _, data = small_dataset(turns=30)
    # Mix in a longer test conversation so the weighting actually matters.
    long_config = SynthConfig(turns=90)
    from turntaking.synthgen import make_group

    groups = data.test + [make_group(long_config, trial=9, group_id=21)]
    summary = evaluate(ModelBundle.make("hm"), groups)
    turns = np.array([r.turns for r in summary.groups], dtype=float)
    nlls = np.array([r.nll for r in summary.groups])
    nll_turns = np.array([r.nll_turn for r in summary.groups])
    assert summary.nll == pytest.approx(float(turns @ nlls / turns.sum()), abs=1e-12)
    assert summary.nll_turn == pytest.approx(float(turns @ nll_turns / turns.sum()), abs=1e-12)
    assert summary.nll_sum == pytest.approx(float(nlls.sum()), abs=1e-12)
    assert summary.nll_turn_sum == pytest.approx(float(nll_turns.sum()), abs=1e-12)
    assert summary.metric("nll") == summary.nll
    assert summary.metric("nll_turn") == summary.nll_turn


def test_evaluate_is_order_invariant_per_group():
    _, data = small_dataset(turns=25)
    bundle = ModelBundle.make("hm")
    fwd = evaluate(bundle, data.test)
    rev = evaluate(bundle, list(reversed(data.test)))
    by_id_fwd = {r.group_id: r for r in fwd.groups}
    by_id_rev = {r.group_id: r for r in rev.groups}
    assert by_id_fwd.keys() == by_id_rev.keys()
    for gid in by_id_fwd:
        assert by_id_fwd[gid].nll == by_id_rev[gid].nll
        assert by_id_fwd[gid].nll_turn == by_id_rev[gid].nll_turn
    assert fwd.nll == pytest.approx(rev.nll, abs=1e-12)


def test_evaluate_rejects_empty_groups():
    with pytest.raises(ValueError):
        evaluate(ModelBundle.make("nm"), [])


def test_true_model_raises_on_unknown_group():
    _, data = small_dataset(turns=10)
    truth = true_model(data.train, ExpDecayProclivity())
    with pytest.raises(MissingGroundTruthError):
        evaluate(truth, data.test)


# -------------------------------------------------------------------- curves


def test_model_curve_no_memory_is_flat_zero():
    curve = model_curve(ModelBundle.make("nm"))
    assert np.all(curve.values == 0.0)
    assert curve.gaps[0] == 2 and curve.gaps[-1] == 40


def test_model_curve_heuristic_memory():
    curve = model_curve(ModelBundle.make("hm"))
    np.testing.assert_allclose(curve.values, 100 * np.exp(-curve.gaps / 2.0), rtol=1e-12)
    assert curve.values[0] == pytest.approx(36.787944117144235, rel=1e-12)


def test_model_curve_true_ratio_matches_grid_means():
    _, data = small_dataset(turns=5)
    truth = true_model(data.all_groups, ExpDecayProclivity())
    curve = model_curve(truth)
    # Independent recomputation of the rescaling ratio over the trait grid.
    grid = np.linspace(0.1, 1.0, 50)
    d_mean = np.mean([oracle_d(x) for x in grid])
    pi_mean = np.mean(np.sqrt(grid))
    expected = (d_mean / pi_mean) * np.exp(-curve.gaps / 2.0)
    np.testing.assert_allclose(curve.values, expected, rtol=1e-12)
    assert d_mean / pi_mean == pytest.approx(19.75129232904011, rel=1e-12)


def oracle_d(x):
    return (15 * math.e / 2) * (
        (math.exp(-2 * (1.1 - x)) - math.exp(-2)) / (math.exp(-0.2) - math.exp(-2)) + 1 / 3
    )


def test_model_curve_fresh_pro_is_half_times_one():
    bundle = ModelBundle.make("pro", seed=0)
    curve = model_curve(bundle)
    # Fresh nets output 0.5 everywhere: ratio 1, proclivity 0.5.
    np.testing.assert_allclose(curve.values, 0.5, rtol=1e-12)


def test_model_curve_respects_custom_gaps():
    curve = model_curve(ModelBundle.make("hm"), gaps=np.arange(3, 9))
    assert curve.gaps.tolist() == [3, 4, 5, 6, 7, 8]


# ------------------------------------------------------------ boxplot stats


def test_boxplot_stats_odd_sample():
    stats = boxplot_stats([3.0, 1.0, 2.0, 5.0, 4.0])
    assert stats["median"] == 3.0
    assert stats["q1"] == 2.0
    assert stats["q3"] == 4.0
    assert stats["lo_whisker"] == 1.0
    assert stats["hi_whisker"] == 5.0


def test_boxplot_stats_outlier_excluded_from_whiskers():
    stats = boxplot_stats([1.0, 2.0, 3.0, 4.0, 100.0])
    assert stats["median"] == 3.0
    assert stats["q1"] == 2.0
    assert stats["q3"] == 4.0
    # Fence at q3 + 1.5 * 2 = 7 keeps 100 out of the whisker.
    assert stats["hi_whisker"] == 4.0
    assert stats["lo_whisker"] == 1.0


def test_boxplot_stats_matches_numpy_percentiles():
    rng = np.random.default_rng(61)
    vals = rng.normal(size=10)
    stats = boxplot_stats(vals)
    q1, med, q3 = np.percentile(vals, [25, 50, 75])
    assert stats["median"] == pytest.approx(med, abs=1e-15)
    assert stats["q1"] == pytest.approx(q1, abs=1e-15)
    assert stats["q3"] == pytest.approx(q3, abs=1e-15)


def test_boxplot_stats_rejects_empty():
    with pytest.raises(ValueError):
        boxplot_stats([])


# --------------------------------------------------------------- experiments


def tiny_experiment_config(trials=2, proclivity="exp", variants=("exp", "nm", "hm")):
    synth = SynthConfig(
        groups_total=3,
        train_groups=2,
        val_groups=1,
        test_groups=2,
        members=4,
        turns=80,
        proclivity=proclivity,
        trials=trials,
        master_seed=7,
    )
    fit = FitConfig(max_outer=8, patience=4)
    return ExperimentConfig(synth=synth, fit=fit, variants=variants, hidden=(6,))


def test_run_trial_produces_all_cells():
    config = tiny_experiment_config()
    result = _run_trial(config, trial=1)
    assert not result.failed
    assert set(result.losses) == {TRUE_VARIANT, "exp", "nm", "hm"}
    assert set(result.curves) == {TRUE_VARIANT, "exp", "nm", "hm"}
    assert result.failures == {}
    for summary in result.losses.values():
        assert len(summary.groups) == 2
        assert math.isfinite(summary.nll) and math.isfinite(summary.nll_turn)
    for curve in result.curves.values():
        assert curve.gaps.tolist() == list(range(2, 41))


def test_run_experiment_is_deterministic():
    config = tiny_experiment_config()
    a = run_experiment(config)
    b = run_experiment(config)
    assert len(a.trials) == 2
    for ta, tb in zip(a.trials, b.trials):
        assert ta.losses.keys() == tb.losses.keys()
        for variant in ta.losses:
            assert ta.losses[variant].nll == tb.losses[variant].nll
            np.testing.assert_array_equal(
                ta.curves[variant].values, tb.curves[variant].values
            )


def test_trial_values_and_mean_curve():
    report = run_experiment(tiny_experiment_config())
    vals = report.trial_values("nm", "nll")
    assert len(vals) == 2
    expected = math.log(3) + (math.log(4) - math.log(3)) / 80
    assert vals[0] == pytest.approx(expected, abs=1e-12)
    mean_curve = report.mean_curve("hm")
    np.testing.assert_allclose(
        mean_curve.values, 100 * np.exp(-mean_curve.gaps / 2.0), rtol=1e-12
    )
    stacked = np.mean([t.curves["exp"].values for t in report.trials], axis=0)
    np.testing.assert_allclose(report.mean_curve("exp").values, stacked, rtol=1e-15)


def test_mean_curve_requires_successes():
    report = EvalReport(config=tiny_experiment_config(), trials=[])
    with pytest.raises(ValueError):
        report.mean_curve("pro")


def test_failed_variant_is_recorded_not_fatal(monkeypatch):
    import turntaking.evaluation as ev

    calls = {"n": 0}
    real_fit = ev.fit

    def flaky_fit(bundle, training_set, config=None):
        calls["n"] += 1
        if bundle.variant == "exp":
            raise ev.FitDivergenceError("boom")
        return real_fit(bundle, training_set, config)

    monkeypatch.setattr(ev, "fit", flaky_fit)
    result = _run_trial(tiny_experiment_config(variants=("exp", "nm")), trial=1)
    assert "exp" in result.failures
    assert "boom" in result.failures["exp"]
    assert "exp" not in result.losses
    assert "nm" in result.losses
    assert TRUE_VARIANT in result.losses
    assert not result.failed


def test_programming_error_in_fit_propagates(monkeypatch):
    # Only numeric failures are recorded per variant; a plain ValueError,
    # such as a broadcasting bug, must not be mistaken for a failed fit.
    import turntaking.evaluation as ev

    def broken_fit(bundle, training_set, config=None):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(ev, "fit", broken_fit)
    with pytest.raises(ValueError, match="broadcast"):
        _run_trial(tiny_experiment_config(variants=("exp",)), trial=1)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(variants=())
    with pytest.raises(ValueError):
        ExperimentConfig(variants=("pro", "mystery"))
    with pytest.raises(ValueError):
        ExperimentConfig(curve_lo=5, curve_hi=5)
    config = ExperimentConfig(curve_lo=3, curve_hi=6)
    assert config.curve_gaps.tolist() == [3, 4, 5, 6]


@pytest.mark.parametrize("delta_scale", [0.0, -5.0, np.nan, np.inf])
def test_experiment_config_rejects_bad_delta_scale(delta_scale):
    with pytest.raises(ValueError, match="delta_scale must be positive and finite"):
        ExperimentConfig(delta_scale=delta_scale)


def test_parallel_trials_match_sequential():
    config = tiny_experiment_config(variants=("nm", "hm"))
    seq = run_experiment(config, parallel=1)
    par = run_experiment(config, parallel=2)
    for ts, tp in zip(seq.trials, par.trials):
        assert ts.trial == tp.trial
        for variant in ts.losses:
            assert ts.losses[variant].nll == tp.losses[variant].nll
            assert ts.losses[variant].nll_turn == tp.losses[variant].nll_turn


def test_package_import_leaves_the_process_pool_unloaded():
    # Only parallel runs pay for importing the process pool.
    code = "import sys, turntaking; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

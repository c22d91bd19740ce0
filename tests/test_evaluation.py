"""Evaluation summaries, true-model ceilings, curves, and experiment runs."""

import dataclasses
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
    ModelBundle,
    SynthConfig,
    evaluate,
    generate_dataset,
    model_curve,
    run_experiment,
    true_model,
)
from turntaking.evaluation import (
    TRUE_VARIANT,
    FitRecord,
    TrialResult,
    _run_trial,
    boxplot_stats,
    score_trial,
)
from turntaking.model import DegenerateDistributionError
from turntaking.proclivity import ZeroProclivity


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
    groups = data.test + generate_dataset(long_config, trial=9).test[:1]
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


def test_a_truth_scores_each_group_by_its_own_scores():
    # Every trial numbers its groups alike, so a truth built from trial 1's
    # groups meets trial 2's test groups under the same ids.
    _, first = small_dataset(turns=40, trial=1)
    _, second = small_dataset(turns=40, trial=2)
    assert [g.group_id for g in first.test] == [g.group_id for g in second.test]
    own = evaluate(true_model(second.all_groups, ExpDecayProclivity()), second.test)
    assert evaluate(true_model(first.all_groups, ExpDecayProclivity()), second.test) == own


def test_a_group_without_scores_is_refused():
    _, data = small_dataset(turns=10)
    bare = dataclasses.replace(data.test[0], scores=None)
    message = f"group {bare.group_id} has no true scores"
    with pytest.raises(ValueError, match=message):
        true_model([*data.train, bare], ExpDecayProclivity())
    truth = true_model(data.train, ExpDecayProclivity())
    with pytest.raises(ValueError, match=message):
        evaluate(truth, [*data.test[1:], bare])


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


def fail_sampling(monkeypatch, trials, error=None):
    """Make every draw of the given trials' conversations raise ``error``.

    The stand-in replaces the trials' conv substreams, which both a chunk's
    one lockstep call and trial-by-trial generation read. The default error
    is a numeric failure with the message "no eligible speaker".
    """
    import turntaking.synthgen as sg

    error = error or DegenerateDistributionError("no eligible speaker")
    real = sg.substream

    class Failing:
        def random(self, size=None):
            raise error

    def substream(master_seed, *path):
        if path[0] in trials and path[-1] == sg.STREAM_CONV:
            return Failing()
        return real(master_seed, *path)

    monkeypatch.setattr(sg, "substream", substream)


def tiny_experiment_config(trials=2, proclivity="exp", variants=("exp", "nm", "hm")):
    synth = SynthConfig(
        train_groups=2,
        val_groups=1,
        test_groups=2,
        members=4,
        turns=80,
        proclivity=proclivity,
        trials=trials,
        master_seed=7,
    )
    fit = FitConfig(max_outer=8)
    return ExperimentConfig(synth=synth, fit=fit, variants=variants)


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


def test_run_trial_keeps_a_record_of_each_fit(monkeypatch):
    # One record per learnable variant, read off the FitResult that fit returned.
    import turntaking.evaluation as ev

    returned, real_fit = {}, ev.fit

    def kept_fit(bundle, training_set, config=None):
        returned[bundle.variant] = real_fit(bundle, training_set, config)
        return returned[bundle.variant]

    monkeypatch.setattr(ev, "fit", kept_fit)
    result = _run_trial(tiny_experiment_config(variants=("pro", "exp", "nm")), trial=1)
    assert set(result.fits) == set(returned) == {"pro", "exp"}
    for variant, fitted in returned.items():
        assert result.fits[variant] == FitRecord(fitted.stop_reason, fitted.best_outer,
                                                 len(fitted.history) - 1, fitted.passes)
        assert result.fits[variant].passes > result.fits[variant].outer_iters > 0


def test_score_trial_records_a_numeric_failure_of_a_variant_not_of_the_truth(monkeypatch):
    # A variant whose evaluation fails numerically becomes its failure cell
    # and the others are scored; a failure of the truth propagates.
    import turntaking.evaluation as ev

    _, dataset = small_dataset()
    truth = true_model(dataset.test, ExpDecayProclivity())
    bundles = {variant: ModelBundle.make(variant) for variant in ("nm", "hm")}
    failing, real_evaluate = [bundles["hm"]], ev.evaluate

    def evaluate(model, groups):
        if model in failing:
            raise ev.ZeroLikelihoodError("non-finite loss")
        return real_evaluate(model, groups)

    monkeypatch.setattr(ev, "evaluate", evaluate)
    result = score_trial(TrialResult(trial=3), dataset.test, truth, bundles)
    assert set(result.losses) == set(result.curves) == {TRUE_VARIANT, "nm"}
    assert result.failures == {"hm": "non-finite loss"}
    assert result.losses["nm"].nll == real_evaluate(bundles["nm"], dataset.test).nll
    assert score_trial(TrialResult(trial=3), dataset.test, None, {}).losses == {}
    failing.append(truth)
    with pytest.raises(ev.ZeroLikelihoodError):
        score_trial(TrialResult(trial=3), dataset.test, truth, bundles)


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
    assert result.fits == {}
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


def test_numeric_failure_of_generation_fails_every_variant(monkeypatch):
    import turntaking.evaluation as ev

    def degenerate(config, trial):
        raise ev.DegenerateDistributionError("no eligible speaker")

    monkeypatch.setattr(ev, "generate_dataset", degenerate)
    result = _run_trial(tiny_experiment_config(variants=("exp", "nm")), trial=1)
    assert result.failed
    assert result.failures == {variant: "generation failed: no eligible speaker"
                               for variant in ("exp", "nm")}


@pytest.mark.parametrize("parallel", [1, 2])
def test_a_trial_whose_sampling_fails_is_recorded_alone(monkeypatch, parallel):
    # Trial 2's sampling fails, so the one lockstep call of its chunk fails
    # and the chunk generates trial by trial: trial 2 alone is failed, with
    # the message of its own sampling, and every other trial is scored as in
    # a run where nothing fails.
    import concurrent.futures

    chunks = []

    class InProcessPool:
        # Maps in this process, so the patched substreams hold in the workers.
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, configs, trial_chunks):
            chunks.extend(list(chunk) for chunk in trial_chunks)
            return map(fn, configs, trial_chunks)

    config = tiny_experiment_config(trials=3, variants=("nm", "hm"))
    want = run_experiment(config)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    fail_sampling(monkeypatch, {2})
    report = run_experiment(config, parallel=parallel)
    # Two workers take contiguous chunks: trials 1-2, whose call fails, and 3.
    assert chunks == ([] if parallel == 1 else [[1, 2], [3]])
    assert [t.trial for t in report.trials] == [1, 2, 3]
    failed = report.trials[1]
    assert failed.failed
    assert failed.failures == {variant: "generation failed: no eligible speaker"
                               for variant in ("nm", "hm")}
    for got, ok in zip(report.trials[::2], want.trials[::2]):
        assert got.failures == {}
        assert {v: s.nll for v, s in got.losses.items()} == {v: s.nll for v, s in ok.losses.items()}
        for variant, curve in ok.curves.items():
            np.testing.assert_array_equal(got.curves[variant].values, curve.values)


def test_programming_error_in_batched_generation_propagates(monkeypatch):
    # Only a numeric failure of the chunk's call falls back to trial by trial.
    fail_sampling(monkeypatch, {2}, TypeError("unsupported operand"))
    with pytest.raises(TypeError, match="unsupported operand"):
        run_experiment(tiny_experiment_config(variants=("nm",)))


def test_programming_error_in_generation_propagates(monkeypatch):
    # A bug in generation is not a failed trial: it must surface.
    import turntaking.evaluation as ev

    def broken(config, trial):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(ev, "generate_dataset", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        _run_trial(tiny_experiment_config(variants=("exp",)), trial=1)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(variants=())
    with pytest.raises(ValueError):
        ExperimentConfig(variants=("pro", "mystery"))
    with pytest.raises(ValueError, match=r"variants named more than once: \['exp'\]"):
        ExperimentConfig(variants=("exp", "exp", "nm"))
    # The nets' layout is no setting: every trial builds them at DEFAULT_HIDDEN.
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == ["synth", "fit", "variants"]


def test_parallel_trials_match_sequential():
    config = tiny_experiment_config(variants=("exp", "nm", "hm"))
    seq = run_experiment(config, parallel=1)
    par = run_experiment(config, parallel=2)
    for ts, tp in zip(seq.trials, par.trials):
        assert ts.trial == tp.trial
        for variant in ts.losses:
            assert ts.losses[variant].nll == tp.losses[variant].nll
            assert ts.losses[variant].nll_turn == tp.losses[variant].nll_turn
        assert set(ts.fits) == {"exp"}
        assert ts.fits == tp.fits


@pytest.mark.parametrize("parallel", [0, -1])
def test_run_experiment_rejects_a_worker_count_below_one(parallel):
    with pytest.raises(ValueError, match="parallel must be at least 1"):
        run_experiment(tiny_experiment_config(variants=("nm",)), parallel=parallel)


@pytest.mark.parametrize(
    "trials, parallel, pools", [(3, 5000, [3]), (3, 2, [2]), (1, 5000, [])],
    ids=["capped-at-trials", "under-trials", "one-trial-runs-sequentially"],
)
def test_run_experiment_starts_at_most_one_worker_per_trial(monkeypatch, trials, parallel, pools):
    # A stand-in pool that records its worker count and maps in this process:
    # a real pool would start every requested worker at its first submit.
    import concurrent.futures

    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = tiny_experiment_config(trials=trials, variants=("nm",))
    report = run_experiment(config, parallel=parallel)
    assert started == pools
    assert [t.trial for t in report.trials] == list(range(1, trials + 1))


def test_package_import_leaves_the_process_pool_unloaded():
    # Only parallel runs pay for importing the process pool.
    code = "import sys, turntaking; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

"""End-to-end CLI behavior: settings, subcommands, files, and exit codes."""

import argparse
import logging
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from turntaking import (
    ExpDecayProclivity,
    ModelBundle,
    SigmoidProclivity,
    __version__,
    by_name,
    evaluate,
    model_curve,
    true_model,
)
from turntaking.cli import build_parser, main
from turntaking.dataio import (
    read_checkpoint,
    read_manifest,
    read_split,
    write_checkpoint,
    write_curve,
    write_dataset,
)
from turntaking.synthgen import SynthConfig, generate_dataset
from turntaking.training import FitDivergenceError

from test_dataio import csv_rows, curve_cells, report_rows
from test_evaluation import fail_sampling

TINY_DATA = """
train_groups=2
val_groups=1
test_groups=1
members=3
turns=40
"""

TINY_FIT = """
max_outer=4
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "settings.cfg"
    path.write_text(TINY_DATA + TINY_FIT, encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_data(capsys, tmp_path, tiny_config, name="data", **flags):
    out = tmp_path / name
    argv = ["generate", "--config", tiny_config, "--out", out]
    for flag, value in flags.items():
        argv += [f"--{flag}", value]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return out


# ---------------------------------------------------------------- settings


def test_missing_config_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "generate", "--config", tmp_path / "nope.cfg",
                       "--out", tmp_path / "out")
    assert code == 2
    assert "config file not found" in err


def test_a_config_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"turns=4\xff0\n")
    out = tmp_path / "out"
    code, _, err = run(capsys, "generate", "--config", cfg, "--out", out)
    assert code == 2
    assert f"error: {cfg}: not UTF-8 text (byte 0xff cannot be decoded)" in err
    assert not out.exists()


def test_unknown_config_key_reports_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("turns=40\nwat=1\n", encoding="utf-8")
    code, _, err = run(capsys, "generate", "--config", cfg, "--out", tmp_path / "out")
    assert code == 2
    assert ":2" in err and "unknown key" in err and "wat" in err


def test_unparsable_config_value_reports_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("turns=soon\n", encoding="utf-8")
    code, _, err = run(capsys, "generate", "--config", cfg, "--out", tmp_path / "out")
    assert code == 2
    assert ":1" in err and "'soon'" in err


def test_config_key_set_twice_names_both_lines(capsys, tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("turns=40\n# more turns\nturns=60\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run(capsys, "generate", "--config", cfg, "--out", out)
    assert code == 2
    assert f"{cfg}:3: key 'turns' is set again (first set on line 1)" in err
    assert not out.exists()


def test_config_line_without_equals_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# comment is fine\n\nturns\n", encoding="utf-8")
    code, _, err = run(capsys, "generate", "--config", cfg, "--out", tmp_path / "out")
    assert code == 2
    assert ":3" in err and "key=value" in err


def test_inconsistent_split_sizes_rejected(capsys, tmp_path):
    # The fit-group total is train_groups + val_groups, so a config cannot
    # state another one: groups_total is no config key.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("train_groups=2\nval_groups=1\ngroups_total=5\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run(capsys, "generate", "--config", cfg, "--out", out)
    assert code == 2
    assert f"{cfg}:3: unknown key 'groups_total'" in err
    assert not out.exists()


# step, clip_norm, score_epochs, proclivity_epochs, delta_scale, activation,
# curve_lo, curve_hi, trait_low, trait_high, hidden and patience are not
# config keys: a config that sets one names an unknown key at its line.
# Hidden units are always tanh, a learned proclivity always sees the gap over
# 20, curves span gaps 2..40, traits are drawn from [0.1, 1], a fit's nets
# have the neural.DEFAULT_HIDDEN layout, and a fit stops after
# training.PATIENCE stalled outer iterations.
@pytest.mark.parametrize(
    "flags, setting, message",
    [([], "step=nan", "unknown key 'step'"),
     ([], "step=inf", "unknown key 'step'"),
     ([], "clip_norm=nan", "unknown key 'clip_norm'"),
     ([], "score_epochs=5", "unknown key 'score_epochs'"),
     ([], "proclivity_epochs=5", "unknown key 'proclivity_epochs'"),
     ([], "delta_scale=-5", "unknown key 'delta_scale'"),
     ([], "delta_scale=0", "unknown key 'delta_scale'"),
     ([], "delta_scale=5", "unknown key 'delta_scale'"),
     ([], "activation=relu", "unknown key 'activation'"),
     ([], "curve_lo=2", "unknown key 'curve_lo'"),
     ([], "curve_hi=40", "unknown key 'curve_hi'"),
     ([], "trait_low=0.1", "unknown key 'trait_low'"),
     ([], "trait_high=1.0", "unknown key 'trait_high'"),
     ([], "hidden=4", "unknown key 'hidden'"),
     ([], "patience=3", "unknown key 'patience'")],
    ids=["step-nan", "step-inf", "clip-norm-nan", "score-epochs", "proclivity-epochs",
         "delta-scale-negative", "delta-scale-zero", "delta-scale-five", "activation-relu",
         "curve-lo", "curve-hi", "trait-low", "trait-high", "hidden", "patience"],
)
def test_bad_numeric_fit_setting_is_usage_error(
    capsys, tmp_path, tiny_config, flags, setting, message
):
    data = make_data(capsys, tmp_path, tiny_config)
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_FIT + setting + "\n", encoding="utf-8")
    out = tmp_path / "fit"
    code, _, err = run(capsys, "fit", "--config", bad, "--data", data, "--variant", "pro",
                       "--out", out, *flags)
    assert code == 2
    line = len(TINY_FIT.splitlines()) + 1  # the setting follows TINY_FIT's lines
    assert f"{bad}:{line}: {message}" in err
    assert not out.exists()


def test_experiment_zero_delta_scale_is_usage_error(capsys, tmp_path):
    # Not a numeric failure of every pro fit, nor a run under another gap
    # scale or net layout: delta_scale and hidden are no settings at all.
    for key, value in (("delta_scale", 0), ("hidden", 4)):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(TINY_DATA + f"trials=1\nmax_outer=2\n{key}={value}\n", encoding="utf-8")
        out = tmp_path / "exp"
        code, _, err = run(capsys, "experiment", "--config", cfg, "--out", out)
        assert code == 2
        line = len(TINY_DATA.splitlines()) + 3
        assert f"{cfg}:{line}: unknown key {key!r}" in err
        assert not out.exists()


# A bad seed or trial is a setting error, not a numpy traceback (exit 1) or a
# numeric failure of every trial (exit 4). Trials are numbered from 1. So is a
# variant named twice, which would otherwise be fitted and reported twice.
@pytest.mark.parametrize(
    "command, flags, message",
    [("generate", ["--seed", "-1"], "master_seed must be nonnegative, got -1"),
     ("generate", ["--trial", "-1"], "--trial must be at least 1, got -1"),
     ("experiment", ["--seed", "-1"], "master_seed must be nonnegative, got -1"),
     ("experiment", ["--variants", "exp,exp,nm"], "variants named more than once: ['exp']")],
    ids=["generate-seed", "generate-trial", "experiment-seed", "experiment-repeated-variant"],
)
def test_negative_seed_or_trial_is_usage_error(capsys, tmp_path, command, flags, message):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(TINY_DATA + "trials=1\nmax_outer=2\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run(capsys, command, "--config", cfg, "--out", out, *flags)
    assert code == 2
    assert message in err
    assert not out.exists()


# A flag and a config line go through one parser per key, and the range
# rules are the config dataclasses': the same value gives the same message
# from either source, a parse error from a config file led by its file:line.
SETTING_ERRORS = [
    ("turns", "x", "cannot parse 'x' for key 'turns'"),
    ("seed", "1.5", "cannot parse '1.5' for key 'seed'"),
    ("proclivity", "bogus",
     "unknown proclivity 'bogus'; expected one of ['exp', 'sigmoid', 'zero']"),
    ("variants", "exp,bogus", "unknown variants: ['bogus']"),
]


@pytest.mark.parametrize(
    "source, key, value, message",
    [pytest.param(source, *case, id=f"{source}-{case[0]}")
     for source in ("flag", "config") for case in SETTING_ERRORS],
)
def test_flag_and_config_line_give_one_message(capsys, tmp_path, source, key, value, message):
    cfg = tmp_path / "one.cfg"
    out = tmp_path / "out"
    if source == "flag":
        argv = ["experiment", "--out", out, f"--{key}", value]
    else:
        cfg.write_text(f"{key}={value}\n", encoding="utf-8")
        argv = ["experiment", "--config", cfg, "--out", out]
        if message.startswith("cannot parse"):
            message = f"{cfg}:1: {message}"
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_experiment_worker_count_below_one_is_usage_error(capsys, tmp_path, workers):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(TINY_DATA + "trials=1\nmax_outer=2\n", encoding="utf-8")
    out = tmp_path / "exp"
    code, _, err = run(capsys, "experiment", "--config", cfg, "--out", out,
                       "--parallel-trials", workers)
    assert code == 2
    assert f"--parallel-trials must be at least 1, got {workers}" in err
    assert not out.exists()


def test_flag_overrides_config_value(capsys, tmp_path, tiny_config):
    out = make_data(capsys, tmp_path, tiny_config, turns="60")
    groups = read_split(out, "test")
    assert len(groups[0].conversation) == 60


def test_out_path_collision_is_io_error(capsys, tmp_path, tiny_config):
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "generate", "--config", tiny_config, "--out", blocker)
    assert code == 3
    assert "i/o failure" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "turntaking.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout


# ---------------------------------------------------------------- generate


def test_generate_writes_dataset_and_manifest(capsys, tmp_path, tiny_config):
    out = make_data(capsys, tmp_path, tiny_config)
    names = {p.name for p in out.iterdir()}
    assert names == {
        "rosters_train.csv", "conversations_train.csv", "scores_train.csv",
        "rosters_val.csv", "conversations_val.csv", "scores_val.csv",
        "rosters_test.csv", "conversations_test.csv", "scores_test.csv",
        "manifest.txt",
    }
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert "command=generate" in manifest
    assert "turns=40" in manifest
    train = read_split(out, "train")
    assert len(train) == 2
    assert train[0].roster.size == 3


def test_generate_proclivity_changes_conversations_not_rosters(capsys, tmp_path, tiny_config):
    exp = make_data(capsys, tmp_path, tiny_config, name="exp", proclivity="exp")
    sig = make_data(capsys, tmp_path, tiny_config, name="sig", proclivity="sigmoid")
    for split in ("train", "val", "test"):
        ros_exp = (exp / f"rosters_{split}.csv").read_bytes()
        ros_sig = (sig / f"rosters_{split}.csv").read_bytes()
        assert ros_exp == ros_sig
    conv_exp = (exp / "conversations_train.csv").read_bytes()
    conv_sig = (sig / "conversations_train.csv").read_bytes()
    assert conv_exp != conv_sig


def test_generate_takes_every_fixed_proclivity_kind(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config, proclivity="zero")
    assert read_manifest(data)[-1]["proclivity"] == "zero"
    assert len(read_split(data, "train")) == 2


def test_generate_is_deterministic_per_seed_and_trial(capsys, tmp_path, tiny_config):
    a = make_data(capsys, tmp_path, tiny_config, name="a")
    b = make_data(capsys, tmp_path, tiny_config, name="b")
    c = make_data(capsys, tmp_path, tiny_config, name="c", trial="2")
    assert (a / "conversations_train.csv").read_bytes() == (b / "conversations_train.csv").read_bytes()
    assert (a / "conversations_train.csv").read_bytes() != (c / "conversations_train.csv").read_bytes()


# --------------------------------------------------------------------- fit


def test_fit_writes_checkpoints_and_history(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    out = tmp_path / "fit_pro"
    code, _, err = run(capsys, "fit", "--config", tiny_config, "--data", data,
                       "--variant", "pro", "--out", out)
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"checkpoint.csv", "history.csv", "manifest.txt"}
    assert read_checkpoint(out / "checkpoint.csv").learns_proclivity
    history = csv_rows(out / "history.csv")
    assert len(history) == 5  # row 0 plus max_outer=4 iterations
    assert history[0][0] == "0"
    assert read_manifest(out)[-1]["stop_reason"] == "max_outer"


def test_fit_exp_has_no_proclivity_checkpoint(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    out = tmp_path / "fit_exp"
    code, _, _ = run(capsys, "fit", "--config", tiny_config, "--data", data,
                     "--variant", "exp", "--out", out)
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"checkpoint.csv", "history.csv", "manifest.txt"}
    text = (out / "checkpoint.csv").read_text(encoding="utf-8")
    assert text.startswith("# variant=exp\nnet,layer,row,col,value\n") and "\nnu," not in text
    bundle = read_checkpoint(out / "checkpoint.csv")
    assert bundle.variant == "exp" and not bundle.learns_proclivity


def test_fit_rerun_reproduces_history_bytes(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code, _, _ = run(capsys, "fit", "--config", tiny_config, "--data", data,
                         "--variant", "pro", "--out", out, "--seed", "5")
        assert code == 0
        outs.append(out)
    assert (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()
    assert (outs[0] / "checkpoint.csv").read_bytes() == (outs[1] / "checkpoint.csv").read_bytes()


def test_fit_rejects_variants_without_parameters(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    for variant in ("nm", "hm"):
        code, _, err = run(capsys, "fit", "--config", tiny_config, "--data", data,
                           "--variant", variant, "--out", tmp_path / "fit_bad")
        assert code == 2
        assert "nothing to fit" in err


def test_fit_missing_data_dir_is_usage_error(capsys, tmp_path, tiny_config):
    code, _, err = run(capsys, "fit", "--config", tiny_config,
                       "--data", tmp_path / "nowhere", "--variant", "exp",
                       "--out", tmp_path / "out")
    assert code == 3
    assert "i/o failure" in err


def _empty_split(data, split):
    """Leave only the header line in each of a split's three files."""
    for stem in ("rosters", "conversations", "scores"):
        path = data / f"{stem}_{split}.csv"
        header = path.read_text(encoding="utf-8").splitlines()[0]
        path.write_text(header + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "command, split, flags",
    [("fit", "train", ["--variant", "exp"]), ("eval", "test", ["--variants", "nm"])],
)
def test_an_empty_split_the_command_needs_is_usage_error(
    capsys, tmp_path, tiny_config, command, split, flags
):
    data = make_data(capsys, tmp_path, tiny_config)
    _empty_split(data, split)
    code, _, err = run(capsys, command, "--config", tiny_config, "--data", data, *flags,
                       "--out", tmp_path / "out")
    assert code == 2, err
    assert f"{data}: the {split} split has no groups" in err


def test_fit_with_an_empty_val_split_runs(capsys, caplog, tmp_path, tiny_config):
    # With no validation group the fit stops on the train loss: the manifest
    # records val_groups=0, the history's val_loss cells are empty, and the
    # log line reports the best train loss.
    data = make_data(capsys, tmp_path, tiny_config)
    _empty_split(data, "val")
    with caplog.at_level(logging.INFO, logger="turntaking.cli"):
        code, _, err = run(capsys, "fit", "--config", tiny_config, "--data", data,
                           "--variant", "exp", "--out", tmp_path / "fit")
    assert code == 0, err
    assert (tmp_path / "fit" / "checkpoint.csv").is_file()
    assert read_manifest(tmp_path / "fit")[-1]["val_groups"] == "0"
    history_path = tmp_path / "fit" / "history.csv"
    history = csv_rows(history_path)
    assert [row[2] for row in history] == [""] * len(history) and len(history) > 1
    best_train = min(float(row[1]) for row in history)
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("fit exp")]
    assert f"best train loss (no validation split) {best_train:.6f}" in line
    assert "validation loss" not in line


def test_fit_divergence_is_a_numeric_failure(capsys, tmp_path, tiny_config, monkeypatch):
    def diverge(bundle, training_set, config):
        raise FitDivergenceError("non-finite loss at outer iteration 1")

    data = make_data(capsys, tmp_path, tiny_config)
    monkeypatch.setattr("turntaking.cli.fit", diverge)
    out = tmp_path / "fit"
    code, _, err = run(capsys, "fit", "--config", tiny_config, "--data", data,
                       "--variant", "pro", "--out", out)
    assert code == 4
    assert "numeric failure: non-finite loss at outer iteration 1" in err
    assert not out.exists()


def test_fit_on_malformed_csv_names_its_line(capsys, tmp_path, tiny_config):
    # A cell past the csv module's field limit of 131072 characters.
    data = make_data(capsys, tmp_path, tiny_config)
    path = data / "rosters_train.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + "1" * 140_000
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "fit"
    code, _, err = run(capsys, "fit", "--config", tiny_config, "--data", data,
                       "--variant", "exp", "--out", out)
    assert code == 2
    assert f"error: {path}:2: malformed CSV (field larger than field limit (131072))" in err
    assert not out.exists()


# -------------------------------------------------------------------- eval


def test_eval_round_trip_with_checkpoints(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    fit_out = tmp_path / "fit_exp"
    run(capsys, "fit", "--config", tiny_config, "--data", data,
        "--variant", "exp", "--out", fit_out)
    out = tmp_path / "eval"
    code, _, _ = run(capsys, "eval", "--config", tiny_config, "--data", data,
                     "--variants", "exp,nm,hm", "--checkpoint", f"exp={fit_out}",
                     "--out", out)
    assert code == 0
    rows = report_rows(out / "report.csv")
    variants = {r[1] for r in rows}
    assert variants == {"true", "exp", "nm", "hm"}
    metrics = {r[2] for r in rows}
    assert metrics == {"nll", "nll_turn", "nll_sum", "nll_turn_sum"}
    # NM on 3-member groups: log 2 + (log 3 - log 2) / 40.
    nm_all = [r for r in rows if r[1] == "nm" and r[2] == "nll" and r[3] == "all"]
    assert nm_all[0][4] == pytest.approx(np.log(2) + (np.log(3) - np.log(2)) / 40, abs=1e-12)
    assert (out / "summary.csv").is_file()


def test_eval_without_scores_file_skips_true_variant(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    (data / "scores_test.csv").unlink()
    out = tmp_path / "eval"
    code, _, _ = run(capsys, "eval", "--config", tiny_config, "--data", data,
                     "--variants", "nm,hm", "--out", out)
    assert code == 0
    variants = {r[1] for r in report_rows(out / "report.csv")}
    assert variants == {"nm", "hm"}


def test_eval_scores_truth_under_the_dataset_proclivity(capsys, tmp_path, tiny_config):
    # Without --config, `true` must use the proclivity the dataset was
    # generated with, not the exp default.
    data = make_data(capsys, tmp_path, tiny_config, proclivity="sigmoid")
    out = tmp_path / "eval"
    code, _, _ = run(capsys, "eval", "--data", data, "--variants", "nm", "--out", out)
    assert code == 0
    rows = report_rows(out / "report.csv")
    (got,) = [r[4] for r in rows if r[1] == "true" and r[2] == "nll" and r[3] == "all"]
    test = read_split(data, "test")
    assert got == pytest.approx(evaluate(true_model(test, SigmoidProclivity()), test).nll, abs=1e-12)
    assert got != pytest.approx(evaluate(true_model(test, ExpDecayProclivity()), test).nll, abs=1e-6)


def test_eval_refuses_to_guess_the_truth_proclivity(capsys, tmp_path):
    # write_dataset records no proclivity. Scoring the true model under the
    # exp default would report a wrong NLL and record proclivity=exp as if
    # known, so eval exits 2 until a setting gives it.
    config = SynthConfig(train_groups=2, val_groups=1, test_groups=1,
                         members=3, turns=40, proclivity="sigmoid")
    data = tmp_path / "data"
    data.mkdir()
    write_dataset(data, generate_dataset(config))
    out = tmp_path / "eval"
    code, _, err = run(capsys, "eval", "--data", data, "--variants", "nm", "--out", out)
    assert code == 2
    assert f"error: {data}: the test split has true scores but no proclivity" in err
    assert not out.exists()
    cfg = tmp_path / "sigmoid.cfg"
    cfg.write_text("proclivity=sigmoid\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--config", cfg, "--data", data, "--variants", "nm",
                       "--out", out)
    assert code == 0, err
    (got,) = [r[4] for r in report_rows(out / "report.csv")
              if r[1] == "true" and r[2] == "nll" and r[3] == "all"]
    test = read_split(data, "test")
    assert got == evaluate(true_model(test, SigmoidProclivity()), test).nll
    # Without true scores there is nothing to score under a proclivity.
    (data / "scores_test.csv").unlink()
    code, _, err = run(capsys, "eval", "--data", data, "--variants", "nm",
                       "--out", tmp_path / "eval_nm")
    assert code == 0, err


def test_eval_truth_scores_for_too_few_members_is_usage_error(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config, members="4")
    scores = data / "scores_test.csv"
    header, *rows = scores.read_text(encoding="utf-8").splitlines()
    kept = [row for row in rows if row.split(",")[1] == "1"]
    scores.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--data", data, "--variants", "nm",
                       "--out", tmp_path / "eval")
    assert code == 2
    assert "scores for 1 members, its roster 4" in err


def test_eval_on_scores_for_only_some_groups_is_usage_error(capsys, tmp_path):
    # Not scored as if the dataset had no ground truth: the true rows would
    # vanish from the report without a word.
    config = tmp_path / "two.cfg"
    config.write_text(TINY_DATA.replace("test_groups=1", "test_groups=2"), encoding="utf-8")
    data = make_data(capsys, tmp_path, config, name="partial")
    scores = data / "scores_test.csv"
    header, *rows = scores.read_text(encoding="utf-8").splitlines()
    scores.write_text("\n".join([header, *(r for r in rows if not r.startswith("5,"))]) + "\n",
                      encoding="utf-8")
    out = tmp_path / "eval"
    code, _, err = run(capsys, "eval", "--data", data, "--variants", "nm", "--out", out)
    assert code == 2
    assert f"error: {scores}: group 5 has a roster but no scores" in err
    assert not out.exists()


def _set_field(line_index, column, value):
    def edit(lines):
        fields = lines[line_index].split(",")
        fields[column] = value
        lines[line_index] = ",".join(fields)
        return lines
    return edit


def _copy_field(line_index, column, source_index):
    def edit(lines):
        return _set_field(line_index, column, lines[source_index].split(",")[column])(lines)
    return edit


# One change to a valid test split per case: (file, edit of its lines, the
# message expected with exit 2, or None when the change still loads). The
# tiny dataset's one test group has id 4, three members and 40 turns.
DATA_MUTATIONS = {
    "trait-still-valid": ("rosters", _set_field(1, 2, "0.5"), None),
    "trait-nan": ("rosters", _set_field(1, 2, "nan"), "group 4: traits must be finite"),
    "trait-inf": ("rosters", _set_field(2, 2, "inf"), "group 4: traits must be finite"),
    "trait-overflows-to-inf": ("rosters", _set_field(2, 2, "1e400"), "traits must be finite"),
    "trait-not-a-number": ("rosters", _set_field(3, 2, "tall"), ":4: cannot parse 'tall'"),
    "one-member-group": ("rosters", lambda lines: lines[:2], "group 4: a roster needs at least 2"),
    "repeated-member-row": ("rosters", lambda lines: lines + lines[-1:], "members are not 1..N"),
    "speaker-above-size": ("conversations", _set_field(5, 2, "4"), "group 4: speaker labels"),
    "speaker-zero": ("conversations", _set_field(5, 2, "0"), "group 4: speaker labels"),
    "speaker-too-wide": ("conversations", _set_field(5, 2, str(10**30)), "group 4: "),
    "speaker-past-int64": ("conversations", _set_field(5, 2, "9999999999999999999"),
                           ":6: group 4: 9999999999999999999 does not fit"),
    "speaker-past-c-long": ("conversations", _set_field(5, 2, str(10**23)),
                            f":6: group 4: {10**23} does not fit"),
    "repeated-speaker": ("conversations", _copy_field(5, 2, 4), "group 4: consecutive turns"),
    "dropped-turn": ("conversations", lambda lines: lines[:5] + lines[6:], "turns are not 1..T"),
    "negative-true-score": ("scores", _set_field(2, 2, "-0.5"), "group 4: inherent scores"),
    "nan-true-score": ("scores", _set_field(2, 3, "nan"), "group 4: memory scores"),
    "zero-true-score": ("scores", _set_field(2, 2, "0.0"), None),
    "scores-for-unknown-group": (
        "scores", lambda lines: lines + ["999," + line.split(",", 1)[1] for line in lines[1:]],
        "group 999 has scores but no roster",
    ),
}


@pytest.mark.parametrize("name", sorted(DATA_MUTATIONS))
def test_a_bad_dataset_value_is_a_data_format_error(capsys, tmp_path, tiny_config, name):
    stem, edit, message = DATA_MUTATIONS[name]
    data = make_data(capsys, tmp_path, tiny_config)
    path = data / f"{stem}_test.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("4,")
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--data", data, "--variants", "nm",
                       "--out", tmp_path / "eval")
    if message is None:
        assert code == 0, err
    else:
        assert code == 2, err
        assert f"{path}" in err and message in err


@pytest.mark.parametrize(
    "stem, raw, message",
    [
        ("rosters", lambda text: text.replace(b"0.", b"\xff.", 1), "not UTF-8 text (byte 0xff"),
        ("conversations", lambda text: b"\xef\xbb\xbf" + text, "byte-order mark"),
        ("scores", lambda text: text.replace(b"\n", b"\r\n"), None),
    ],
    ids=["non-utf8-byte", "byte-order-mark", "crlf-line-ends"],
)
def test_dataset_file_encoding(capsys, tmp_path, tiny_config, stem, raw, message):
    data = make_data(capsys, tmp_path, tiny_config)
    path = data / f"{stem}_test.csv"
    path.write_bytes(raw(path.read_bytes()))
    code, _, err = run(capsys, "eval", "--data", data, "--variants", "nm",
                       "--out", tmp_path / "eval")
    if message is None:
        assert code == 0, err
    else:
        assert code == 2, err
        assert f"{path}" in err and message in err


def test_eval_reads_a_manifest_with_crlf_line_ends(capsys, tmp_path, tiny_config):
    # The true model's proclivity comes from the manifest, CRLF or not.
    data = make_data(capsys, tmp_path, tiny_config)
    crlf = tmp_path / "crlf"
    shutil.copytree(data, crlf)
    manifest = crlf / "manifest.txt"
    manifest.write_bytes(manifest.read_bytes().replace(b"\n", b"\r\n"))
    for source, out in ((data, tmp_path / "eval"), (crlf, tmp_path / "eval-crlf")):
        code, _, err = run(capsys, "eval", "--data", source, "--variants", "nm", "--out", out)
        assert code == 0, err
    assert (tmp_path / "eval-crlf" / "report.csv").read_bytes() == \
        (tmp_path / "eval" / "report.csv").read_bytes()


def test_eval_proclivity_conflicting_with_dataset_is_usage_error(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config, proclivity="sigmoid")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("proclivity=exp\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--config", cfg, "--data", data,
                       "--variants", "nm", "--out", tmp_path / "eval")
    assert code == 2
    assert "conflicts" in err


def _checkpoint_value_inf(data, fit_dir):
    path = fit_dir / "checkpoint.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2].startswith("f,1,1,0,")
    lines[2] = "f,1,1,0,inf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"{path}: net f: parameters must be finite"


def _manifest_line_without_equals(data, fit_dir):
    path = data / "manifest.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# run ")
    lines.insert(2, "no equals sign")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"{path}:3: expected key=value inside a run block"


def _checkpoint_f_and_g_layouts_differ(data, fit_dir):
    # The g rows of a (1, 4, 1) fit spliced into a default one.
    path = fit_dir / "checkpoint.csv"
    rows = [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("g,")]
    write_checkpoint(path, ModelBundle.make("exp", hidden=(4,)))
    rows += [line for line in path.read_text(encoding="utf-8").splitlines()
             if line.startswith("g,")]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return f"{path}: f and g networks must share one layout: they run as one stack"


def _manifest_not_utf8(data, fit_dir):
    path = data / "manifest.txt"
    with open(path, "ab") as handle:
        handle.write(b"\xff\n")
    return f"{path}: not UTF-8 text (byte 0xff cannot be decoded)"


@pytest.mark.parametrize(
    "corrupt",
    [_checkpoint_value_inf, _checkpoint_f_and_g_layouts_differ, _manifest_line_without_equals,
     _manifest_not_utf8],
    ids=["checkpoint-value-inf", "checkpoint-f-and-g-layouts-differ",
         "manifest-line-without-equals", "manifest-not-utf8"],
)
def test_a_bad_checkpoint_or_manifest_is_a_data_format_error(capsys, tmp_path, tiny_config,
                                                             corrupt):
    data = make_data(capsys, tmp_path, tiny_config)
    fit_dir = tmp_path / "fit"
    fit_dir.mkdir()
    write_checkpoint(fit_dir / "checkpoint.csv", ModelBundle.make("exp"))
    message = corrupt(data, fit_dir)
    out = tmp_path / "eval"
    code, _, err = run(capsys, "eval", "--data", data, "--variants", "exp",
                       "--checkpoint", f"exp={fit_dir}", "--out", out)
    assert code == 2
    assert f"error: {message}\n" in err
    assert not out.exists()


def test_eval_learnable_without_checkpoint_is_usage_error(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    code, _, err = run(capsys, "eval", "--config", tiny_config, "--data", data,
                       "--variants", "exp,nm", "--out", tmp_path / "eval")
    assert code == 2
    assert "--checkpoint" in err


def test_eval_missing_checkpoint_files_is_usage_error(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    empty = tmp_path / "empty"
    empty.mkdir()
    # The three files of the earlier layout are not read.
    for part in ("f", "g", "nu"):
        (empty / f"checkpoint_{part}.csv").write_text("layer,row,col,kind,value\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--config", tiny_config, "--data", data,
                       "--variants", "exp", "--checkpoint", f"exp={empty}",
                       "--out", tmp_path / "eval")
    assert code == 2
    assert "missing checkpoint file" in err


def fit_into(capsys, tmp_path, config, data, variant, out):
    code, _, _ = run(capsys, "fit", "--config", config, "--data", data,
                     "--variant", variant, "--out", out)
    assert code == 0
    return out


def eval_report(capsys, tmp_path, data, variant, fit_dir):
    out = tmp_path / "eval"
    code, _, err = run(capsys, "eval", "--data", data, "--variants", variant,
                       "--checkpoint", f"{variant}={fit_dir}", "--out", out)
    assert code == 0, err
    return report_rows(out / "report.csv")


def test_eval_and_curve_read_the_settings_from_the_checkpoint(capsys, tmp_path, tiny_config):
    # The checkpoint's rows are the one record of its layout: a (1, 4, 3, 1)
    # pro fit scores and draws exactly as the bundle it was written from.
    data = make_data(capsys, tmp_path, tiny_config)
    bundle = ModelBundle.make("pro", seed=3, hidden=(4, 3))
    fit_dir = tmp_path / "fit"
    fit_dir.mkdir()
    write_checkpoint(fit_dir / "checkpoint.csv", bundle)
    assert read_checkpoint(fit_dir / "checkpoint.csv").f_net.shapes == bundle.f_net.shapes
    got = {(r[2], r[3]): r[4] for r in eval_report(capsys, tmp_path, data, "pro", fit_dir)
           if r[1] == "pro"}
    summary = evaluate(bundle, read_split(data, "test"))
    assert got[("nll", "all")] == summary.nll and got[("nll_turn", "all")] == summary.nll_turn
    expected = model_curve(bundle)
    assert curve_cells(tmp_path / "eval" / "curves" / "curve_pro_trial1.csv") == \
        (expected.gaps.tolist(), expected.values.tolist())


@pytest.mark.parametrize("variant, old_head", [
    ("pro", "# variant=pro\n# activation=tanh\n# delta_scale=20.0\n"),
    ("exp", "# variant=exp\n# activation=tanh\n"),
], ids=["pro", "exp"])
def test_checkpoint_naming_its_activation_or_gap_scale_is_refused(
    capsys, tmp_path, tiny_config, variant, old_head
):
    # A checkpoint written when the hidden activation and the gap scale were
    # settings records them in its header. It is refused, never read as tanh
    # and 20: a relu or delta_scale=5 fit would score wrongly without a word.
    data = make_data(capsys, tmp_path, tiny_config)
    fit_dir = fit_into(capsys, tmp_path, tiny_config, data, variant, tmp_path / "fit")
    path = fit_dir / "checkpoint.csv"
    text = path.read_text(encoding="utf-8")
    path.write_text(old_head + text.split("\n", 1)[1], encoding="utf-8")
    extra = ["'activation': 'tanh'"] + (["'delta_scale': '20.0'"] if variant == "pro" else [])
    out = tmp_path / "eval"
    code, _, err = run(capsys, "eval", "--config", tiny_config, "--data", data,
                       "--variants", variant, "--checkpoint", f"{variant}={fit_dir}",
                       "--out", out)
    assert code == 2
    assert f"error: {path}: expected a pro or exp checkpoint with keys ['variant']" in err
    assert all(key in err for key in extra)
    assert not out.exists()


@pytest.mark.parametrize("command", [["eval", "--data", "d"]])
def test_seed_flag_is_refused_by_commands_that_read_no_seed(capsys, tmp_path, command):
    with pytest.raises(SystemExit) as exited:
        main([*command, "--seed", "5", "--out", str(tmp_path / "out")])
    assert exited.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_patience_flag_is_refused(capsys, tmp_path, tiny_config):
    # The stop rule's patience is the constant training.PATIENCE, no flag.
    data = make_data(capsys, tmp_path, tiny_config)
    out = tmp_path / "fit"
    with pytest.raises(SystemExit) as exited:
        main(["fit", "--data", str(data), "--variant", "pro", "--patience", "3",
              "--out", str(out)])
    assert exited.value.code == 2
    assert "unrecognized arguments: --patience 3" in capsys.readouterr().err
    assert not out.exists()


# Each subcommand's option strings: the setting flags come from cli._COMMANDS,
# and none may appear or vanish.
OPTIONS = {
    "generate": {"--config", "--out", "--seed", "--proclivity", "--members", "--turns",
                 "--trial"},
    "fit": {"--config", "--out", "--seed", "--max-outer", "--data",
            "--variant"},
    "eval": {"--config", "--out", "--variants", "--data", "--checkpoint"},
    "experiment": {"--config", "--out", "--seed", "--trials", "--turns", "--members",
                   "--proclivity", "--variants", "--parallel-trials"},
}


def test_each_subcommand_takes_exactly_its_options():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(OPTIONS)
    for name, sub in commands.choices.items():
        taken = {s for action in sub._actions for s in action.option_strings}
        assert taken == OPTIONS[name] | {"-h", "--help"}, name


@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_help_names_the_generating_proclivities(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    assert {"exp", "sigmoid", "zero"} <= set(re.findall(r"\w+", capsys.readouterr().out))


def test_refit_into_the_same_directory_leaves_no_stale_parts(capsys, tmp_path, tiny_config):
    # exp fitted over a pro fit: the directory now holds an exp fit only, so
    # loading it as pro is refused instead of pairing exp's nets with pro's
    # old proclivity net.
    data = make_data(capsys, tmp_path, tiny_config)
    fit_dir = fit_into(capsys, tmp_path, tiny_config, data, "pro", tmp_path / "fit")
    fit_into(capsys, tmp_path, tiny_config, data, "exp", fit_dir)
    assert {p.name for p in fit_dir.iterdir()} == {"checkpoint.csv", "history.csv", "manifest.txt"}
    code, _, err = run(capsys, "eval", "--config", tiny_config, "--data", data,
                       "--variants", "pro", "--checkpoint", f"pro={fit_dir}",
                       "--out", tmp_path / "eval")
    assert code == 2
    assert "variant=pro conflicts with variant=exp" in err


def test_checkpoint_of_another_variant_is_usage_error(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    fit_dir = fit_into(capsys, tmp_path, tiny_config, data, "pro", tmp_path / "fit")
    code, _, err = run(capsys, "eval", "--config", tiny_config, "--data", data,
                       "--variants", "exp", "--checkpoint", f"exp={fit_dir}",
                       "--out", tmp_path / "eval")
    assert code == 2
    assert "variant=exp conflicts with variant=pro" in err


FIT_KEYS = ["seed", "max_outer"]


def test_generate_and_fit_manifests_record_the_settings_they_read(capsys, tmp_path, tiny_config):
    # The fit's config says turns=40; the dataset has 60 turns. A fit reads
    # no data setting but the seed, so its manifest records none.
    data = make_data(capsys, tmp_path, tiny_config, turns=60)
    block = read_manifest(data)[-1]
    assert list(block) == [
        "command", "version", "train_groups", "val_groups", "test_groups",
        "members", "turns", "proclivity", "trials", "seed",
        "trial", "artifacts",
    ]
    assert block["turns"] == "60"
    fit_dir = fit_into(capsys, tmp_path, tiny_config, data, "pro", tmp_path / "fit")
    block = read_manifest(fit_dir)[-1]
    assert list(block) == ["command", "version", *FIT_KEYS,
                           "variant", "data", "val_groups", "best_outer", "stop_reason", "passes"]
    assert block["seed"] == "0" and block["val_groups"] == "1"
    assert int(block["passes"]) > 0


def test_eval_manifest_records_no_net_settings(capsys, tmp_path, tiny_config):
    # eval takes the nets' settings from the checkpoint, not from the config,
    # so its manifest records none of them.
    data = make_data(capsys, tmp_path, tiny_config, proclivity="sigmoid")
    fit_dir = fit_into(capsys, tmp_path, tiny_config, data, "pro", tmp_path / "fit")
    eval_report(capsys, tmp_path, data, "pro", fit_dir)
    block = read_manifest(tmp_path / "eval")[-1]
    assert list(block) == ["command", "version", "proclivity", "variants", "data", "checkpoints",
                           "curve_files"]
    assert block["proclivity"] == "sigmoid" and block["variants"] == "pro"
    # One trial's curve for each of true and pro, and no mean of one trial.
    assert block["curve_files"] == "2"
    assert sorted(p.name for p in (tmp_path / "eval" / "curves").iterdir()) == [
        "curve_pro_trial1.csv", "curve_true_trial1.csv"]


# A --checkpoint list that does not pair each evaluated learnable variant
# with one directory is a usage error: before, the last of two repeated
# entries silently won, and an unused entry was recorded in the manifest.
@pytest.mark.parametrize(
    "variants, checkpoints, message",
    [("nm", ["expdir"], "VARIANT=DIR"),
     ("nm", ["nm=somewhere"], "VARIANT=DIR"),
     ("exp", ["exp=a", "exp=b"], "--checkpoint names exp twice: a and b"),
     ("nm", ["exp=a"], "--checkpoint given for variants that are not evaluated: ['exp']")],
    ids=["no-variant", "unlearnable-variant", "variant-twice", "variant-not-evaluated"],
)
def test_eval_bad_checkpoint_syntax_is_usage_error(
    capsys, tmp_path, tiny_config, variants, checkpoints, message
):
    data = make_data(capsys, tmp_path, tiny_config)
    flags = [flag for item in checkpoints for flag in ("--checkpoint", item)]
    out = tmp_path / "eval"
    code, _, err = run(capsys, "eval", "--config", tiny_config, "--data", data,
                       "--variants", variants, *flags, "--out", out)
    assert code == 2
    assert message in err
    assert not out.exists()


# -------------------------------------------------------------- experiment


def experiment_args(tmp_path, out, extra=()):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        TINY_DATA + "trials=2\nmax_outer=3\nvariants=exp,nm,hm\n",
        encoding="utf-8",
    )
    return ["experiment", "--config", cfg, "--out", out, *extra]


def test_experiment_writes_report_summary_curves(capsys, tmp_path):
    out = tmp_path / "exp"
    code, _, _ = run(capsys, *experiment_args(tmp_path, out))
    assert code == 0
    assert (out / "report.csv").is_file()
    assert (out / "summary.csv").is_file()
    curve_names = {p.name for p in (out / "curves").iterdir()}
    for name in curve_names:
        assert curve_cells(out / "curves" / name)[0] == list(range(2, 41))
    assert "curve_true_mean.csv" in curve_names
    assert "curve_exp_trial1.csv" in curve_names
    assert "curve_nm_trial2.csv" in curve_names
    rows = report_rows(out / "report.csv")
    assert {r[0] for r in rows} == {1, 2}
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert "command=experiment" in manifest
    # One fit record per trial and fitted variant: nm and hm have none.
    fits = csv_rows(out / "fits.csv")
    assert [row[:2] for row in fits] == [["1", "exp"], ["2", "exp"]]
    for _, _, stop_reason, best_outer, outer_iters, passes in fits:
        assert stop_reason in ("patience", "plateau", "max_outer")
        assert int(best_outer) <= int(outer_iters) <= 3 < int(passes)


def test_experiment_manifest_records_every_setting(capsys, tmp_path):
    out = tmp_path / "exp"
    assert run(capsys, *experiment_args(tmp_path, out))[0] == 0
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# run ")
    assert lines[1:] == [
        "command=experiment", f"version={__version__}", "train_groups=2",
        "val_groups=1", "test_groups=1", "members=3", "turns=40", "proclivity=exp",
        "trials=2", "seed=0", "max_outer=3",
        "variants=exp,nm,hm", "parallel_trials=1", "fits=fits.csv", "curve_files=12",
    ]


def test_experiment_reruns_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *experiment_args(tmp_path, a))[0] == 0
    assert run(capsys, *experiment_args(tmp_path, b))[0] == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    for path in sorted((a / "curves").iterdir()):
        assert path.read_bytes() == (b / "curves" / path.name).read_bytes()


def test_groups_total_is_no_config_key(capsys, tmp_path):
    # Not even when it states train_groups + val_groups.
    cfg = tmp_path / "total.cfg"
    cfg.write_text("groups_total=3\ntrain_groups=2\nval_groups=1\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = run(capsys, "experiment", "--config", cfg, "--out", out)
    assert code == 2
    assert f"{cfg}:1: unknown key 'groups_total'" in err
    assert not out.exists()


def test_one_split_count_is_a_whole_config(capsys, tmp_path):
    # val_groups and test_groups keep their defaults of 5; no total is stated.
    cfg = tmp_path / "train.cfg"
    cfg.write_text("train_groups=2\n", encoding="utf-8")
    data = tmp_path / "data"
    code, _, err = run(capsys, "generate", "--config", cfg, "--turns", "40", "--out", data)
    assert code == 0, err
    assert [len(read_split(data, split)) for split in ("train", "val", "test")] == [2, 5, 5]
    assert [g.group_id for g in read_split(data, "test")] == [8, 9, 10, 11, 12]
    out = tmp_path / "exp"
    code, _, err = run(capsys, "experiment", "--config", cfg, "--turns", "40", "--trials", "1",
                       "--variants", "exp,nm", "--out", out)
    assert code == 0, err
    block = read_manifest(out)[-1]
    assert (block["train_groups"], block["val_groups"], block["test_groups"]) == ("2", "5", "5")
    assert "groups_total" not in block


def test_experiment_names_the_trials_whose_generation_failed(capsys, caplog, tmp_path,
                                                             monkeypatch):
    fail_sampling(monkeypatch, {2})
    with caplog.at_level(logging.WARNING, logger="turntaking.cli"):
        code, _, err = run(capsys, *experiment_args(tmp_path, tmp_path / "exp"))
    assert code == 0, err
    warnings = [r.getMessage() for r in caplog.records if r.name == "turntaking.cli"
                and r.levelno == logging.WARNING]
    assert warnings == ["trials whose data generation failed: [2]"]
    rows = report_rows(tmp_path / "exp" / "report.csv")
    assert {r[4] for r in rows if r[0] == 2} == {"generation failed: no eligible speaker"}


def test_experiment_whose_every_trial_failed_is_a_numeric_failure(capsys, tmp_path,
                                                                   monkeypatch):
    fail_sampling(monkeypatch, {1, 2})
    out = tmp_path / "exp"
    code, _, err = run(capsys, *experiment_args(tmp_path, out))
    assert code == 4
    assert "error: data generation failed in every trial" in err
    # Only the failed cells: one per trial and variant, no true-model row.
    assert report_rows(out / "report.csv") == [
        (trial, variant, "failed", "all", "generation failed: no eligible speaker")
        for trial in (1, 2) for variant in ("exp", "nm", "hm")
    ]
    assert (out / "summary.csv").read_text(encoding="utf-8") == (
        "variant,metric,median,q1,q3,lo_whisker,hi_whisker\n"
    )
    assert list((out / "curves").iterdir()) == []


def test_experiment_parallel_matches_sequential(capsys, tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert run(capsys, *experiment_args(tmp_path, seq))[0] == 0
    assert run(capsys, *experiment_args(tmp_path, par, ("--parallel-trials", "2")))[0] == 0
    for name in ("report.csv", "summary.csv", "fits.csv"):
        assert (seq / name).read_bytes() == (par / name).read_bytes()


# ------------------------------------------------------------------ curves


def eval_curve(out, variant):
    """The gaps and values of the curve that eval wrote for ``variant``."""
    return map(np.array, curve_cells(out / "curves" / f"curve_{variant}_trial1.csv"))


def test_curve_heuristic_memory(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    out = tmp_path / "eval"
    code, _, err = run(capsys, "eval", "--data", data, "--variants", "hm", "--out", out)
    assert code == 0, err
    gaps, values = eval_curve(out, "hm")
    np.testing.assert_allclose(values, 100 * np.exp(-gaps / 2.0), rtol=1e-12)


def test_curve_true_uses_generating_maps(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    out = tmp_path / "eval"
    code, _, err = run(capsys, "eval", "--data", data, "--variants", "nm", "--out", out)
    assert code == 0, err
    gaps, values = eval_curve(out, "true")
    assert gaps.tolist() == list(range(2, 41))
    np.testing.assert_allclose(values, 19.75129232904011 * np.exp(-gaps / 2.0), rtol=1e-12)


def test_curve_from_fitted_checkpoint(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    fit_out = fit_into(capsys, tmp_path, tiny_config, data, "pro", tmp_path / "fit_pro")
    eval_report(capsys, tmp_path, data, "pro", fit_out)
    gaps, values = eval_curve(tmp_path / "eval", "pro")
    assert gaps.tolist() == list(range(2, 41))
    assert min(values) >= 0


@pytest.mark.parametrize("proclivity", ["exp", "sigmoid"])
def test_eval_writes_each_variants_curve(capsys, tmp_path, tiny_config, proclivity):
    # Each curve file holds the bytes write_curve gives for its model's
    # curve, the true one under the dataset's proclivity; pro's checkpoint
    # has a (4, 3) hidden layout. One trial writes no mean curves.
    data = make_data(capsys, tmp_path, tiny_config, proclivity=proclivity)
    models = {"true": true_model(read_split(data, "test"), by_name(proclivity)),
              "pro": ModelBundle.make("pro", seed=3, hidden=(4, 3)),
              "exp": ModelBundle.make("exp", seed=4),
              "nm": ModelBundle.make("nm"), "hm": ModelBundle.make("hm")}
    flags = []
    for variant in ("pro", "exp"):
        (tmp_path / variant).mkdir()
        write_checkpoint(tmp_path / variant / "checkpoint.csv", models[variant])
        flags += ["--checkpoint", f"{variant}={tmp_path / variant}"]
    out = tmp_path / "eval"
    code, _, err = run(capsys, "eval", "--data", data, "--variants", "pro,exp,nm,hm", *flags,
                       "--out", out)
    assert code == 0, err
    expected = tmp_path / "expected.csv"
    for variant, model in models.items():
        write_curve(expected, model_curve(model))
        name = f"curve_{variant}_trial1.csv"
        assert (out / "curves" / name).read_bytes() == expected.read_bytes(), name
    assert len(list((out / "curves").iterdir())) == 5
    assert read_manifest(out)[-1]["curve_files"] == "5"


def test_eval_writes_a_variants_numeric_failure_as_its_cell(capsys, tmp_path, tiny_config,
                                                           monkeypatch):
    # The report is written with the failed cell, then eval exits 4.
    import turntaking.evaluation as ev

    real_evaluate = ev.evaluate

    def evaluate(model, groups):
        if getattr(model, "variant", None) == "hm":
            raise ev.ZeroLikelihoodError("group 4: non-finite loss inf")
        return real_evaluate(model, groups)

    monkeypatch.setattr(ev, "evaluate", evaluate)
    data = make_data(capsys, tmp_path, tiny_config)
    out = tmp_path / "eval"
    code, _, err = run(capsys, "eval", "--data", data, "--variants", "nm,hm", "--out", out)
    assert code == 4
    assert "numeric failure: variants hm failed; see report.csv" in err
    rows = report_rows(out / "report.csv")
    assert [r for r in rows if r[1] == "hm"] == [
        (1, "hm", "failed", "all", "group 4: non-finite loss inf")]
    for variant in ("true", "nm"):
        assert {r[2] for r in rows if r[1] == variant} == {"nll", "nll_turn", "nll_sum",
                                                          "nll_turn_sum"}
    assert {p.name for p in (out / "curves").iterdir()} == {
        f"curve_{v}_trial1.csv" for v in ("true", "nm")}


def test_the_curve_subcommand_is_gone(capsys, tmp_path):
    # eval writes every curve that curve wrote; the subcommand is refused.
    with pytest.raises(SystemExit) as exited:
        main(["curve", "--variant", "nm", "--out", str(tmp_path / "curve")])
    assert exited.value.code == 2
    assert "invalid choice: 'curve'" in capsys.readouterr().err
    assert not (tmp_path / "curve").exists()

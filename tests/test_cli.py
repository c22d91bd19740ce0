"""End-to-end CLI behavior: settings, subcommands, files, and exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from turntaking import ExpDecayProclivity, SigmoidProclivity, __version__, evaluate, true_model
from turntaking.cli import main
from turntaking.dataio import (
    read_checkpoint,
    read_curve,
    read_history,
    read_manifest,
    read_report,
    read_split,
)

TINY_DATA = """
groups_total=3
train_groups=2
val_groups=1
test_groups=1
members=3
turns=40
"""

TINY_FIT = """
max_outer=4
patience=3
hidden=6
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


def test_config_line_without_equals_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# comment is fine\n\nturns\n", encoding="utf-8")
    code, _, err = run(capsys, "generate", "--config", cfg, "--out", tmp_path / "out")
    assert code == 2
    assert ":3" in err and "key=value" in err


def test_inconsistent_split_sizes_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("groups_total=5\ntrain_groups=2\nval_groups=1\n", encoding="utf-8")
    code, _, err = run(capsys, "generate", "--config", cfg, "--out", tmp_path / "out")
    assert code == 2
    assert "train_groups + val_groups" in err


@pytest.mark.parametrize(
    "flags, setting, key",
    [(["--step", "nan"], "", "step"), (["--step", "inf"], "", "step"),
     ([], "clip_norm=nan", "clip_norm"), ([], "delta_scale=-5", "delta_scale"),
     ([], "delta_scale=0", "delta_scale")],
    ids=["step-nan", "step-inf", "clip-norm-nan", "delta-scale-negative", "delta-scale-zero"],
)
def test_bad_numeric_fit_setting_is_usage_error(capsys, tmp_path, tiny_config, flags, setting, key):
    data = make_data(capsys, tmp_path, tiny_config)
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_FIT + setting + "\n", encoding="utf-8")
    out = tmp_path / "fit"
    code, _, err = run(capsys, "fit", "--config", bad, "--data", data, "--variant", "pro",
                       "--out", out, *flags)
    assert code == 2
    assert f"{key} must be positive and finite" in err
    assert not out.exists()


def test_experiment_zero_delta_scale_is_usage_error(capsys, tmp_path):
    # Not a numeric failure of every pro fit: the setting itself is wrong.
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(TINY_DATA + "trials=1\nmax_outer=2\ndelta_scale=0\n", encoding="utf-8")
    out = tmp_path / "exp"
    code, _, err = run(capsys, "experiment", "--config", cfg, "--out", out)
    assert code == 2
    assert "delta_scale must be positive and finite" in err
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
    history = read_history(out / "history.csv")
    assert len(history) == 5  # row 0 plus max_outer=4 iterations
    assert history[0][0] == 0
    assert read_manifest(out)[-1]["stop_reason"] == "max_outer"


def test_fit_exp_has_no_proclivity_checkpoint(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    out = tmp_path / "fit_exp"
    code, _, _ = run(capsys, "fit", "--config", tiny_config, "--data", data,
                     "--variant", "exp", "--out", out)
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"checkpoint.csv", "history.csv", "manifest.txt"}
    text = (out / "checkpoint.csv").read_text(encoding="utf-8")
    assert "delta_scale" not in text and "\nnu," not in text
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
    rows = read_report(out / "report.csv")
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
    variants = {r[1] for r in read_report(out / "report.csv")}
    assert variants == {"nm", "hm"}


def test_eval_scores_truth_under_the_dataset_proclivity(capsys, tmp_path, tiny_config):
    # Without --config, `true` must use the proclivity the dataset was
    # generated with, not the exp default.
    data = make_data(capsys, tmp_path, tiny_config, proclivity="sigmoid")
    out = tmp_path / "eval"
    code, _, _ = run(capsys, "eval", "--data", data, "--variants", "nm", "--out", out)
    assert code == 0
    rows = read_report(out / "report.csv")
    (got,) = [r[4] for r in rows if r[1] == "true" and r[2] == "nll" and r[3] == "all"]
    test = read_split(data, "test")
    assert got == pytest.approx(evaluate(true_model(test, SigmoidProclivity()), test).nll, abs=1e-12)
    assert got != pytest.approx(evaluate(true_model(test, ExpDecayProclivity()), test).nll, abs=1e-6)


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


def test_eval_proclivity_conflicting_with_dataset_is_usage_error(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config, proclivity="sigmoid")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("proclivity=exp\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--config", cfg, "--data", data,
                       "--variants", "nm", "--out", tmp_path / "eval")
    assert code == 2
    assert "conflicts" in err


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


def eval_report(capsys, tmp_path, data, variant, fit_dir, *config):
    out = tmp_path / "eval"
    code, _, err = run(capsys, "eval", *config, "--data", data, "--variants", variant,
                       "--checkpoint", f"{variant}={fit_dir}", "--out", out)
    assert code == 0, err
    return (out / "report.csv").read_bytes()


def test_eval_and_curve_read_the_settings_from_the_checkpoint(capsys, tmp_path, tiny_config):
    # A fit under relu and delta_scale=5 scores the same, bit for bit, with
    # its config, with only the data settings, and with no config at all.
    data = make_data(capsys, tmp_path, tiny_config)
    relu = tmp_path / "relu.cfg"
    relu.write_text(TINY_DATA + TINY_FIT + "activation=relu\ndelta_scale=5\n", encoding="utf-8")
    fit_dir = fit_into(capsys, tmp_path, relu, data, "pro", tmp_path / "fit")
    reports = [
        eval_report(capsys, tmp_path, data, "pro", fit_dir, *config)
        for config in (("--config", relu), ("--config", tiny_config), ())
    ]
    assert reports[1] == reports[0] and reports[2] == reports[0]
    (got,) = [r[4] for r in read_report(tmp_path / "eval" / "report.csv")
              if r[1] == "pro" and r[2] == "nll" and r[3] == "all"]
    test = read_split(data, "test")
    assert got == evaluate(read_checkpoint(fit_dir / "checkpoint.csv"), test).nll
    curves = []
    for config in (("--config", relu), ()):
        out = tmp_path / f"curve{len(curves)}"
        code, _, _ = run(capsys, "curve", *config, "--variant", "pro",
                         "--checkpoint", fit_dir, "--out", out)
        assert code == 0
        curves.append((out / "curve_pro.csv").read_bytes())
    assert curves[0] == curves[1]


@pytest.mark.parametrize("setting", ["activation=tanh", "delta_scale=20", "hidden=4"])
def test_setting_conflicting_with_checkpoint_is_usage_error(capsys, tmp_path, tiny_config, setting):
    data = make_data(capsys, tmp_path, tiny_config)
    relu = tmp_path / "relu.cfg"
    relu.write_text(TINY_DATA + TINY_FIT + "activation=relu\ndelta_scale=5\n", encoding="utf-8")
    fit_dir = fit_into(capsys, tmp_path, relu, data, "pro", tmp_path / "fit")
    clash = tmp_path / "clash.cfg"
    clash.write_text(setting + "\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--config", clash, "--data", data, "--variants", "pro",
                       "--checkpoint", f"pro={fit_dir}", "--out", tmp_path / "eval")
    assert code == 2
    assert "conflicts" in err and setting.split("=")[0] in err
    code, _, err = run(capsys, "curve", "--config", clash, "--variant", "pro",
                       "--checkpoint", fit_dir, "--out", tmp_path / "curve")
    assert code == 2
    assert "conflicts" in err


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
    code, _, err = run(capsys, "curve", "--variant", "exp", "--checkpoint", fit_dir,
                       "--out", tmp_path / "curve")
    assert code == 2
    assert "variant=exp conflicts with variant=pro" in err


FIT_KEYS = ["seed", "step", "max_outer", "score_epochs", "proclivity_epochs", "patience",
            "clip_norm", "hidden", "delta_scale", "activation"]


def test_generate_and_fit_manifests_record_the_settings_they_read(capsys, tmp_path, tiny_config):
    # The fit's config says turns=40; the dataset has 60 turns. A fit reads
    # no data setting but the seed, so its manifest records none.
    data = make_data(capsys, tmp_path, tiny_config, turns=60)
    block = read_manifest(data)[-1]
    assert list(block) == [
        "command", "version", "groups_total", "train_groups", "val_groups", "test_groups",
        "members", "turns", "trait_low", "trait_high", "proclivity", "trials", "seed",
        "trial", "artifacts",
    ]
    assert block["turns"] == "60"
    fit_dir = fit_into(capsys, tmp_path, tiny_config, data, "pro", tmp_path / "fit")
    block = read_manifest(fit_dir)[-1]
    assert list(block) == ["command", "version", *FIT_KEYS,
                           "variant", "data", "best_outer", "stop_reason"]
    assert block["hidden"] == "6" and block["seed"] == "0"


def test_eval_and_curve_manifests_record_no_net_settings(capsys, tmp_path, tiny_config):
    # eval and curve take the nets' settings from the checkpoint, not from
    # the config, so their manifests record none of them.
    data = make_data(capsys, tmp_path, tiny_config, proclivity="sigmoid")
    relu = tmp_path / "relu.cfg"
    relu.write_text(TINY_DATA + TINY_FIT + "activation=relu\ndelta_scale=5\n", encoding="utf-8")
    fit_dir = fit_into(capsys, tmp_path, relu, data, "pro", tmp_path / "fit")
    eval_report(capsys, tmp_path, data, "pro", fit_dir)
    block = read_manifest(tmp_path / "eval")[-1]
    assert list(block) == ["command", "version", "proclivity", "variants", "data", "checkpoints"]
    assert block["proclivity"] == "sigmoid" and block["variants"] == "pro"
    out = tmp_path / "curve"
    assert run(capsys, "curve", "--variant", "pro", "--checkpoint", fit_dir, "--out", out)[0] == 0
    block = read_manifest(out)[-1]
    assert list(block) == ["command", "version", "proclivity", "curve_lo", "curve_hi",
                           "variant", "artifact"]


def test_eval_bad_checkpoint_syntax_is_usage_error(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    for bad in ("expdir", "nm=somewhere"):
        code, _, err = run(capsys, "eval", "--config", tiny_config, "--data", data,
                           "--variants", "nm", "--checkpoint", bad,
                           "--out", tmp_path / "eval")
        assert code == 2
        assert "VARIANT=DIR" in err


# -------------------------------------------------------------- experiment


def experiment_args(tmp_path, out, extra=()):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        TINY_DATA + "trials=2\nmax_outer=3\npatience=2\nhidden=4\nvariants=exp,nm,hm\n",
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
    assert "curve_true_mean.csv" in curve_names
    assert "curve_exp_trial1.csv" in curve_names
    assert "curve_nm_trial2.csv" in curve_names
    rows = read_report(out / "report.csv")
    assert {r[0] for r in rows} == {1, 2}
    manifest = (out / "manifest.txt").read_text(encoding="utf-8")
    assert "command=experiment" in manifest


def test_experiment_manifest_records_every_setting(capsys, tmp_path):
    out = tmp_path / "exp"
    assert run(capsys, *experiment_args(tmp_path, out))[0] == 0
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# run ")
    assert lines[1:] == [
        "command=experiment", f"version={__version__}", "groups_total=3", "train_groups=2",
        "val_groups=1", "test_groups=1", "members=3", "turns=40", "trait_low=0.1",
        "trait_high=1.0", "proclivity=exp", "trials=2", "seed=0", "step=0.05", "max_outer=3",
        "score_epochs=5", "proclivity_epochs=5", "patience=2", "clip_norm=10.0", "hidden=4",
        "delta_scale=20.0", "activation=tanh", "variants=exp,nm,hm", "curve_lo=2",
        "curve_hi=40", "parallel_trials=1", "curve_files=12",
    ]


def test_experiment_reruns_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *experiment_args(tmp_path, a))[0] == 0
    assert run(capsys, *experiment_args(tmp_path, b))[0] == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    for path in sorted((a / "curves").iterdir()):
        assert path.read_bytes() == (b / "curves" / path.name).read_bytes()


def test_experiment_parallel_matches_sequential(capsys, tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert run(capsys, *experiment_args(tmp_path, seq))[0] == 0
    assert run(capsys, *experiment_args(tmp_path, par, ("--parallel-trials", "2")))[0] == 0
    assert (seq / "report.csv").read_bytes() == (par / "report.csv").read_bytes()


# ------------------------------------------------------------------- curve


def test_curve_heuristic_memory(capsys, tmp_path):
    out = tmp_path / "curve"
    code, _, _ = run(capsys, "curve", "--variant", "hm", "--out", out)
    assert code == 0
    curve = read_curve(out / "curve_hm.csv")
    np.testing.assert_allclose(curve.values, 100 * np.exp(-curve.gaps / 2.0), rtol=1e-12)


def test_curve_true_uses_generating_maps(capsys, tmp_path):
    out = tmp_path / "curve"
    code, _, _ = run(capsys, "curve", "--variant", "true", "--out", out)
    assert code == 0
    curve = read_curve(out / "curve_true.csv")
    np.testing.assert_allclose(
        curve.values, 19.75129232904011 * np.exp(-curve.gaps / 2.0), rtol=1e-12
    )


def test_curve_pro_needs_checkpoint(capsys, tmp_path):
    code, _, err = run(capsys, "curve", "--variant", "pro", "--out", tmp_path / "curve")
    assert code == 2
    assert "--checkpoint" in err


def test_curve_from_fitted_checkpoint(capsys, tmp_path, tiny_config):
    data = make_data(capsys, tmp_path, tiny_config)
    fit_out = tmp_path / "fit_pro"
    run(capsys, "fit", "--config", tiny_config, "--data", data,
        "--variant", "pro", "--out", fit_out)
    out = tmp_path / "curve"
    code, _, _ = run(capsys, "curve", "--config", tiny_config, "--variant", "pro",
                     "--checkpoint", fit_out, "--out", out)
    assert code == 0
    curve = read_curve(out / "curve_pro.csv")
    assert curve.gaps.tolist() == list(range(2, 41))
    assert np.all(curve.values >= 0)

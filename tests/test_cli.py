"""End-to-end CLI behavior: settings, subcommands, files, and exit codes."""

import subprocess
import sys

import numpy as np
import pytest

from turntaking import ExpDecayProclivity, SigmoidProclivity, __version__, evaluate, true_model
from turntaking.cli import main
from turntaking.dataio import read_curve, read_history, read_manifest, read_report, read_split

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
    assert names == {"checkpoint_f.csv", "checkpoint_g.csv", "checkpoint_nu.csv",
                     "history.csv", "manifest.txt"}
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
    names = {p.name for p in out.iterdir()}
    assert "checkpoint_nu.csv" not in names
    assert {"checkpoint_f.csv", "checkpoint_g.csv", "history.csv"} <= names


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
    assert (outs[0] / "checkpoint_f.csv").read_bytes() == (outs[1] / "checkpoint_f.csv").read_bytes()


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
    code, _, err = run(capsys, "eval", "--config", tiny_config, "--data", data,
                       "--variants", "exp", "--checkpoint", f"exp={empty}",
                       "--out", tmp_path / "eval")
    assert code == 2
    assert "missing checkpoint file" in err


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

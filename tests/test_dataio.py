"""CSV round trips, format diagnostics, report layout, and manifests."""

import math

import numpy as np
import pytest

from turntaking import (
    EvalReport,
    EvalSummary,
    ExpDecayProclivity,
    ExperimentConfig,
    Group,
    GroupLoss,
    ModelBundle,
    ProclivityCurve,
    Roster,
    SynthConfig,
    SynthDataset,
    TrialResult,
    boxplot_stats,
    generate_dataset,
    sample_conversation,
    traits_to_scores,
)
from turntaking.dataio import (
    DataFormatError,
    MANIFEST_NAME,
    append_manifest,
    read_manifest,
    ensure_out_dir,
    read_conversations,
    read_curve,
    read_dataset,
    read_checkpoint,
    read_history,
    read_report,
    read_rosters,
    read_split,
    read_true_scores,
    split_paths,
    write_conversations,
    write_curve,
    write_curves,
    write_dataset,
    write_checkpoint,
    write_history,
    write_report,
    write_rosters,
    write_summary,
    write_true_scores,
)

from test_training import warmed_bundle


@pytest.fixture
def dataset():
    return generate_dataset(
        SynthConfig(
            groups_total=3, train_groups=2, val_groups=1, test_groups=1,
            members=3, turns=25,
        ),
        trial=1,
    )


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ------------------------------------------------------------- round trips


def test_roster_round_trip_is_exact(tmp_path, dataset):
    path = tmp_path / "rosters.csv"
    write_rosters(path, dataset.train)
    back = read_rosters(path)
    assert sorted(back) == [g.group_id for g in dataset.train]
    for g in dataset.train:
        np.testing.assert_array_equal(back[g.group_id].traits, g.roster.traits)


def test_conversation_round_trip_is_exact(tmp_path, dataset):
    path = tmp_path / "conversations.csv"
    write_conversations(path, dataset.train)
    back = read_conversations(path)
    for g in dataset.train:
        np.testing.assert_array_equal(back[g.group_id], g.conversation.speakers)


def test_scores_round_trip_is_exact(tmp_path, dataset):
    path = tmp_path / "scores.csv"
    write_true_scores(path, dataset.train)
    back = read_true_scores(path)
    for g in dataset.train:
        np.testing.assert_array_equal(back[g.group_id].inherent, g.scores.inherent)
        np.testing.assert_array_equal(back[g.group_id].memory, g.scores.memory)


def test_dataset_round_trip_is_exact(tmp_path, dataset):
    written = write_dataset(tmp_path, dataset)
    assert len(written) == 9
    back = read_dataset(tmp_path)
    for split in ("train", "val", "test"):
        groups = getattr(dataset, split)
        loaded = getattr(back, split)
        assert [g.group_id for g in loaded] == [g.group_id for g in groups]
        for a, b in zip(loaded, groups):
            np.testing.assert_array_equal(a.roster.traits, b.roster.traits)
            np.testing.assert_array_equal(a.conversation.speakers, b.conversation.speakers)
            np.testing.assert_array_equal(a.scores.memory, b.scores.memory)
            assert a.conversation.group_size == b.conversation.group_size


def test_compact_labels_round_trip(tmp_path):
    # A two-member group whose turn numbers pass 255 while its labels are
    # uint8, and a group too large for uint8 labels.
    rng = np.random.default_rng(8)
    groups = []
    for gid, (members, turns) in enumerate([(2, 300), (300, 700)], start=1):
        roster = Roster(rng.uniform(0.1, 1.0, members))
        scores = traits_to_scores(roster)
        conversation = sample_conversation(scores, ExpDecayProclivity(), turns, rng)
        groups.append(Group(gid, roster, scores, conversation))
    assert [g.conversation.speakers.dtype for g in groups] == [np.uint8, np.uint16]
    write_dataset(tmp_path, SynthDataset(train=groups, val=groups[:1], test=groups[1:]))
    back = read_split(tmp_path, "train")
    for a, b in zip(back, groups):
        assert a.conversation.speakers.dtype == b.conversation.speakers.dtype
        np.testing.assert_array_equal(a.conversation.speakers, b.conversation.speakers)


def test_read_split_without_scores_yields_none(tmp_path, dataset):
    write_dataset(tmp_path, dataset)
    split_paths(tmp_path, "test")["scores"].unlink()
    groups = read_split(tmp_path, "test")
    assert len(groups) == 1
    assert groups[0].scores is None
    # Re-writing such a split simply omits the unknown scores.
    out = tmp_path / "rewrite"
    out.mkdir()
    write_true_scores(out / "scores_test.csv", groups)
    assert read_true_scores(out / "scores_test.csv") == {}


def test_net_round_trip_is_exact(tmp_path):
    # A checkpoint brings back every net bit for bit, with the variant,
    # activation and delta_scale it was written under and nothing else given.
    rng = np.random.default_rng(0)
    for variant, activation, delta_scale in [
        ("pro", "tanh", 20.0), ("pro", "relu", 5.0), ("exp", "relu", 20.0),
    ]:
        bundle = warmed_bundle(
            rng, hidden=(4, 3), seed=8, variant=variant, activation=activation,
            delta_scale=delta_scale,
        )
        path = tmp_path / f"{variant}_{activation}.csv"
        write_checkpoint(path, bundle)
        back = read_checkpoint(path)
        assert back.variant == variant
        assert (back.f_net, back.g_net) == (bundle.f_net, bundle.g_net)
        assert back.f_net.layer_sizes == (1, 4, 3, 1)
        assert back.f_net.activation == activation
        if variant == "pro":
            assert back.proclivity == bundle.proclivity
            assert back.proclivity.delta_scale == delta_scale
        else:
            assert type(back.proclivity) is ExpDecayProclivity
        write_checkpoint(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_checkpoint_layout(tmp_path):
    path = tmp_path / "checkpoint.csv"
    bundle = warmed_bundle(np.random.default_rng(0), hidden=(4, 3), activation="relu",
                           delta_scale=5.0)
    write_checkpoint(path, bundle)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:4] == [
        "# variant=pro", "# activation=relu", "# delta_scale=5.0", "net,layer,row,col,value",
    ]
    # Layers of (1, 4, 3, 1) nets: rows x (1 bias + inputs) cells each.
    assert len(lines) == 4 + 3 * (4 * 2 + 3 * 5 + 1 * 4)
    bias, weight = bundle.f_net.biases[0][0], bundle.f_net.weights[0][0, 0]
    assert lines[4:6] == [f"f,1,1,0,{float(bias)!r}", f"f,1,1,1,{float(weight)!r}"]
    write_checkpoint(path, ModelBundle.make("exp"))
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# variant=exp\n# activation=tanh\nnet,layer,row,col,value\n")
    assert "\nnu," not in text


def test_failed_write_keeps_the_previous_file(tmp_path, dataset):
    path = tmp_path / "rosters.csv"
    write_rosters(path, dataset.train)
    before = path.read_bytes()

    def groups_then_failure():
        yield dataset.train[0]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_rosters(path, groups_then_failure())
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_history_round_trip_is_exact(tmp_path):
    history = [(0, 1.25, 1.5), (1, 1.0 / 3.0, 0.1234567890123456789)]
    path = tmp_path / "history.csv"
    write_history(path, history)
    back = read_history(path)
    assert back == [(0, 1.25, 1.5), (1, 1.0 / 3.0, 0.12345678901234568)]


def test_curve_round_trip_is_exact(tmp_path):
    curve = ProclivityCurve(
        gaps=np.arange(2, 41), values=np.exp(-np.arange(2, 41) / 2.0) * math.pi
    )
    path = tmp_path / "curve.csv"
    write_curve(path, curve)
    back = read_curve(path)
    np.testing.assert_array_equal(back.gaps, curve.gaps)
    np.testing.assert_array_equal(back.values, curve.values)


# -------------------------------------------------------------- diagnostics


def test_wrong_header_is_rejected(tmp_path):
    path = tmp_path / "rosters.csv"
    write_lines(path, ["group,member,trait", "1,1,0.5"])
    with pytest.raises(DataFormatError, match="expected header"):
        read_rosters(path)
    # Only checkpoints open with # key=value lines.
    write_lines(path, ["# variant=exp", "group_id,member,trait", "1,1,0.5"])
    with pytest.raises(DataFormatError, match="expected header"):
        read_rosters(path)


def test_wrong_field_count_reports_line_number(tmp_path):
    path = tmp_path / "rosters.csv"
    write_lines(path, ["group_id,member,trait", "1,1,0.5", "1,2"])
    with pytest.raises(DataFormatError, match=r":3"):
        read_rosters(path)


def test_unparsable_value_reports_line_number(tmp_path):
    path = tmp_path / "conversations.csv"
    write_lines(path, ["group_id,turn,speaker", "1,1,2", "1,two,3"])
    with pytest.raises(DataFormatError, match=r":3.*'two'"):
        read_conversations(path)


def test_non_contiguous_members_rejected(tmp_path):
    path = tmp_path / "rosters.csv"
    write_lines(path, ["group_id,member,trait", "1,1,0.5", "1,3,0.7"])
    with pytest.raises(DataFormatError, match="not 1..N"):
        read_rosters(path)


def test_non_contiguous_turns_rejected(tmp_path):
    path = tmp_path / "conversations.csv"
    write_lines(path, ["group_id,turn,speaker", "1,1,2", "1,3,1"])
    with pytest.raises(DataFormatError, match="not 1..T"):
        read_conversations(path)


EXP_HEAD = ["# variant=exp", "# activation=tanh", "net,layer,row,col,value"]
G_ROWS = ["g,1,1,0,0.0", "g,1,1,1,0.5"]


def test_net_weight_holes_rejected(tmp_path):
    path = tmp_path / "checkpoint.csv"
    # Layer 1 of f has rows 1..2 but no bias cell in row 2.
    write_lines(path, EXP_HEAD + ["f,1,1,0,0.1", "f,1,1,1,0.5", "f,1,2,1,0.25"] + G_ROWS)
    with pytest.raises(DataFormatError, match="layer 1 cells are not 1..R x 0..C"):
        read_checkpoint(path)


def test_checkpoint_row_zero_rejected(tmp_path):
    # Rows 0 and 2 of a two-row layer: as many cells as rows 1..2 hold, but
    # row 0 would land in the last row and leave row 1 unset.
    path = tmp_path / "checkpoint.csv"
    layer_1 = ["f,1,0,0,0.1", "f,1,0,1,0.5", "f,1,2,0,0.2", "f,1,2,1,0.3"]
    layer_2 = ["f,2,1,0,0.0", "f,2,1,1,0.5", "f,2,1,2,0.25"]
    write_lines(path, EXP_HEAD + layer_1 + layer_2 + G_ROWS)
    with pytest.raises(DataFormatError, match="cells are not 1..R x 0..C"):
        read_checkpoint(path)


def test_net_layer_numbering_rejected(tmp_path):
    path = tmp_path / "checkpoint.csv"
    write_lines(path, EXP_HEAD + ["f,2,1,0,0.0", "f,2,1,1,0.5"] + G_ROWS)
    with pytest.raises(DataFormatError, match="layers are not 1..L"):
        read_checkpoint(path)


@pytest.mark.parametrize(
    "lines, message",
    [
        (EXP_HEAD[1:] + ["f,1,1,0,0.0", "f,1,1,1,0.5"] + G_ROWS, "pro or exp checkpoint"),
        (["# variant=nm"] + EXP_HEAD[1:] + G_ROWS, "pro or exp checkpoint"),
        (EXP_HEAD[:1] + ["# delta_scale=20.0"] + EXP_HEAD[1:] + G_ROWS, "pro or exp checkpoint"),
        (EXP_HEAD + ["f,1,1,0,0.0", "f,1,1,1,0.5"] + G_ROWS + ["nu,1,1,0,0.0", "nu,1,1,1,0.5"],
         "pro or exp checkpoint"),
        (EXP_HEAD + G_ROWS, "pro or exp checkpoint"),
        (EXP_HEAD + ["f,1,1,0,0.0", "f,1,1,1,0.5", "f,1,1,1,0.5"] + G_ROWS, ":6: repeated cell"),
        (EXP_HEAD + ["f,1,1,0,0.0", "f,1,1,two,0.5"] + G_ROWS, r":5: cannot parse 'two'"),
        (EXP_HEAD + ["f,1,1,0,0.0", "f,1,1,1,0.5", "f,1,1,2,0.5"] + G_ROWS, "do not chain"),
        (["# variant=exp", "# activation=gelu"] + EXP_HEAD[2:] + ["f,1,1,0,0.0", "f,1,1,1,0.5"]
         + G_ROWS, "unknown hidden activation"),
        (["# variant=pro", "# activation=tanh", "# delta_scale=0.0"] + EXP_HEAD[2:]
         + ["f,1,1,0,0.0", "f,1,1,1,0.5"] + G_ROWS + ["nu,1,1,0,0.0", "nu,1,1,1,0.5"],
         "delta_scale must be positive"),
    ],
    ids=["no-variant", "variant-nm", "exp-with-delta-scale", "exp-with-nu", "missing-f",
         "repeated-cell", "bad-value-line", "sizes-do-not-chain", "bad-activation",
         "zero-delta-scale"],
)
def test_malformed_checkpoint_rejected(tmp_path, lines, message):
    path = tmp_path / "checkpoint.csv"
    write_lines(path, lines)
    with pytest.raises(DataFormatError, match=message):
        read_checkpoint(path)


def test_split_coverage_mismatch_rejected(tmp_path, dataset):
    write_dataset(tmp_path, dataset)
    paths = split_paths(tmp_path, "train")
    extra = dataset.train + [dataset.test[0]]
    write_rosters(paths["rosters"], extra)
    with pytest.raises(DataFormatError, match="different groups"):
        read_split(tmp_path, "train")


# ------------------------------------------------------------------ reports


def loss_summary(base, group_ids, turns=25):
    rows = tuple(
        GroupLoss(group_id=gid, nll=base + 0.01 * k, nll_turn=base + 0.02 * k, turns=turns)
        for k, gid in enumerate(group_ids)
    )
    nlls = [r.nll for r in rows]
    nll_turns = [r.nll_turn for r in rows]
    return EvalSummary(
        groups=rows,
        nll=float(np.mean(nlls)),
        nll_turn=float(np.mean(nll_turns)),
        nll_sum=float(np.sum(nlls)),
        nll_turn_sum=float(np.sum(nll_turns)),
    )


def toy_report():
    config = ExperimentConfig(
        synth=SynthConfig(trials=2, turns=25), variants=("exp", "nm")
    )
    gaps = np.arange(2, 41)
    trials = []
    for trial in (1, 2):
        tr = TrialResult(trial=trial)
        tr.losses["true"] = loss_summary(0.9 + 0.01 * trial, (16, 17))
        tr.losses["nm"] = loss_summary(1.38, (16, 17))
        if trial == 1:
            tr.losses["exp"] = loss_summary(1.0, (16, 17))
            tr.curves["exp"] = ProclivityCurve(gaps=gaps, values=np.full(39, 2.0))
        else:
            tr.failures["exp"] = "fit diverged"
        tr.curves["true"] = ProclivityCurve(gaps=gaps, values=np.full(39, 19.75))
        tr.curves["nm"] = ProclivityCurve(gaps=gaps, values=np.zeros(39))
        trials.append(tr)
    return EvalReport(config=config, trials=trials)


def test_report_rows_cover_groups_aggregates_and_failures(tmp_path):
    report = toy_report()
    path = tmp_path / "report.csv"
    write_report(path, report)
    rows = read_report(path)

    per_group = [r for r in rows if r == (1, "exp", "nll", "16", 1.0)]
    assert len(per_group) == 1
    agg = [r for r in rows if r[:4] == (1, "exp", "nll", "all")]
    assert agg == [(1, "exp", "nll", "all", 1.005)]
    sums = [r for r in rows if r[:4] == (1, "exp", "nll_sum", "all")]
    assert sums == [(1, "exp", "nll_sum", "all", 2.01)]
    failed = [r for r in rows if r[2] == "failed"]
    assert failed == [(2, "exp", "failed", "all", "fit diverged")]
    # The failed cell contributes no metric rows.
    assert not any(r[0] == 2 and r[1] == "exp" and r[2] == "nll" for r in rows)
    # True rows are always present.
    assert any(r[1] == "true" and r[2] == "nll_turn" for r in rows)


def test_summary_skips_failed_only_variants_and_matches_boxplot(tmp_path):
    report = toy_report()
    path = tmp_path / "summary.csv"
    write_summary(path, report)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "variant,metric,median,q1,q3,lo_whisker,hi_whisker"
    cells = [line.split(",") for line in lines[1:]]
    # exp succeeded in one trial only: stats over a single value.
    exp_nll = [c for c in cells if c[0] == "exp" and c[1] == "nll"]
    assert len(exp_nll) == 1
    assert float(exp_nll[0][2]) == 1.005
    nm_rows = [c for c in cells if c[0] == "nm"]
    assert len(nm_rows) == 2
    stats = boxplot_stats(report.trial_values("true", "nll"))
    true_nll = next(c for c in cells if c[0] == "true" and c[1] == "nll")
    assert float(true_nll[2]) == stats["median"]
    assert float(true_nll[5]) == stats["lo_whisker"]


def test_write_curves_layout(tmp_path):
    report = toy_report()
    written = write_curves(tmp_path, report)
    names = sorted(p.name for p in written)
    assert names == [
        "curve_exp_mean.csv",
        "curve_exp_trial1.csv",
        "curve_nm_mean.csv",
        "curve_nm_trial1.csv",
        "curve_nm_trial2.csv",
        "curve_true_mean.csv",
        "curve_true_trial1.csv",
        "curve_true_trial2.csv",
    ]
    assert all(p.parent.name == "curves" for p in written)
    mean_exp = read_curve(tmp_path / "curves" / "curve_exp_mean.csv")
    assert np.all(mean_exp.values == 2.0)


# ---------------------------------------------------------------- manifests


def test_manifest_appends_timestamped_blocks(tmp_path):
    append_manifest(tmp_path, {"command": "generate", "seed": 1})
    append_manifest(tmp_path, {"command": "fit", "seed": 2})
    text = (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8")
    assert text.count("# run ") == 2
    assert "command=generate" in text
    assert "command=fit" in text
    assert text.index("command=generate") < text.index("command=fit")
    assert read_manifest(tmp_path) == [
        {"command": "generate", "seed": "1"},
        {"command": "fit", "seed": "2"},
    ]
    assert read_manifest(tmp_path / "elsewhere") == []


def test_ensure_out_dir_creates_nested(tmp_path):
    target = tmp_path / "a" / "b"
    path = ensure_out_dir(target)
    assert path.is_dir()

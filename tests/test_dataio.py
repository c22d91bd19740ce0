"""CSV round trips, format diagnostics, report layout, and manifests."""

import csv
import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

from turntaking import (
    Conversation,
    EvalReport,
    EvalSummary,
    ExpDecayProclivity,
    ExperimentConfig,
    Group,
    GroupLoss,
    LearnedProclivity,
    ModelBundle,
    ProclivityCurve,
    Roster,
    ScoreParams,
    SynthConfig,
    SynthDataset,
    TrialResult,
    generate_dataset,
    sample_conversation,
    traits_to_scores,
)
from turntaking import dataio
from turntaking.dataio import (
    DataFormatError,
    MANIFEST_NAME,
    append_manifest,
    read_manifest,
    ensure_out_dir,
    read_conversations,
    read_checkpoint,
    read_rosters,
    read_split,
    read_true_scores,
    split_paths,
    write_conversations,
    write_curve,
    write_curves,
    write_dataset,
    write_checkpoint,
    write_fits,
    write_history,
    write_report,
    write_rosters,
    write_summary,
    write_true_scores,
)
from turntaking.evaluation import FitRecord, boxplot_stats
from turntaking.neural import DenseNet

from test_training import warmed_bundle


@pytest.fixture
def dataset():
    return generate_dataset(
        SynthConfig(
            train_groups=2, val_groups=1, test_groups=1,
            members=3, turns=25,
        ),
        trial=1,
    )


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def csv_rows(path):
    """A CSV artifact's data rows as the csv module reads them: lists of strings."""
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))[1:]


def report_rows(path):
    """report.csv's rows: trial an int, value a float unless the cell failed."""
    return [(int(trial), variant, metric, group_id, raw if metric == "failed" else float(raw))
            for trial, variant, metric, group_id, raw in csv_rows(path)]


def curve_cells(path):
    """A curve file's gaps and values."""
    rows = csv_rows(path)
    return [int(gap) for gap, _ in rows], [float(value) for _, value in rows]


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
    for split in ("train", "val", "test"):
        groups = getattr(dataset, split)
        loaded = read_split(tmp_path, split)
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


def test_partial_ground_truth_is_refused(tmp_path, dataset):
    # A scores file holds every group's scores or none: the reader refuses one
    # that leaves a group out, and the writer never writes one.
    write_dataset(tmp_path, dataset)
    path = split_paths(tmp_path, "train")["scores"]
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    first = dataset.train[0].group_id
    write_lines(path, [header, *(row for row in rows if not row.startswith(f"{first},"))])
    with pytest.raises(DataFormatError) as error:
        read_split(tmp_path, "train")
    assert str(error.value) == f"{path}: group {first} has a roster but no scores"
    # A header alone still means no scores at all.
    write_lines(path, [header])
    assert [g.scores for g in read_split(tmp_path, "train")] == [None, None]
    bare = dataclasses.replace(dataset.train[0], scores=None)
    with pytest.raises(ValueError, match=f"group {first} has no true scores"):
        write_true_scores(path, [bare, *dataset.train[1:]])
    assert path.read_text(encoding="utf-8") == header + "\n"


def test_net_round_trip_is_exact(tmp_path):
    # A checkpoint brings back every net bit for bit, with the variant it
    # was written under and nothing else given.
    rng = np.random.default_rng(0)
    for variant, hidden in [("pro", (4, 3)), ("pro", (8,)), ("exp", (4, 3))]:
        bundle = warmed_bundle(rng, hidden=hidden, seed=8, variant=variant)
        path = tmp_path / f"{variant}_{len(hidden)}.csv"
        write_checkpoint(path, bundle)
        back = read_checkpoint(path)
        assert back.variant == variant
        assert (back.f_net, back.g_net) == (bundle.f_net, bundle.g_net)
        assert [w.shape[0] for w in back.f_net.weights] == [*hidden, 1]
        if variant == "pro":
            assert back.proclivity == bundle.proclivity
        else:
            assert type(back.proclivity) is ExpDecayProclivity
        write_checkpoint(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_checkpoint_layout(tmp_path):
    path = tmp_path / "checkpoint.csv"
    bundle = warmed_bundle(np.random.default_rng(0), hidden=(4, 3))
    write_checkpoint(path, bundle)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ["# variant=pro", "net,layer,row,col,value"]
    # Layers of (1, 4, 3, 1) nets: rows x (1 bias + inputs) cells each.
    assert len(lines) == 2 + 3 * (4 * 2 + 3 * 5 + 1 * 4)
    bias, weight = bundle.f_net.biases[0][0], bundle.f_net.weights[0][0, 0]
    assert lines[2:4] == [f"f,1,1,0,{float(bias)!r}", f"f,1,1,1,{float(weight)!r}"]
    write_checkpoint(path, ModelBundle.make("exp"))
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# variant=exp\nnet,layer,row,col,value\n")
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


def test_writing_into_a_missing_directory_names_the_directory(tmp_path, dataset):
    # The error names the directory and the file asked for, never the temp file.
    missing = tmp_path / "nope"
    with pytest.raises(FileNotFoundError) as raised:
        write_dataset(missing, dataset)
    assert raised.value.filename == str(missing)
    assert "rosters_train.csv" in str(raised.value)
    assert ".tmp" not in str(raised.value)
    assert list(tmp_path.iterdir()) == []


def test_history_round_trip_is_exact(tmp_path):
    history = [(0, 1.25, 1.5), (1, 1.0 / 3.0, 0.1234567890123456789)]
    path = tmp_path / "history.csv"
    write_history(path, history)
    back = [(int(outer), float(train), float(val)) for outer, train, val in csv_rows(path)]
    assert back == [(0, 1.25, 1.5), (1, 1.0 / 3.0, 0.12345678901234568)]


def test_history_without_validation_has_empty_val_cells(tmp_path):
    path = tmp_path / "history.csv"
    write_history(path, [(0, 1.25, None), (1, 0.5, None)])
    assert path.read_text(encoding="utf-8") == "outer_iter,train_loss,val_loss\n0,1.25,\n1,0.5,\n"


def test_curve_round_trip_is_exact(tmp_path):
    curve = ProclivityCurve(
        gaps=np.arange(2, 41), values=np.exp(-np.arange(2, 41) / 2.0) * math.pi
    )
    path = tmp_path / "curve.csv"
    write_curve(path, curve)
    assert curve_cells(path) == (curve.gaps.tolist(), curve.values.tolist())


# -------------------------------------------------------------------- bytes

# Floats that show how each is written: 17 significant digits, a signed zero,
# and the two exponent forms repr switches to.
TRICKY = (0.1 + 0.2, -0.0, 1e-05, 1e16)


def one_layer_net(w1, b1, w2, b2):
    """A 1-1-1 net with the given layer-1 and layer-2 weight and bias."""
    return DenseNet(weights=(np.array([[w1]]), np.array([[w2]])),
                    biases=(np.array([b1]), np.array([b2])))


def pinned_writes():
    """Each writer with a small fixed input: (write to a path, the whole text it writes)."""
    groups = [
        Group(7, Roster(TRICKY), ScoreParams(TRICKY, TRICKY[::-1]), Conversation([1, 4, 2, 4], 4)),
        Group(8, Roster([0.5, 0.25]), None, Conversation([2, 1], 2)),
    ]
    assert groups[0].conversation.speakers.dtype == np.uint8
    bundle = ModelBundle(
        "pro", LearnedProclivity(one_layer_net(0.5, -0.25, 2.0, 0.0)),
        f_net=one_layer_net(*TRICKY), g_net=one_layer_net(*TRICKY[::-1]),
    )

    def summary(nll, nll_turn):
        return EvalSummary((GroupLoss(7, nll, nll_turn, 4),), nll, nll_turn, nll, nll_turn)

    report = EvalReport(ExperimentConfig(variants=("exp",)), [
        TrialResult(1, losses={"true": summary(0.5, 0.25), "exp": summary(TRICKY[0], 1e16)},
                    fits={"exp": FitRecord("plateau", 4, 6, 130)}),
        TrialResult(2, losses={"true": summary(1.0, -0.0)},
                    failures={"exp": "fit diverged, at outer 3"}),
    ])
    return {
        "rosters": (lambda path: write_rosters(path, groups),
                    "group_id,member,trait\n7,1,0.30000000000000004\n7,2,-0.0\n7,3,1e-05\n"
                    "7,4,1e+16\n8,1,0.5\n8,2,0.25\n"),
        "conversations": (lambda path: write_conversations(path, groups),
                          "group_id,turn,speaker\n7,1,1\n7,2,4\n7,3,2\n7,4,4\n8,1,2\n8,2,1\n"),
        # Group 8 has no scores, so the scores file holds group 7's alone.
        "scores": (lambda path: write_true_scores(path, groups[:1]),
                   "group_id,member,pi,d\n7,1,0.30000000000000004,1e+16\n7,2,-0.0,1e-05\n"
                   "7,3,1e-05,-0.0\n7,4,1e+16,0.30000000000000004\n"),
        "checkpoint": (lambda path: write_checkpoint(path, bundle),
                       "# variant=pro\nnet,layer,row,col,value\n"
                       "f,1,1,0,-0.0\nf,1,1,1,0.30000000000000004\nf,2,1,0,1e+16\nf,2,1,1,1e-05\n"
                       "g,1,1,0,1e-05\ng,1,1,1,1e+16\ng,2,1,0,0.30000000000000004\ng,2,1,1,-0.0\n"
                       "nu,1,1,0,-0.25\nnu,1,1,1,0.5\nnu,2,1,0,0.0\nnu,2,1,1,2.0\n"),
        "history": (lambda path: write_history(path, [(0, TRICKY[0], -0.0), (1, 1e-05, 1e16)]),
                    "outer_iter,train_loss,val_loss\n0,0.30000000000000004,-0.0\n1,1e-05,1e+16\n"),
        "report": (lambda path: write_report(path, report),
                   "trial,variant,metric,group_id,value\n"
                   "1,true,nll,7,0.5\n1,true,nll,all,0.5\n"
                   "1,true,nll_turn,7,0.25\n1,true,nll_turn,all,0.25\n"
                   "1,true,nll_sum,all,0.5\n1,true,nll_turn_sum,all,0.25\n"
                   "1,exp,nll,7,0.30000000000000004\n1,exp,nll,all,0.30000000000000004\n"
                   "1,exp,nll_turn,7,1e+16\n1,exp,nll_turn,all,1e+16\n"
                   "1,exp,nll_sum,all,0.30000000000000004\n1,exp,nll_turn_sum,all,1e+16\n"
                   "2,true,nll,7,1.0\n2,true,nll,all,1.0\n"
                   "2,true,nll_turn,7,-0.0\n2,true,nll_turn,all,-0.0\n"
                   "2,true,nll_sum,all,1.0\n2,true,nll_turn_sum,all,-0.0\n"
                   '2,exp,failed,all,"fit diverged, at outer 3"\n'),
        # The fit that diverged in trial 2 has no row.
        "fits": (lambda path: write_fits(path, report),
                 "trial,variant,stop_reason,best_outer,outer_iters,passes\n1,exp,plateau,4,6,130\n"),
        "summary": (lambda path: write_summary(path, report),
                    "variant,metric,median,q1,q3,lo_whisker,hi_whisker\n"
                    "true,nll,0.75,0.625,0.875,0.5,1.0\n"
                    "true,nll_turn,0.125,0.0625,0.1875,-0.0,0.25\n"
                    "exp,nll,0.30000000000000004,0.30000000000000004,0.30000000000000004,"
                    "0.30000000000000004,0.30000000000000004\n"
                    "exp,nll_turn,1e+16,1e+16,1e+16,1e+16,1e+16\n"),
        "curve": (lambda path: write_curve(path, ProclivityCurve([2, 3, 4, 5], TRICKY)),
                  "delta,value\n2,0.30000000000000004\n3,-0.0\n4,1e-05\n5,1e+16\n"),
    }


@pytest.mark.parametrize("name", list(pinned_writes()))
def test_each_writer_writes_these_bytes(tmp_path, name):
    write, text = pinned_writes()[name]
    path = tmp_path / f"{name}.csv"
    write(path)
    assert path.read_bytes() == text.encode("utf-8")


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


# The three group files: (reader, header, a row's cells after its group id
# and index, what an order error says after "group 1 ").
GROUP_FILES = {
    "rosters": (read_rosters, "group_id,member,trait", lambda k: "0.5", "members are not 1..N"),
    "conversations": (read_conversations, "group_id,turn,speaker", lambda k: str(1 + k % 2),
                      "turns are not 1..T"),
    "scores": (read_true_scores, "group_id,member,pi,d", lambda k: f"0.5,{k}.0",
               "members are not 1..N"),
}
# Two groups of three rows out of the writer's order: (gid, index) of each
# row, and the line of the first row out of place.
ROW_ORDERS = {
    "split-over-two-runs": ([(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (1, 3)], 7),
    "two-rows-swapped": ([(1, 1), (1, 3), (1, 2), (2, 1), (2, 2), (2, 3)], 3),
    "group-comes-back": ([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (1, 1)], 8),
}


@pytest.mark.parametrize("order", list(ROW_ORDERS))
@pytest.mark.parametrize("stem", list(GROUP_FILES))
def test_a_group_is_read_as_one_run_in_index_order(tmp_path, stem, order):
    reader, header, cells, unordered = GROUP_FILES[stem]
    rows, line = ROW_ORDERS[order]
    path = tmp_path / f"{stem}.csv"
    write_lines(path, [header] + [f"{gid},{k},{cells(k)}" for gid, k in rows])
    with pytest.raises(DataFormatError) as error:
        reader(path)
    assert str(error.value) == f"{path}:{line}: group 1 {unordered} in one run"
    # In the writer's order the same rows read back.
    write_lines(path, [header] + [f"{gid},{k},{cells(k)}" for gid, k in sorted(set(rows))])
    assert sorted(reader(path)) == [1, 2]


@pytest.mark.parametrize("cell", ["9999999999999999999", str(10**23)])
def test_an_integer_past_int64_names_its_line(tmp_path, dataset, cell):
    # Not a numpy cast warning, nor an overflow error without a line.
    write_dataset(tmp_path, dataset)
    path = split_paths(tmp_path, "train")["conversations"]
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0] + "," + cell
    write_lines(path, lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError) as error:
            read_split(tmp_path, "train")
    gid = lines[7].split(",")[0]
    assert str(error.value) == f"{path}:8: group {gid}: {cell} does not fit in a 64-bit integer"


def test_a_malformed_csv_names_its_line(tmp_path, dataset):
    # A cell past the csv module's field limit of 131072 characters.
    write_dataset(tmp_path, dataset)
    path = split_paths(tmp_path, "train")["rosters"]
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + "," + "1" * 140_000
    write_lines(path, lines)
    with pytest.raises(DataFormatError) as error:
        read_split(tmp_path, "train")
    assert str(error.value) == (
        f"{path}:3: malformed CSV (field larger than field limit (131072))"
    )


EXP_HEAD = ["# variant=exp", "net,layer,row,col,value"]
F_ROWS = ["f,1,1,0,0.0", "f,1,1,1,0.5"]
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


# A checkpoint from before tanh and the gap scale of 20 became constants
# names them in its header: it is refused, never read as tanh and 20.
OLD_PRO_HEAD = ["# variant=pro", "# activation=tanh", "# delta_scale=20.0"]


@pytest.mark.parametrize(
    "lines, message",
    [
        (EXP_HEAD[1:] + F_ROWS + G_ROWS, "pro or exp checkpoint"),
        (["# variant=nm"] + EXP_HEAD[1:] + G_ROWS, "pro or exp checkpoint"),
        (EXP_HEAD[:1] + ["# delta_scale=20.0"] + EXP_HEAD[1:] + G_ROWS, "pro or exp checkpoint"),
        (EXP_HEAD + F_ROWS + G_ROWS + ["nu,1,1,0,0.0", "nu,1,1,1,0.5"],
         "pro or exp checkpoint"),
        (EXP_HEAD + G_ROWS, "pro or exp checkpoint"),
        (EXP_HEAD + F_ROWS + ["f,1,1,1,0.5"] + G_ROWS, ":5: repeated cell"),
        (EXP_HEAD + ["f,1,1,0,0.0", "f,1,1,two,0.5"] + G_ROWS, r":4: cannot parse 'two'"),
        (EXP_HEAD + F_ROWS + ["f,1,1,2,0.5"] + G_ROWS, "do not chain"),
        (["# variant=exp", "# activation=gelu"] + EXP_HEAD[1:] + F_ROWS + G_ROWS,
         r"keys \['variant'\] .* got \{'variant': 'exp', 'activation': 'gelu'\}"),
        (["# variant=pro", "# delta_scale=0.0"] + EXP_HEAD[1:] + F_ROWS + G_ROWS
         + ["nu,1,1,0,0.0", "nu,1,1,1,0.5"], "pro or exp checkpoint"),
        (["# variant=exp", "# activation=tanh"] + EXP_HEAD[1:] + F_ROWS + G_ROWS,
         "pro or exp checkpoint"),
        (OLD_PRO_HEAD + EXP_HEAD[1:] + F_ROWS + G_ROWS + ["nu,1,1,0,0.0", "nu,1,1,1,0.5"],
         r"got \{'variant': 'pro', 'activation': 'tanh', 'delta_scale': '20.0'\}"),
        # Not read as variant=exp with the second cell dropped.
        (["# variant=exp,junk"] + EXP_HEAD[1:] + F_ROWS + G_ROWS,
         r":1: expected one '# key=value' cell, got 2"),
        # f has no hidden layer, g one of one unit: they cannot run as one stack.
        (EXP_HEAD + F_ROWS + G_ROWS + ["g,2,1,0,0.0", "g,2,1,1,0.5"],
         r"checkpoint\.csv: f and g networks must share one layout"),
    ],
    ids=["no-variant", "variant-nm", "exp-with-delta-scale", "exp-with-nu", "missing-f",
         "repeated-cell", "bad-value-line", "sizes-do-not-chain", "bad-activation",
         "zero-delta-scale", "exp-with-activation", "pro-with-activation-and-delta-scale",
         "key-value-line-with-two-cells", "f-and-g-layouts-differ"],
)
def test_malformed_checkpoint_rejected(tmp_path, lines, message):
    path = tmp_path / "checkpoint.csv"
    write_lines(path, lines)
    with pytest.raises(DataFormatError, match=message):
        read_checkpoint(path)


def _long_conversation(bad_line):
    """A conversation of 1,040 turns whose line ``bad_line`` has a bad speaker."""
    turns = 1040
    lines = ["group_id,turn,speaker"] + [f"1,{t},{1 + t % 2}" for t in range(1, turns + 1)]
    lines[bad_line - 1] = f"1,{bad_line - 1},x"
    return lines


# One bad cell per file: (reader, lines, what the error says after "path:").
BAD_CELLS = {
    "rosters": (read_rosters, ["group_id,member,trait", "1,1,0.5", "1,2,tall"],
                "3: cannot parse 'tall' as float"),
    "conversations": (read_conversations, ["group_id,turn,speaker", "1,1,2", "1,two,3"],
                      "3: cannot parse 'two' as int"),
    # numpy before 2.0 parses it through float, with only a DeprecationWarning.
    "float-in-an-int-column": (read_conversations, ["group_id,turn,speaker", "1,1.0,2"],
                               "2: cannot parse '1.0' as int"),
    "scores": (read_true_scores, ["group_id,member,pi,d", "1,1,0.5,0.2", "1,2,0.5,-"],
               "3: cannot parse '-' as float"),
    "checkpoint": (read_checkpoint, EXP_HEAD + ["f,1,1,0,0.0", "f,one,1,1,0.5"] + G_ROWS,
                   "4: cannot parse 'one' as int"),
    "checkpoint-value": (read_checkpoint, EXP_HEAD + ["f,1,1,0,0.0", "f,1,1,1,x"] + G_ROWS,
                         "4: cannot parse 'x' as float"),
    "past-the-first-chunk": (read_conversations, _long_conversation(1031),
                             "1031: cannot parse 'x' as int"),
    "earlier-row-later-column": (read_rosters, ["group_id,member,trait", "1,1,tall", "x,2,0.5"],
                                 "2: cannot parse 'tall' as float"),
    "before-a-later-field-count": (read_rosters, ["group_id,member,trait", "1,1,tall", "1,2"],
                                   "2: cannot parse 'tall' as float"),
    "after-a-blank-row": (read_conversations, ["group_id,turn,speaker", "1,1,2", "", "1,2,x"],
                          "4: cannot parse 'x' as int"),
    # A quoted cell that spans lines is reported at the line its row starts
    # on, not read as the number before its line break.
    "a-cell-with-a-line-break": (read_rosters, ["group_id,member,trait", '1,1,"0.5', '"',
                                                "1,2,0.6", "1,x,0.7"],
                                 "2: a cell holds a line break"),
    "before-a-cell-with-a-line-break": (read_rosters, ["group_id,member,trait", "1,y,0.4",
                                                       '1,2,"0.5', '"'],
                                        "2: cannot parse 'y' as int"),
    # Not read as the number before the line break the file ends on, nor,
    # given as the file's exact text, before the end of a file with no final LF.
    "a-quote-open-at-the-end": (read_rosters, ["group_id,member,trait", "1,1,0.5", '1,2,"0.6'],
                                "3: a cell holds a line break"),
    "a-quote-open-at-the-end-without-lf": (read_rosters,
                                           'group_id,member,trait\n1,1,0.5\n1,2,"0.6',
                                           "3: a cell holds a line break"),
    "an-empty-cell": (read_rosters, ["group_id,member,trait", "1,1,"],
                      "2: cannot parse '' as float"),
    # Python's int and float take these, no writer here writes them.
    "an-underscore-in-an-int": (read_conversations, ["group_id,turn,speaker", "1,1,2", "1,0_2,3"],
                                "3: cannot parse '0_2' as int"),
    "an-underscore-in-a-float": (read_checkpoint, EXP_HEAD + ["f,1,1,0,0.0", "f,1,1,1,0_5"]
                                 + G_ROWS, "4: cannot parse '0_5' as float"),
    "a-space-before-a-float": (read_rosters, ["group_id,member,trait", "1,1, 0.5"],
                               "2: cannot parse ' 0.5' as float"),
    "a-space-after-an-int": (read_conversations, ["group_id,turn,speaker", "1,1,2 "],
                             "2: cannot parse '2 ' as int"),
    "a-full-width-digit": (read_conversations, ["group_id,turn,speaker", "1,1,\uff12"],
                           "2: cannot parse '\uff12' as int"),
}


@pytest.mark.parametrize("name", list(BAD_CELLS))
def test_a_bad_cell_names_its_file_and_line(tmp_path, name):
    reader, lines, message = BAD_CELLS[name]
    path = tmp_path / "file.csv"
    if isinstance(lines, str):
        path.write_text(lines, encoding="utf-8")
    else:
        write_lines(path, lines)
    with pytest.raises(DataFormatError) as error:
        reader(path)
    assert str(error.value) == f"{path}:{message}"


@pytest.mark.parametrize("late_line", [6, 1101])
def test_the_earliest_fault_wins_however_far_the_next_lies(tmp_path, late_line):
    # A bad cell on line 3 and a cell past the csv module's field limit later.
    path = tmp_path / "rosters.csv"
    lines = ["group_id,member,trait"] + [f"1,{k},0.5" for k in range(1, 1201)]
    lines[2] = "1,x,0.5"
    lines[late_line - 1] = f"1,{late_line - 1}," + "1" * 140_000
    write_lines(path, lines)
    with pytest.raises(DataFormatError) as error:
        read_rosters(path)
    assert str(error.value) == f"{path}:3: cannot parse 'x' as int"


def test_split_coverage_mismatch_rejected(tmp_path, dataset):
    write_dataset(tmp_path, dataset)
    paths = split_paths(tmp_path, "train")
    extra = dataset.train + [dataset.test[0]]
    write_rosters(paths["rosters"], extra)
    with pytest.raises(DataFormatError, match="different groups"):
        read_split(tmp_path, "train")


# ------------------------------------------------- the C parse of group files


def test_every_written_group_file_takes_the_c_parse(tmp_path, dataset, monkeypatch):
    # With the general reader gone, a dataset the writer wrote still reads back.
    write_dataset(tmp_path, dataset)

    def general_reader(path, *args, **kwargs):
        raise AssertionError(f"{path} did not take the C parse")

    monkeypatch.setattr(dataio, "_read_table", general_reader)
    for split in ("train", "val", "test"):
        loaded = read_split(tmp_path, split)
        for a, b in zip(loaded, getattr(dataset, split), strict=True):
            np.testing.assert_array_equal(a.roster.traits, b.roster.traits)
            np.testing.assert_array_equal(a.conversation.speakers, b.conversation.speakers)
            np.testing.assert_array_equal(a.scores.inherent, b.scores.inherent)
            np.testing.assert_array_equal(a.scores.memory, b.scores.memory)


def test_a_warning_from_the_c_parse_leaves_the_file_to_the_general_reader(tmp_path, monkeypatch):
    # numpy before 2.0 parses '1.0' in an int column through float, with
    # only a DeprecationWarning.
    path = tmp_path / "conversations.csv"
    write_lines(path, ["group_id,turn,speaker", "1,1,2", "1,2,1"])
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsed through float", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    assert dataio._parse_plain(path, dataio.CONVERSATION_HEADER, (int, int, int)) is None
    np.testing.assert_array_equal(read_conversations(path)[1], [2, 1])


# Cells the fuzz test writes into a group file: numbers only one of Python and
# numpy reads (numpy strips a file separator as whitespace and reads some
# non-ASCII letters as digits), cells neither reads, and a cell past the csv
# field limit.
ODD_CELLS = ("0_2", " 1", "１", "1.0", "+1", '"1"', "nan", "\x00", "\x0c", "\x1c", "\u1170",
             "1" * 140_000)


def _mutate(rng, data: bytes) -> bytes:
    """``data`` with one seeded fault: a bit flip, a cut, CRLF, an odd cell or a row change."""
    if not data:
        return data
    lines = data.decode("utf-8", "surrogateescape").split("\n")
    kind = rng.randrange(9 if len(lines) > 2 else 2)
    if kind == 0:
        at = rng.randrange(len(data))
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    if kind == 1:
        return data[:rng.randrange(len(data))]
    if kind == 2:
        return data.replace(b"\n", b"\r\n")
    # Row k and j lie between the header and what follows the last LF.
    k, j = rng.randrange(1, len(lines) - 1), rng.randrange(1, len(lines) - 1)
    if kind == 3:
        cells = lines[k].split(",")
        c, odd = rng.randrange(len(cells)), rng.choice(ODD_CELLS)
        cells[c] = rng.choice([odd, odd + cells[c], cells[c] + odd])
        lines[k] = ",".join(cells)
    elif kind == 4:
        lines.insert(k, "")
    elif kind == 5:
        lines.insert(k, lines[j])
    elif kind == 6:
        del lines[k]
    else:
        lines[k], lines[j] = lines[j], lines[k]
    return "\n".join(lines).encode("utf-8", "surrogateescape")


def _read_train(directory):
    """``read_split``'s groups as exact bytes, or its DataFormatError text."""
    try:
        groups = read_split(directory, "train")
    except DataFormatError as exc:
        return str(exc)
    out = []
    for g in groups:
        arrays = [g.roster.traits, g.conversation.speakers]
        if g.scores is not None:
            arrays += [g.scores.inherent, g.scores.memory]
        out.append((g.group_id, g.conversation.group_size,
                    [(a.dtype.str, a.tobytes()) for a in arrays]))
    return out


def test_the_c_parse_matches_the_general_reader_on_mutated_files(tmp_path, dataset, monkeypatch):
    write_dataset(tmp_path, dataset)
    files = list(split_paths(tmp_path, "train").values())
    originals = [path.read_bytes() for path in files]
    parse_plain, taken = dataio._parse_plain, set()

    def spy(path, *args):
        columns = parse_plain(path, *args)
        if columns is not None:
            taken.add(path)
        return columns

    rng, diverged, parsed_in_c = random.Random(32), [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for trial in range(600):
            f = rng.randrange(len(files))
            data = originals[f]
            for _ in range(rng.randint(1, 2)):
                data = _mutate(rng, data)
            files[f].write_bytes(data)
            monkeypatch.setattr(dataio, "_parse_plain", spy)
            got = _read_train(tmp_path)
            parsed_in_c += files[f] in taken
            taken.clear()
            monkeypatch.setattr(dataio, "_parse_plain", lambda *args: None)
            want = _read_train(tmp_path)
            if got != want:
                diverged.append((trial, files[f].name, got, want))
            files[f].write_bytes(originals[f])
    assert diverged == []
    # A mutation the C parse takes is where the two could part.
    assert parsed_in_c > 100


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
    rows = report_rows(path)

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
    assert curve_cells(tmp_path / "curves" / "curve_exp_mean.csv")[1] == [2.0] * 39


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

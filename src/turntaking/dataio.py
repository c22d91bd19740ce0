"""CSV readers and writers for every artifact the pipeline exchanges.

All files are UTF-8 with LF line endings and a header row. Floats are
written with repr, which round-trips exactly, so regenerating an artifact
under the same seed reproduces it byte for byte. Indices (groups, members,
turns, layers) are 1-based in files regardless of internal representation.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import os
from pathlib import Path

import numpy as np

from .evaluation import EvalReport, TRUE_VARIANT, boxplot_stats
from .model import Conversation, Roster, ScoreParams
from .neural import DenseNet
from .proclivity import ProclivityCurve
from .synthgen import Group, SynthDataset

SPLITS = ("train", "val", "test")

ROSTER_HEADER = ["group_id", "member", "trait"]
CONVERSATION_HEADER = ["group_id", "turn", "speaker"]
SCORES_HEADER = ["group_id", "member", "pi", "d"]
NET_HEADER = ["layer", "row", "col", "kind", "value"]
HISTORY_HEADER = ["outer_iter", "train_loss", "val_loss"]
REPORT_HEADER = ["trial", "variant", "metric", "group_id", "value"]
SUMMARY_HEADER = ["variant", "metric", "median", "q1", "q3", "lo_whisker", "hi_whisker"]
CURVE_HEADER = ["delta", "value"]

MANIFEST_NAME = "manifest.txt"


class DataFormatError(ValueError):
    """A data file failed structural or numeric validation."""


def _fmt(value) -> str:
    return repr(float(value))


@contextlib.contextmanager
def _open_writer(path):
    """A CSV writer whose file replaces ``path`` only once it is complete.

    Rows go to a temp file in the same directory, which ``os.replace``
    moves into place when the block exits normally. If the block raises,
    the temp file is removed and any previous file at ``path`` is left
    as it was, so an interrupted run never leaves a truncated artifact.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    handle = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with handle:
            yield csv.writer(handle, lineterminator="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_rows(path, expected_header):
    """Yield (line number, fields) per data row, streaming the file."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != expected_header:
                raise DataFormatError(
                    f"{path}: expected header {','.join(expected_header)}, "
                    f"got {','.join(header) if header else 'empty file'}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(expected_header):
                    raise DataFormatError(
                        f"{path}:{lineno}: expected {len(expected_header)} fields, got {len(row)}"
                    )
                yield lineno, row
    except csv.Error as exc:
        raise DataFormatError(f"{path}: malformed CSV ({exc})") from exc


def _parse(path, lineno, raw, kind):
    try:
        return kind(raw)
    except ValueError:
        raise DataFormatError(
            f"{path}:{lineno}: cannot parse {raw!r} as {kind.__name__}"
        ) from None


# -- rosters ----------------------------------------------------------------


def write_rosters(path, groups) -> None:
    with _open_writer(path) as writer:
        writer.writerow(ROSTER_HEADER)
        for group in groups:
            for member, trait in enumerate(group.roster.traits, start=1):
                writer.writerow([group.group_id, member, _fmt(trait)])


def read_rosters(path) -> dict:
    traits: dict = {}
    for lineno, row in _read_rows(path, ROSTER_HEADER):
        gid = _parse(path, lineno, row[0], int)
        member = _parse(path, lineno, row[1], int)
        value = _parse(path, lineno, row[2], float)
        traits.setdefault(gid, []).append((member, value))
    rosters = {}
    for gid, members in traits.items():
        members.sort()
        if [m for m, _ in members] != list(range(1, len(members) + 1)):
            raise DataFormatError(f"{path}: group {gid} members are not 1..N")
        rosters[gid] = Roster(np.array([v for _, v in members]))
    return rosters


# -- conversations ----------------------------------------------------------


def write_conversations(path, groups) -> None:
    with _open_writer(path) as writer:
        writer.writerow(CONVERSATION_HEADER)
        for group in groups:
            for turn, speaker in enumerate(group.conversation.speakers, start=1):
                writer.writerow([group.group_id, turn, int(speaker)])


def read_conversations(path) -> dict:
    sequences: dict = {}
    for lineno, row in _read_rows(path, CONVERSATION_HEADER):
        gid = _parse(path, lineno, row[0], int)
        turn = _parse(path, lineno, row[1], int)
        speaker = _parse(path, lineno, row[2], int)
        sequences.setdefault(gid, []).append((turn, speaker))
    out = {}
    for gid, turns in sequences.items():
        turns.sort()
        if [t for t, _ in turns] != list(range(1, len(turns) + 1)):
            raise DataFormatError(f"{path}: group {gid} turns are not 1..T")
        out[gid] = np.array([s for _, s in turns])
    return out


# -- ground-truth scores ----------------------------------------------------


def write_true_scores(path, groups) -> None:
    with _open_writer(path) as writer:
        writer.writerow(SCORES_HEADER)
        for group in groups:
            if group.scores is None:
                continue
            pairs = zip(group.scores.inherent, group.scores.memory)
            for member, (pi, d) in enumerate(pairs, start=1):
                writer.writerow([group.group_id, member, _fmt(pi), _fmt(d)])


def read_true_scores(path) -> dict:
    rows: dict = {}
    for lineno, row in _read_rows(path, SCORES_HEADER):
        gid = _parse(path, lineno, row[0], int)
        member = _parse(path, lineno, row[1], int)
        pi = _parse(path, lineno, row[2], float)
        d = _parse(path, lineno, row[3], float)
        rows.setdefault(gid, []).append((member, pi, d))
    scores = {}
    for gid, members in rows.items():
        members.sort()
        if [m for m, _, _ in members] != list(range(1, len(members) + 1)):
            raise DataFormatError(f"{path}: group {gid} members are not 1..N")
        scores[gid] = ScoreParams(
            np.array([pi for _, pi, _ in members]),
            np.array([d for _, _, d in members]),
        )
    return scores


# -- dataset directories ----------------------------------------------------


def split_paths(directory, split: str) -> dict:
    base = Path(directory)
    return {
        "rosters": base / f"rosters_{split}.csv",
        "conversations": base / f"conversations_{split}.csv",
        "scores": base / f"scores_{split}.csv",
    }


def write_dataset(directory, dataset: SynthDataset) -> list:
    """All three splits as roster/conversation/score CSVs; returns paths."""
    written = []
    for split in SPLITS:
        groups = getattr(dataset, split)
        paths = split_paths(directory, split)
        write_rosters(paths["rosters"], groups)
        write_conversations(paths["conversations"], groups)
        write_true_scores(paths["scores"], groups)
        written.extend(paths.values())
    return written


def read_split(directory, split: str) -> list:
    """Groups of one split, reassembled from its three CSVs."""
    paths = split_paths(directory, split)
    rosters = read_rosters(paths["rosters"])
    conversations = read_conversations(paths["conversations"])
    scores = read_true_scores(paths["scores"]) if paths["scores"].exists() else {}
    if set(rosters) != set(conversations):
        raise DataFormatError(
            f"{directory}: {split} rosters and conversations cover different groups"
        )
    groups = []
    for gid in sorted(rosters):
        roster = rosters[gid]
        if gid in scores and scores[gid].size != roster.size:
            raise DataFormatError(
                f"{paths['scores']}: group {gid} has scores for {scores[gid].size} "
                f"members, its roster {roster.size}"
            )
        groups.append(
            Group(
                group_id=gid,
                roster=roster,
                scores=scores.get(gid),  # None when ground truth is absent
                conversation=Conversation(conversations[gid], roster.size),
            )
        )
    return groups


def read_dataset(directory) -> SynthDataset:
    return SynthDataset(
        train=read_split(directory, "train"),
        val=read_split(directory, "val"),
        test=read_split(directory, "test"),
    )


# -- network snapshots ------------------------------------------------------


def write_net(path, net: DenseNet) -> None:
    with _open_writer(path) as writer:
        writer.writerow(NET_HEADER)
        for layer, (w, b) in enumerate(zip(net.weights, net.biases), start=1):
            for r in range(w.shape[0]):
                for c in range(w.shape[1]):
                    writer.writerow([layer, r + 1, c + 1, "weight", _fmt(w[r, c])])
            for r in range(b.size):
                writer.writerow([layer, r + 1, 0, "bias", _fmt(b[r])])


def read_net(path, activation: str = "tanh") -> DenseNet:
    weight_cells: dict = {}
    bias_cells: dict = {}
    for lineno, row in _read_rows(path, NET_HEADER):
        layer = _parse(path, lineno, row[0], int)
        r = _parse(path, lineno, row[1], int)
        c = _parse(path, lineno, row[2], int)
        kind = row[3]
        value = _parse(path, lineno, row[4], float)
        if kind == "weight":
            weight_cells.setdefault(layer, {})[(r, c)] = value
        elif kind == "bias":
            bias_cells.setdefault(layer, {})[r] = value
        else:
            raise DataFormatError(f"{path}:{lineno}: unknown kind {kind!r}")
    if not weight_cells or sorted(weight_cells) != list(range(1, len(weight_cells) + 1)):
        raise DataFormatError(f"{path}: layers are not 1..L")
    weights, biases = [], []
    for layer in sorted(weight_cells):
        cells = weight_cells[layer]
        n_out = max(r for r, _ in cells)
        n_in = max(c for _, c in cells)
        if len(cells) != n_out * n_in:
            raise DataFormatError(f"{path}: layer {layer} weight matrix has holes")
        w = np.empty((n_out, n_in))
        for (r, c), value in cells.items():
            w[r - 1, c - 1] = value
        b = np.zeros(n_out)
        for r, value in bias_cells.get(layer, {}).items():
            if not 1 <= r <= n_out:
                raise DataFormatError(f"{path}: layer {layer} bias row {r} out of range")
            b[r - 1] = value
        weights.append(w)
        biases.append(b)
    return DenseNet(weights=tuple(weights), biases=tuple(biases), activation=activation)


# -- fit history ------------------------------------------------------------


def write_history(path, history) -> None:
    with _open_writer(path) as writer:
        writer.writerow(HISTORY_HEADER)
        for outer, train_loss, val_loss in history:
            writer.writerow([int(outer), _fmt(train_loss), _fmt(val_loss)])


def read_history(path) -> list:
    rows = []
    for lineno, row in _read_rows(path, HISTORY_HEADER):
        rows.append(
            (
                _parse(path, lineno, row[0], int),
                _parse(path, lineno, row[1], float),
                _parse(path, lineno, row[2], float),
            )
        )
    return rows


# -- experiment reports -----------------------------------------------------


def _report_variants(report: EvalReport) -> list:
    return [TRUE_VARIANT, *report.config.variants]


def write_report(path, report: EvalReport) -> None:
    """Per-group and aggregate losses, one row per report cell.

    Aggregates use group_id "all": the turn-weighted means under the plain
    metric names plus raw across-group sums under *_sum. Failed cells get a
    single row with metric "failed" and the diagnostic as the value.
    """
    with _open_writer(path) as writer:
        writer.writerow(REPORT_HEADER)
        for trial_result in report.trials:
            for variant in _report_variants(report):
                if variant in trial_result.failures:
                    writer.writerow(
                        [trial_result.trial, variant, "failed", "all",
                         trial_result.failures[variant]]
                    )
                    continue
                summary = trial_result.losses.get(variant)
                if summary is None:
                    continue
                for metric in ("nll", "nll_turn"):
                    for row in summary.groups:
                        writer.writerow(
                            [trial_result.trial, variant, metric, row.group_id,
                             _fmt(getattr(row, metric))]
                        )
                    writer.writerow(
                        [trial_result.trial, variant, metric, "all",
                         _fmt(summary.metric(metric))]
                    )
                writer.writerow(
                    [trial_result.trial, variant, "nll_sum", "all", _fmt(summary.nll_sum)]
                )
                writer.writerow(
                    [trial_result.trial, variant, "nll_turn_sum", "all",
                     _fmt(summary.nll_turn_sum)]
                )


def write_summary(path, report: EvalReport) -> None:
    """Boxplot statistics over trial aggregates, failures excluded."""
    with _open_writer(path) as writer:
        writer.writerow(SUMMARY_HEADER)
        for variant in _report_variants(report):
            for metric in ("nll", "nll_turn"):
                values = report.trial_values(variant, metric)
                if not values:
                    continue
                stats = boxplot_stats(values)
                writer.writerow(
                    [variant, metric, _fmt(stats["median"]), _fmt(stats["q1"]),
                     _fmt(stats["q3"]), _fmt(stats["lo_whisker"]),
                     _fmt(stats["hi_whisker"])]
                )


def read_report(path) -> list:
    rows = []
    for lineno, row in _read_rows(path, REPORT_HEADER):
        trial = _parse(path, lineno, row[0], int)
        variant, metric, group_id = row[1], row[2], row[3]
        value = row[4] if metric == "failed" else _parse(path, lineno, row[4], float)
        rows.append((trial, variant, metric, group_id, value))
    return rows


# -- curves -----------------------------------------------------------------


def write_curve(path, curve: ProclivityCurve) -> None:
    with _open_writer(path) as writer:
        writer.writerow(CURVE_HEADER)
        for delta, value in zip(curve.gaps, curve.values):
            writer.writerow([int(delta), _fmt(value)])


def read_curve(path) -> ProclivityCurve:
    gaps, values = [], []
    for lineno, row in _read_rows(path, CURVE_HEADER):
        gaps.append(_parse(path, lineno, row[0], int))
        values.append(_parse(path, lineno, row[1], float))
    return ProclivityCurve(gaps=np.array(gaps), values=np.array(values))


def write_curves(directory, report: EvalReport) -> list:
    """Per-trial and trial-averaged curve files under curves/."""
    curve_dir = Path(directory) / "curves"
    curve_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for trial_result in report.trials:
        for variant in _report_variants(report):
            curve = trial_result.curves.get(variant)
            if curve is None:
                continue
            path = curve_dir / f"curve_{variant}_trial{trial_result.trial}.csv"
            write_curve(path, curve)
            written.append(path)
    for variant in _report_variants(report):
        if any(variant in t.curves for t in report.trials):
            path = curve_dir / f"curve_{variant}_mean.csv"
            write_curve(path, report.mean_curve(variant))
            written.append(path)
    return written


# -- run manifests ----------------------------------------------------------


def append_manifest(directory, entries: dict) -> Path:
    """Append key=value lines; each run block is timestamped."""
    path = Path(directory) / MANIFEST_NAME
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "a", encoding="utf-8", newline="") as handle:
        handle.write(f"# run {stamp}\n")
        for key, value in entries.items():
            handle.write(f"{key}={value}\n")
    return path


def read_manifest(directory) -> list:
    """Run blocks of a directory's manifest, oldest first, as key -> value dicts.

    Values stay strings. A directory without a manifest has no blocks.
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.is_file():
        return []
    blocks = []
    with open(path, encoding="utf-8", newline="") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if line.startswith("# run "):
                blocks.append({})
                continue
            key, sep, value = line.partition("=")
            if not sep or not blocks:
                raise DataFormatError(f"{path}:{lineno}: expected key=value inside a run block")
            blocks[-1][key] = value
    return blocks


def ensure_out_dir(directory) -> Path:
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    if not os.access(path, os.W_OK):
        raise OSError(f"output directory {path} is not writable")
    return path

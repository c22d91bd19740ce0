"""CSV readers and writers for every artifact the pipeline exchanges.

All files are UTF-8 with LF line endings and a header row. Floats are
written with repr, which round-trips exactly, so regenerating an artifact
under the same seed reproduces it byte for byte. Indices (groups, members,
turns, layers) are 1-based in files regardless of internal representation.
"""

from __future__ import annotations

import array
import contextlib
import csv
import datetime
import itertools
import os
from pathlib import Path

import numpy as np

from .evaluation import EvalReport, TRUE_VARIANT, boxplot_stats
from .model import Conversation, Roster, ScoreParams
from .neural import DenseNet
from .proclivity import LearnedProclivity, ProclivityCurve, by_name
from .synthgen import Group, SynthDataset
from .training import LEARNABLE_VARIANTS, PROCLIVITY_KINDS, ModelBundle

SPLITS = ("train", "val", "test")

ROSTER_HEADER = ["group_id", "member", "trait"]
CONVERSATION_HEADER = ["group_id", "turn", "speaker"]
SCORES_HEADER = ["group_id", "member", "pi", "d"]
CHECKPOINT_HEADER = ["net", "layer", "row", "col", "value"]
HISTORY_HEADER = ["outer_iter", "train_loss", "val_loss"]
REPORT_HEADER = ["trial", "variant", "metric", "group_id", "value"]
SUMMARY_HEADER = ["variant", "metric", "median", "q1", "q3", "lo_whisker", "hi_whisker"]
CURVE_HEADER = ["delta", "value"]

MANIFEST_NAME = "manifest.txt"
CHECKPOINT_NAME = "checkpoint.csv"


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


# Rows parsed per chunk: one ``map`` per column parses a chunk as fast as a
# loop over its cells, and only one chunk of raw strings is held at a time.
# Reading 40,000 conversation rows (three splits, 20 groups of 8 x 2000
# turns) raised the peak RSS by 5.5 MB when each file was parsed whole, by
# 2.6 MB in chunks of 4096 rows and by 1.9-2.2 MB in chunks of 1024, about
# what the row-by-row parse it replaced took (1.9-2.0 MB).
CHUNK_ROWS = 1024


def _read_table(path, header, kinds, meta: dict | None = None):
    """Every data row of a CSV file, parsed column by column: ``(lines, columns)``.

    ``lines`` holds each row's line number and ``columns[k]`` its cells of
    column k, parsed by ``kinds[k]`` (``int``, ``float`` or ``str``). The
    file is streamed CHUNK_ROWS rows at a time. The first cell that does not
    parse, in file order, is reported with its line, and before any wrong
    field count on a later row. Blank rows are skipped. Leading
    ``# key=value`` lines go into ``meta`` when it is given.
    """
    # Line numbers as machine integers: a list would hold an int object per row.
    lines, columns = array.array("q"), [[] for _ in kinds]

    def add(numbers, rows):
        try:
            for column, kind, cells in zip(columns, kinds, zip(*rows)):
                column.extend(map(kind, cells))
        except ValueError:
            for lineno, row in zip(numbers, rows):
                for raw, kind in zip(row, kinds):
                    _parse(path, lineno, raw, kind)
            raise
        lines.extend(numbers)

    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            first = next(reader, None)
            while meta is not None and first and first[0].startswith("# "):
                key, _, meta[key] = first[0][2:].partition("=")
                first = next(reader, None)
            if first != header:
                got = ",".join(first) if first else "empty file"
                if got.startswith("\ufeff"):
                    got = f"{got[1:]} after a UTF-8 byte-order mark; save the file without one"
                raise DataFormatError(f"{path}: expected header {','.join(header)}, got {got}")
            width, start = len(header), reader.line_num + 1
            while chunk := list(itertools.islice(reader, CHUNK_ROWS)):
                numbers = range(start, start + len(chunk))
                start += len(chunk)
                if set(map(len, chunk)) != {width}:  # blank rows, or a wrong field count
                    numbers = list(itertools.compress(numbers, chunk))
                    chunk = list(filter(None, chunk))
                    for k, row in enumerate(chunk):
                        if len(row) != width:
                            add(numbers[:k], chunk[:k])
                            raise DataFormatError(
                                f"{path}:{numbers[k]}: expected {width} fields, got {len(row)}"
                            )
                add(numbers, chunk)
    except csv.Error as exc:
        raise DataFormatError(f"{path}: malformed CSV ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} cannot be decoded)"
        ) from None
    return lines, columns


@contextlib.contextmanager
def _group_values(path, gid):
    """Report a group's file values that a model type rejects as a format error.

    ``OverflowError`` is an integer too wide for numpy to hold.
    """
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: group {gid}: {exc}") from None


def _parse(path, lineno, raw, kind):
    try:
        return kind(raw)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: cannot parse {raw!r} as {kind.__name__}") from None


def _read_groups(path, header, kinds, build, unordered: str) -> dict:
    """``build`` over each group's value columns, in the order of its rows' indices.

    Column 0 is the group id and column 1 the row's 1-based index in its
    group; ``unordered`` ends the error for a group whose indices are not
    1..n. Groups come in the order of their first row.
    """
    _, (gids, index, *values) = _read_table(path, header, kinds)
    rows: dict = {}
    for gid, run in itertools.groupby(range(len(gids)), gids.__getitem__):
        rows.setdefault(gid, []).extend(run)
    out = {}
    for gid, ks in rows.items():
        ks.sort(key=index.__getitem__)
        if list(map(index.__getitem__, ks)) != list(range(1, len(ks) + 1)):
            raise DataFormatError(f"{path}: group {gid} {unordered}")
        with _group_values(path, gid):
            out[gid] = build(*(np.array(list(map(column.__getitem__, ks))) for column in values))
    return out


# -- rosters ----------------------------------------------------------------


def write_rosters(path, groups) -> None:
    with _open_writer(path) as writer:
        writer.writerow(ROSTER_HEADER)
        for group in groups:
            for member, trait in enumerate(group.roster.traits, start=1):
                writer.writerow([group.group_id, member, _fmt(trait)])


def read_rosters(path) -> dict:
    return _read_groups(path, ROSTER_HEADER, (int, int, float), Roster, "members are not 1..N")


# -- conversations ----------------------------------------------------------


def write_conversations(path, groups) -> None:
    with _open_writer(path) as writer:
        writer.writerow(CONVERSATION_HEADER)
        for group in groups:
            for turn, speaker in enumerate(group.conversation.speakers, start=1):
                writer.writerow([group.group_id, turn, int(speaker)])


def read_conversations(path) -> dict:
    return _read_groups(
        path, CONVERSATION_HEADER, (int, int, int), lambda speakers: speakers, "turns are not 1..T"
    )


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
    return _read_groups(
        path, SCORES_HEADER, (int, int, float, float), ScoreParams, "members are not 1..N"
    )


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
    unknown = sorted(set(scores) - set(rosters))
    if unknown:
        raise DataFormatError(f"{paths['scores']}: group {unknown[0]} has scores but no roster")
    groups = []
    for gid in sorted(rosters):
        roster = rosters[gid]
        if gid in scores and scores[gid].size != roster.size:
            raise DataFormatError(
                f"{paths['scores']}: group {gid} has scores for {scores[gid].size} "
                f"members, its roster {roster.size}"
            )
        with _group_values(paths["conversations"], gid):
            conversation = Conversation(conversations[gid], roster.size)
        groups.append(
            Group(
                group_id=gid,
                roster=roster,
                scores=scores.get(gid),  # None when ground truth is absent
                conversation=conversation,
            )
        )
    return groups


def read_dataset(directory) -> SynthDataset:
    return SynthDataset(**{split: read_split(directory, split) for split in SPLITS})


# -- fit checkpoints --------------------------------------------------------


def write_checkpoint(path, bundle: ModelBundle) -> None:
    """A fitted bundle as one CSV that loads without any other settings.

    ``# key=value`` lines give the variant, the activation and, for ``pro``,
    ``delta_scale``. One row per parameter follows; column 0 is the bias.
    """
    nets = {"f": bundle.f_net, "g": bundle.g_net}
    meta = {"variant": bundle.variant, "activation": bundle.f_net.activation}
    if bundle.learns_proclivity:
        nets["nu"] = bundle.proclivity.net
        meta["delta_scale"] = _fmt(bundle.proclivity.delta_scale)
    with _open_writer(path) as writer:
        writer.writerows([f"# {key}={value}"] for key, value in meta.items())
        writer.writerow(CHECKPOINT_HEADER)
        for name, net in nets.items():
            for layer, (w, b) in enumerate(zip(net.weights, net.biases), start=1):
                for r, row in enumerate(np.column_stack([b, w]), start=1):
                    writer.writerows([name, layer, r, c, _fmt(v)] for c, v in enumerate(row))


def _net_from_cells(path, name: str, layers: dict, activation: str) -> DenseNet:
    if sorted(layers) != list(range(1, len(layers) + 1)):
        raise DataFormatError(f"{path}: net {name} layers are not 1..L")
    weights, biases = [], []
    for layer in sorted(layers):
        cells = layers[layer]
        rows, cols = max(r for r, _ in cells), max(c for _, c in cells)
        if cols < 1 or set(cells) != {(r, c) for r in range(1, rows + 1) for c in range(cols + 1)}:
            raise DataFormatError(f"{path}: net {name} layer {layer} cells are not 1..R x 0..C")
        matrix = np.array([[cells[r, c] for c in range(cols + 1)] for r in range(1, rows + 1)])
        biases.append(matrix[:, 0].copy())
        weights.append(matrix[:, 1:].copy())
    sizes = [1] + [w.shape[0] for w in weights]
    if [w.shape[1] for w in weights] != sizes[:-1] or sizes[-1] != 1:
        raise DataFormatError(f"{path}: net {name} layer sizes {sizes} do not chain 1 -> 1")
    try:
        return DenseNet(weights=tuple(weights), biases=tuple(biases), activation=activation)
    except ValueError as exc:
        raise DataFormatError(f"{path}: net {name}: {exc}") from None


def read_checkpoint(path) -> ModelBundle:
    """The bundle ``write_checkpoint`` wrote; needs no other settings."""
    meta, nets = {}, {}
    lines, columns = _read_table(path, CHECKPOINT_HEADER, (str, int, int, int, float), meta)
    for lineno, name, layer, r, c, value in zip(lines, *columns):
        cells = nets.setdefault(name, {}).setdefault(layer, {})
        if (r, c) in cells:
            raise DataFormatError(f"{path}:{lineno}: repeated cell")
        cells[r, c] = value
    pro = meta.get("variant") == "pro"
    keys = {"variant", "activation"} | ({"delta_scale"} if pro else set())
    names = {"f", "g"} | ({"nu"} if pro else set())
    if meta.get("variant") not in LEARNABLE_VARIANTS or set(meta) != keys or set(nets) != names:
        raise DataFormatError(
            f"{path}: expected a pro or exp checkpoint with keys {sorted(keys)} and nets "
            f"{sorted(names)}, got {meta} and nets {sorted(nets)}"
        )
    net = {name: _net_from_cells(path, name, nets[name], meta["activation"]) for name in names}
    if pro:
        delta_scale = _parse(path, "header", meta["delta_scale"], float)
        try:
            prox = LearnedProclivity(net=net["nu"], delta_scale=delta_scale)
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
    else:
        prox = by_name(PROCLIVITY_KINDS[meta["variant"]])
    return ModelBundle(variant=meta["variant"], proclivity=prox, f_net=net["f"], g_net=net["g"])


# -- fit history ------------------------------------------------------------


def write_history(path, history) -> None:
    with _open_writer(path) as writer:
        writer.writerow(HISTORY_HEADER)
        for outer, train_loss, val_loss in history:
            writer.writerow([int(outer), _fmt(train_loss), _fmt(val_loss)])


def read_history(path) -> list:
    _, columns = _read_table(path, HISTORY_HEADER, (int, float, float))
    return list(zip(*columns))


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
    lines, columns = _read_table(path, REPORT_HEADER, (int, str, str, str, str))
    return [
        (trial, variant, metric, group_id,
         raw if metric == "failed" else _parse(path, lineno, raw, float))
        for lineno, trial, variant, metric, group_id, raw in zip(lines, *columns)
    ]


# -- curves -----------------------------------------------------------------


def write_curve(path, curve: ProclivityCurve) -> None:
    with _open_writer(path) as writer:
        writer.writerow(CURVE_HEADER)
        for delta, value in zip(curve.gaps, curve.values):
            writer.writerow([int(delta), _fmt(value)])


def read_curve(path) -> ProclivityCurve:
    _, (gaps, values) = _read_table(path, CURVE_HEADER, (int, float))
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

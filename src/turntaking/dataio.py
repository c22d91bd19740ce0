"""CSV readers and writers for every artifact the pipeline exchanges.

All files are UTF-8 with LF line endings and a header row, and every one is
written by ``_write_table``. Of those the pipeline reads back, a roster,
conversation or score file in exactly the layout the writer gives it is
parsed by numpy's C reader in one pass (``_parse_plain``); every other file,
a checkpoint included, goes through ``_read_table``, row by row, to the same
arrays and messages. Reports, summaries, fit records, histories and curves
are only written. Rows hold Python numbers and strings, never numpy scalars:
the csv module writes a Python float with repr, which round-trips exactly,
so regenerating an artifact under the same seed reproduces it byte for
byte. Indices (groups, members, turns, layers) are 1-based in files
regardless of internal representation.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import io
import itertools
import os
import warnings
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
FITS_HEADER = ["trial", "variant", "stop_reason", "best_outer", "outer_iters", "passes"]
CURVE_HEADER = ["delta", "value"]

MANIFEST_NAME = "manifest.txt"
CHECKPOINT_NAME = "checkpoint.csv"


class DataFormatError(ValueError):
    """A data file failed structural or numeric validation."""


def _write_table(path, header, rows, meta: dict | None = None) -> None:
    """``# key=value`` lines from ``meta``, the header, then ``rows``: ``_read_table``'s twin.

    It goes to a temp file that ``os.replace`` moves onto ``path`` once complete: if
    ``rows`` raises, the temp file is removed and a previous file at ``path`` stays.
    A missing directory is reported by its own name, not the temp file's.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        handle = open(tmp, "w", encoding="utf-8", newline="")
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise type(exc)(
            exc.errno, f"no directory to write {path.name} into", str(path.parent)
        ) from None
    try:
        with handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerows([f"# {key}={value}"] for key, value in (meta or {}).items())
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _text(path) -> str:
    """A file's whole text; a file that is not UTF-8 is refused as a whole, at no line."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} cannot be decoded)"
        ) from None


def _read_table(path, header, kinds, meta: dict | None = None):
    """Every data row of a CSV file, parsed column by column: ``(lines, columns)``.

    ``lines`` holds each row's line number and ``columns[k]`` its cells of
    column k, parsed by ``kinds[k]`` (``int``, ``float`` or ``str``). Rows
    are checked in file order, so the fault on the earliest line is the one
    reported, text the csv module cannot read included: a cell with a line
    break (at the line its row starts on), then a wrong field count, then a
    cell that does not parse. Blank rows are skipped. Leading ``# key=value``
    lines, one cell each, go into ``meta`` when it is given.
    """
    lines, columns = [], [[] for _ in kinds]
    text = _text(path)  # ended by LF, a quote left open on the last line holds a line break
    reader = csv.reader(io.StringIO(text if text.endswith("\n") else text + "\n", newline=""))
    try:
        first = next(reader, None)
        while meta is not None and first and first[0].startswith("# "):
            if len(first) != 1:
                raise DataFormatError(
                    f"{path}:{reader.line_num}: expected one '# key=value' cell, got {len(first)}")
            key, _, meta[key] = first[0][2:].partition("=")
            first = next(reader, None)
        if first != header:
            got = ",".join(first) if first else "empty file"
            if got.startswith("\ufeff"):
                got = f"{got[1:]} after a UTF-8 byte-order mark; save the file without one"
            raise DataFormatError(f"{path}: expected header {','.join(header)}, got {got}")
        width = len(header)
        while True:
            lineno = reader.line_num + 1
            row = next(reader, None)
            if row is None:
                return lines, columns
            if not row:
                continue
            # A row that spans lines, or a quote left open at the end of the file.
            if reader.line_num != lineno or row[-1].endswith(("\n", "\r")):
                raise DataFormatError(f"{path}:{lineno}: a cell holds a line break")
            if len(row) != width:
                raise DataFormatError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            for column, kind, raw in zip(columns, kinds, row):
                column.append(_parse(path, lineno, raw, kind))
            lines.append(lineno)
    except csv.Error as exc:
        raise DataFormatError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from exc


@contextlib.contextmanager
def _group_values(path, gid):
    """Report a group's file values that a model type rejects as a format error."""
    try:
        yield
    except ValueError as exc:
        raise DataFormatError(f"{path}: group {gid}: {exc}") from None


def _parse(path, lineno, raw, kind):
    try:
        # Python's int and float also take "_", whitespace and non-ASCII digits:
        # no writer writes them.
        if kind is not str and not (raw.isascii() and raw.strip() == raw and "_" not in raw):
            raise ValueError
        return kind(raw)
    except ValueError:
        raise DataFormatError(f"{path}:{lineno}: cannot parse {raw!r} as {kind.__name__}") from None


def _arrays(path, lines, columns, kinds) -> list:
    """Each column as one array of its kind; an integer past int64 is reported at its line."""
    try:
        return [np.array(column, dtype=kind) for column, kind in zip(columns, kinds)]
    except OverflowError:
        wide = np.iinfo(np.int64)
        for lineno, row in zip(lines, zip(*columns)):
            for cell in row:
                if isinstance(cell, int) and not wide.min <= cell <= wide.max:
                    raise DataFormatError(
                        f"{path}:{lineno}: group {row[0]}: {cell} does not fit in a 64-bit integer"
                    ) from None
        raise


# The bytes of a file ``_write_groups`` wrote: printable ASCII but space and '"',
# and LF. numpy's parse strips spaces around a number, where ``_parse`` refuses them.
_PLAIN = bytes(range(33, 127)).replace(b'"', b"") + b"\n"


def _parse_plain(path, header, kinds):
    """A group table's columns as arrays, parsed in one C pass, or None.

    Only a file in the exact layout ``_write_groups`` writes is parsed here:
    the header line, then at least one row, every line printable ASCII with
    no space or '"', no longer than the csv module's field limit and ended by LF, and
    numpy's parse giving one row per line with no error or warning. Any
    other file is None, for ``_read_table``, whose values and messages are
    the reference. Past ASCII numpy would part from Python's int and float:
    it strips control characters such as \\x1c as spaces and reads some
    non-ASCII letters as digits.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data.translate(None, _PLAIN) or not data.startswith(f"{','.join(header)}\n".encode()):
        return None
    limit, start = csv.field_size_limit(), 0
    while start + limit < len(data):  # a line past the limit leaves limit + 1 bytes without LF
        start = data.rfind(b"\n", start, start + limit + 1) + 1
        if not start:
            return None
    rows = data.count(b"\n") - 1
    if rows < 1:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(io.StringIO(data.decode()), dtype=list(zip(header, kinds)),
                               delimiter=",", comments=None, skiprows=1, ndmin=1)
    except (ValueError, Warning):
        return None
    if table.size != rows:  # a blank line, skipped, or a last line without LF
        return None
    return [np.ascontiguousarray(table[name]) for name in header]


def _read_groups(path, header, kinds, build, unordered: str) -> dict:
    """``build`` over each group's slice of the value columns, groups in file order.

    Column 0 is the group id and column 1 the row's 1-based index in its
    group. Each group must be one run of rows in index order, as
    ``_write_groups`` writes it; the first row out of place is reported at
    its line, ``unordered`` saying what its group's indices are not. The
    columns come from ``_parse_plain`` when it takes the file, else from
    ``_read_table``: the same arrays either way.
    """
    columns = _parse_plain(path, header, kinds)
    if columns is None:
        lines, columns = _read_table(path, header, kinds)
        columns = _arrays(path, lines, columns, kinds)
    else:
        lines = range(2, 2 + columns[0].size)
    gids, index, *values = columns
    starts = np.flatnonzero(np.diff(gids, prepend=~gids[:1]))  # ~g != g: row 0 starts a run
    bounds = [*starts.tolist(), gids.size]
    out = {}
    for gid, start, stop in zip(gids[starts].tolist(), bounds, bounds[1:]):
        wrong = np.flatnonzero(index[start:stop] != np.arange(1, stop - start + 1))
        if gid in out or wrong.size:
            line = lines[start if gid in out else start + wrong[0]]
            raise DataFormatError(f"{path}:{line}: group {gid} {unordered} in one run")
        with _group_values(path, gid):
            out[gid] = build(*(column[start:stop] for column in values))
    return out


def _write_groups(path, header, groups, values) -> None:
    """The twin of ``_read_groups``: group id, 1-based index, ``values(group)``'s cells."""
    _write_table(path, header, itertools.chain.from_iterable(
        zip(itertools.repeat(group.group_id), itertools.count(1),
            *(column.tolist() for column in values(group)))
        for group in groups
    ))


# -- rosters ----------------------------------------------------------------


def write_rosters(path, groups) -> None:
    _write_groups(path, ROSTER_HEADER, groups, lambda group: [group.roster.traits])


def read_rosters(path) -> dict:
    return _read_groups(path, ROSTER_HEADER, (int, int, float), Roster, "members are not 1..N")


# -- conversations ----------------------------------------------------------


def write_conversations(path, groups) -> None:
    _write_groups(path, CONVERSATION_HEADER, groups, lambda group: [group.conversation.speakers])


def read_conversations(path) -> dict:
    return _read_groups(
        path, CONVERSATION_HEADER, (int, int, int), lambda speakers: speakers, "turns are not 1..T"
    )


# -- ground-truth scores ----------------------------------------------------


def write_true_scores(path, groups) -> None:
    """Every group's true scores, or the header alone when no group has any."""
    missing = [group.group_id for group in groups if group.scores is None]
    if missing and len(missing) < len(groups):
        raise ValueError(f"group {missing[0]} has no true scores but other groups do: "
                         "a scores file holds every group's or none")
    _write_groups(path, SCORES_HEADER, [] if missing else groups,
                  lambda group: [group.scores.inherent, group.scores.memory])


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
    """Groups of one split, reassembled from its three CSVs; a scores file
    with any rows must cover every group."""
    paths = split_paths(directory, split)
    rosters = read_rosters(paths["rosters"])
    conversations = read_conversations(paths["conversations"])
    scores = read_true_scores(paths["scores"]) if paths["scores"].exists() else {}
    if set(rosters) != set(conversations):
        raise DataFormatError(
            f"{directory}: {split} rosters and conversations cover different groups"
        )
    if scores and set(scores) != set(rosters):
        gid = min(set(scores) ^ set(rosters))
        has = "scores but no roster" if gid in scores else "a roster but no scores"
        raise DataFormatError(f"{paths['scores']}: group {gid} has {has}")
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
                scores=scores.get(gid),  # None when the split has no ground truth
                conversation=conversation,
            )
        )
    return groups


# -- fit checkpoints --------------------------------------------------------


def write_checkpoint(path, bundle: ModelBundle) -> None:
    """A fitted bundle as one CSV that loads without any other settings.

    One ``# variant=`` line, then one row per parameter; column 0 is the
    bias. The nets' layout is read from the rows: every net has tanh hidden
    units, and nu sees the gap over ``GAP_SCALE``.
    """
    nets = {"f": bundle.f_net, "g": bundle.g_net}
    if bundle.learns_proclivity:
        nets["nu"] = bundle.proclivity.net
    _write_table(path, CHECKPOINT_HEADER, (
        [name, layer, r, c, v]
        for name, net in nets.items()
        for layer, (w, b) in enumerate(zip(net.weights, net.biases), start=1)
        for r, row in enumerate(np.column_stack([b, w]).tolist(), start=1)
        for c, v in enumerate(row)
    ), {"variant": bundle.variant})


def _net_from_cells(path, name: str, layers: dict) -> DenseNet:
    if sorted(layers) != list(range(1, len(layers) + 1)):
        raise DataFormatError(f"{path}: net {name} layers are not 1..L")
    weights, biases = [], []
    for layer in sorted(layers):
        cells = layers[layer]
        rows, cols = max(r for r, _ in cells), max(c for _, c in cells)
        if set(cells) != {(r, c) for r in range(1, rows + 1) for c in range(cols + 1)}:
            raise DataFormatError(f"{path}: net {name} layer {layer} cells are not 1..R x 0..C")
        matrix = np.array([[cells[r, c] for c in range(cols + 1)] for r in range(1, rows + 1)])
        biases.append(matrix[:, 0].copy())
        weights.append(matrix[:, 1:].copy())
    try:
        return DenseNet(weights=tuple(weights), biases=tuple(biases))
    except ValueError as exc:
        raise DataFormatError(f"{path}: net {name}: {exc}") from None


def read_checkpoint(path) -> ModelBundle:
    """The bundle ``write_checkpoint`` wrote; needs no other settings.

    A header with any key but ``variant`` is refused: an older file names
    its hidden units' function and its gap scale there, and this code runs
    tanh and 1/20 only.
    """
    meta, nets = {}, {}
    lines, columns = _read_table(path, CHECKPOINT_HEADER, (str, int, int, int, float), meta)
    for lineno, name, layer, r, c, value in zip(lines, *columns):
        cells = nets.setdefault(name, {}).setdefault(layer, {})
        if (r, c) in cells:
            raise DataFormatError(f"{path}:{lineno}: repeated cell")
        cells[r, c] = value
    variant = meta.get("variant")
    names = {"f", "g"} | ({"nu"} if variant == "pro" else set())
    if variant not in LEARNABLE_VARIANTS or set(meta) != {"variant"} or set(nets) != names:
        raise DataFormatError(
            f"{path}: expected a pro or exp checkpoint with keys ['variant'] and nets "
            f"{sorted(names)}, got {meta} and nets {sorted(nets)}"
        )
    net = {name: _net_from_cells(path, name, nets[name]) for name in names}
    prox = LearnedProclivity(net=net["nu"]) if "nu" in net else by_name(PROCLIVITY_KINDS[variant])
    try:
        return ModelBundle(variant=variant, proclivity=prox, f_net=net["f"], g_net=net["g"])
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


# -- fit history ------------------------------------------------------------


def write_history(path, history) -> None:
    """``FitResult.history``; a ``None`` val_loss (no validation split) is an empty cell."""
    _write_table(path, HISTORY_HEADER, history)


# -- experiment reports -----------------------------------------------------


def _report_variants(report: EvalReport) -> list:
    return [TRUE_VARIANT, *report.config.variants]


def write_report(path, report: EvalReport) -> None:
    """Per-group and aggregate losses, one row per report cell.

    Aggregates use group_id "all": the turn-weighted means under the plain
    metric names plus raw across-group sums under *_sum. Failed cells get a
    single row with metric "failed" and the diagnostic as the value.
    """
    def rows():
        for trial_result in report.trials:
            for variant in _report_variants(report):
                cell = trial_result.trial, variant
                if variant in trial_result.failures:
                    yield *cell, "failed", "all", trial_result.failures[variant]
                elif (summary := trial_result.losses.get(variant)) is not None:
                    for metric in ("nll", "nll_turn"):
                        for row in summary.groups:
                            yield *cell, metric, row.group_id, getattr(row, metric)
                        yield *cell, metric, "all", summary.metric(metric)
                    yield *cell, "nll_sum", "all", summary.nll_sum
                    yield *cell, "nll_turn_sum", "all", summary.nll_turn_sum

    _write_table(path, REPORT_HEADER, rows())


def write_summary(path, report: EvalReport) -> None:
    """Boxplot statistics over trial aggregates, failures excluded."""
    _write_table(path, SUMMARY_HEADER, (
        [variant, metric, *map(boxplot_stats(values).get, SUMMARY_HEADER[2:])]
        for variant in _report_variants(report)
        for metric in ("nll", "nll_turn")
        if (values := report.trial_values(variant, metric))
    ))


def write_fits(path, report: EvalReport) -> None:
    """One row per trial and fitted variant: its ``FitRecord``. A fit that
    raised has no row; the report holds its failure."""
    _write_table(path, FITS_HEADER, (
        [trial_result.trial, variant, *trial_result.fits[variant]]
        for trial_result in report.trials
        for variant in report.config.variants
        if variant in trial_result.fits
    ))


# -- curves -----------------------------------------------------------------


def write_curve(path, curve: ProclivityCurve) -> None:
    _write_table(path, CURVE_HEADER, zip(curve.gaps.tolist(), curve.values.tolist()))


def write_curves(directory, report: EvalReport) -> list:
    """Per-trial curve files under curves/, and trial-averaged ones when the
    report holds more than one trial: one trial's mean is its own curve."""
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
    if len(report.trials) == 1:
        return written
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
    for lineno, line in enumerate(io.StringIO(_text(path), newline=""), start=1):
        line = line.rstrip("\n").removesuffix("\r")
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

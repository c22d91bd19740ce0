"""Command-line front end for dataset generation, fitting, and experiments.

Settings resolve in three layers: built-in defaults, then a flat key=value
config file (``--config``), then explicit command-line flags. ``_KEYS``
declares each setting once, with the one parser its config line and its flag
share; range rules are the config dataclasses'. Every command writes into
``--out`` and appends a manifest block recording its artifacts and the
resolved settings it read: ``generate`` the data keys and ``seed``; ``fit``
``seed``, ``max_outer`` and ``val_groups`` (its validation groups; at 0 it
stops on the train loss); ``eval`` ``proclivity`` (the dataset's),
``variants`` and ``curve_files``; ``experiment`` every key. A key set twice
in one config file is an error. The nets are not configured: ``fit`` and
``experiment`` build them at ``neural.DEFAULT_HIDDEN``, and ``eval`` takes a
fit's layout from its checkpoint. Nor are the stop rules'
``training.PATIENCE`` and ``training.PLATEAU``. ``eval`` and ``experiment``
score a trial alike and write ``curves/``; ``experiment`` also writes
``fits.csv``, how each fit ended, and its manifest names that file.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import namedtuple
from pathlib import Path

from . import __version__
from .dataio import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    DataFormatError,
    append_manifest,
    ensure_out_dir,
    read_checkpoint,
    read_manifest,
    read_split,
    write_checkpoint,
    write_curves,
    write_dataset,
    write_fits,
    write_history,
    write_report,
    write_summary,
)
from .evaluation import (
    NUMERIC_FAILURES,
    EvalReport,
    ExperimentConfig,
    TrialResult,
    run_experiment,
    score_trial,
    true_model,
)
from .proclivity import FIXED_KINDS, by_name
from .synthgen import SynthConfig, generate_dataset
from .training import (
    FitConfig,
    LEARNABLE_VARIANTS,
    ModelBundle,
    TrainingSet,
    VARIANTS,
    fit,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A config file or flag combination is invalid."""


def _parse_variants(raw: str) -> tuple:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


_Key = namedtuple("_Key", "parse part help")

# Every config key with its parser, the part of ExperimentConfig that holds it
# ("synth", "fit", or None for the top level) and its help text, in manifest
# order. Defaults and range rules live in those dataclasses.
_KEYS = {
    "train_groups": _Key(int, "synth", "training groups"),
    "val_groups": _Key(int, "synth", "validation groups"),
    "test_groups": _Key(int, "synth", "test groups"),
    "members": _Key(int, "synth", "members per group"),
    "turns": _Key(int, "synth", "turns per conversation"),
    "proclivity": _Key(str, "synth", f"generating proclivity: {', '.join(sorted(FIXED_KINDS))}"),
    "trials": _Key(int, "synth", "number of independent trials"),
    "seed": _Key(int, "synth", "master seed for all randomness"),
    "max_outer": _Key(int, "fit", "outer iteration cap"),
    "variants": _Key(_parse_variants, None, f"comma-separated variants of {', '.join(VARIANTS)}"),
}


def _keys_in(part: str) -> tuple:
    return tuple(key for key, spec in _KEYS.items() if spec.part == part)


def _field(key: str) -> str:
    """The attribute holding a key within its part of ExperimentConfig."""
    return "master_seed" if key == "seed" else key


def _parse(key: str, raw: str, where: str = ""):
    """A key's value from its text; ``where`` (a config file's ``path:line: ``) leads any error."""
    try:
        return _KEYS[key].parse(raw)
    except ValueError:
        raise ConfigError(f"{where}cannot parse {raw!r} for key {key!r}") from None


def read_config(path) -> dict:
    """Parse a flat key=value file; unknown or repeated keys and bad values are errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    settings = {}
    set_on = {}
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} cannot be decoded)"
        ) from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{path}:{lineno}: "
        if "=" not in stripped:
            raise ConfigError(f"{where}expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"{where}unknown key {key!r}")
        if key in set_on:
            raise ConfigError(
                f"{where}key {key!r} is set again (first set on line {set_on[key]})"
            )
        set_on[key] = lineno
        settings[key] = _parse(key, raw, where)
    return settings


def resolve_settings(args) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    settings = {}
    if getattr(args, "config", None) is not None:
        settings.update(read_config(args.config))
    for key in _KEYS:
        raw = getattr(args, key, None)
        if raw is not None:
            settings[key] = _parse(key, raw)
    return settings


def experiment_config(settings: dict) -> ExperimentConfig:
    parts = {"synth": {}, "fit": {}, None: {}}
    for key, value in settings.items():
        parts[_KEYS[key].part][_field(key)] = value
    try:
        return ExperimentConfig(
            synth=SynthConfig(**parts["synth"]), fit=FitConfig(**parts["fit"]), **parts[None]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _config_value(value):
    """A setting as a config file writes it: tuples comma-separated."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else value


def _manifest_entries(command: str, config: ExperimentConfig, keys, extra: dict) -> dict:
    """The command, the settings it read (``keys``) as ``config`` holds them, then ``extra``."""
    entries = {"command": command, "version": __version__}
    for key in keys:
        part = _KEYS[key].part
        value = getattr(getattr(config, part) if part else config, _field(key))
        entries[key] = _config_value(value)
    return {**entries, **extra}


def _agree(settings: dict, recorded: dict, source) -> dict:
    """Settings overlaid by what an artifact recorded; explicit ones must agree with it."""
    for key, value in recorded.items():
        if settings.get(key, value) != value:
            raise ConfigError(
                f"{key}={settings[key]} conflicts with {key}={value} recorded in {source}"
            )
    return {**settings, **recorded}


# -- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.trial < 1:
        raise ConfigError(f"--trial must be at least 1, got {args.trial}")
    config = experiment_config(resolve_settings(args))
    out = ensure_out_dir(args.out)
    dataset = generate_dataset(config.synth, trial=args.trial)
    written = write_dataset(out, dataset)
    append_manifest(
        out,
        _manifest_entries(
            "generate", config, _keys_in("synth"),
            {"trial": args.trial, "artifacts": ",".join(p.name for p in written)},
        ),
    )
    log.info("wrote %d files to %s", len(written), out)
    return EXIT_OK


def _nonempty_split(data, split: str, command: str) -> list:
    """A split that ``command`` needs at least one group of."""
    groups = read_split(data, split)
    if not groups:
        raise DataFormatError(f"{data}: the {split} split has no groups; {command} needs one")
    return groups


def cmd_fit(args) -> int:
    if args.variant not in LEARNABLE_VARIANTS:
        raise ConfigError(f"variant {args.variant!r} has no learnable parameters; nothing to fit")
    config = experiment_config(resolve_settings(args))
    train = _nonempty_split(args.data, "train", "fit")
    val = read_split(args.data, "val")
    training_set = TrainingSet(
        [(g.roster, g.conversation) for g in train],
        [(g.roster, g.conversation) for g in val],
    )
    bundle = ModelBundle.make(args.variant, seed=config.synth.master_seed)
    result = fit(bundle, training_set, config.fit)
    out = ensure_out_dir(args.out)
    write_checkpoint(out / CHECKPOINT_NAME, result.bundle)
    write_history(out / "history.csv", result.history)
    append_manifest(
        out,
        _manifest_entries(
            "fit", config, ("seed", *_keys_in("fit")),
            {"variant": args.variant, "data": args.data, "val_groups": len(val),
             "best_outer": result.best_outer, "stop_reason": result.stop_reason,
             "passes": result.passes},
        ),
    )
    # With no validation split, the history's val_loss cells are empty.
    scored = "validation loss" if val else "train loss (no validation split)"
    log.info(
        "fit %s: %d outer iterations (stopped on %s), %d likelihood passes, "
        "best %s %.6f at iteration %d",
        args.variant, len(result.history) - 1, result.stop_reason, result.passes, scored,
        min(row[2 if val else 1] for row in result.history), result.best_outer,
    )
    return EXIT_OK


def _load_checkpoint(variant: str, directory) -> ModelBundle:
    """A fit's bundle, whose rows give its layout; its variant must be ``variant``."""
    path = Path(directory) / CHECKPOINT_NAME
    if not path.is_file():
        raise ConfigError(f"missing checkpoint file for {variant}: {path}")
    bundle = read_checkpoint(path)
    _agree({"variant": variant}, {"variant": bundle.variant}, path)
    return bundle


def _with_dataset_proclivity(settings: dict, data) -> dict:
    """Take the generating proclivity from the dataset's manifest.

    The last ``generate`` block of the manifest names the proclivity the
    true scores were sampled under. An explicit setting must agree with it;
    without a recorded value only an explicit setting gives it.
    """
    generated = [b for b in read_manifest(data) if b.get("command") == "generate"]
    recorded = {"proclivity": b["proclivity"] for b in generated[-1:] if "proclivity" in b}
    return _agree(settings, recorded, Path(data) / MANIFEST_NAME)


def cmd_eval(args) -> int:
    settings = _with_dataset_proclivity(resolve_settings(args), args.data)
    config = experiment_config(settings)
    checkpoints = {}
    for item in args.checkpoint or []:
        variant, sep, directory = item.partition("=")
        if not sep or variant not in LEARNABLE_VARIANTS:
            raise ConfigError(
                f"--checkpoint takes VARIANT=DIR with VARIANT in {LEARNABLE_VARIANTS}, got {item!r}"
            )
        if variant in checkpoints:
            raise ConfigError(
                f"--checkpoint names {variant} twice: {checkpoints[variant]} and {directory}"
            )
        checkpoints[variant] = directory
    unused = sorted(set(checkpoints) - set(config.variants))
    if unused:
        raise ConfigError(f"--checkpoint given for variants that are not evaluated: {unused}")
    test = _nonempty_split(args.data, "test", "eval")

    truth = None
    if all(g.scores is not None for g in test):
        if "proclivity" not in settings:
            raise ConfigError(
                f"{args.data}: the test split has true scores but no proclivity is recorded "
                "in its manifest or set in --config, so the true model cannot be scored"
            )
        truth = true_model(test, by_name(config.synth.proclivity))
    bundles = {}
    for variant in config.variants:
        if variant in LEARNABLE_VARIANTS:
            if variant not in checkpoints:
                raise ConfigError(f"variant {variant!r} needs --checkpoint {variant}=DIR")
            bundles[variant] = _load_checkpoint(variant, checkpoints[variant])
        else:
            bundles[variant] = ModelBundle.make(variant)

    trial = score_trial(TrialResult(trial=1), test, truth, bundles)
    report = EvalReport(config=config, trials=[trial])
    out = ensure_out_dir(args.out)
    write_report(out / "report.csv", report)
    write_summary(out / "summary.csv", report)
    curve_files = write_curves(out, report)
    append_manifest(
        out,
        _manifest_entries(
            "eval", config, ("proclivity", "variants"),
            {"data": args.data,
             "checkpoints": ",".join(f"{k}={v}" for k, v in sorted(checkpoints.items())),
             "curve_files": len(curve_files)},
        ),
    )
    # A variant whose evaluation failed numerically is one failed report cell.
    if trial.failures:
        print(f"numeric failure: variants {', '.join(trial.failures)} failed; see report.csv",
              file=sys.stderr)
        return EXIT_NUMERIC
    log.info("wrote report.csv, summary.csv and %d curve files to %s", len(curve_files), out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    if args.parallel_trials < 1:
        raise ConfigError(f"--parallel-trials must be at least 1, got {args.parallel_trials}")
    config = experiment_config(resolve_settings(args))
    report = run_experiment(config, parallel=args.parallel_trials)
    out = ensure_out_dir(args.out)
    write_report(out / "report.csv", report)
    write_summary(out / "summary.csv", report)
    write_fits(out / "fits.csv", report)
    curve_files = write_curves(out, report)
    append_manifest(
        out,
        _manifest_entries(
            "experiment", config, _KEYS,
            {"parallel_trials": args.parallel_trials, "fits": "fits.csv",
             "curve_files": len(curve_files)},
        ),
    )
    # A trial fails as a whole only when its data generation fails; a failed
    # fit is one report cell, logged by the trial.
    failed = [t.trial for t in report.trials if t.failed]
    if failed:
        log.warning("trials whose data generation failed: %s", failed)
    if len(failed) == len(report.trials):
        print("error: data generation failed in every trial", file=sys.stderr)
        return EXIT_NUMERIC
    log.info("experiment complete: %d/%d trials ok, outputs in %s",
             len(report.trials) - len(failed), len(report.trials), out)
    return EXIT_OK


# -- parser ------------------------------------------------------------------


# Each subcommand: its function, its help line and the keys it also takes as
# flags (``--max-outer`` for ``max_outer``); every key can be set in --config.
_COMMANDS = {
    "generate": (cmd_generate, "write a synthetic dataset",
                 ("seed", "proclivity", "members", "turns")),
    "fit": (cmd_fit, "fit a learnable variant on a dataset", ("seed", "max_outer")),
    "eval": (cmd_eval, "score variants and write their curves on a test split", ("variants",)),
    "experiment": (cmd_experiment, "full multi-trial generate/fit/eval run",
                   ("seed", "trials", "turns", "members", "proclivity", "variants")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turntaking",
        description="Model, fit, and simulate turn-taking in group conversations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, about, keys) in _COMMANDS.items():
        command = sub.add_parser(name, help=about)
        command.set_defaults(func=func)
        command.add_argument("--config", type=Path, metavar="FILE",
                             help="key=value settings file")
        command.add_argument("--out", type=Path, required=True, metavar="DIR",
                             help="output directory")
        # Setting flags hold raw text: resolve_settings parses them as config lines.
        for key in keys:
            command.add_argument(f"--{key.replace('_', '-')}", help=_KEYS[key].help)

    parsers = sub.choices
    parsers["generate"].add_argument("--trial", type=int, default=1,
                                     help="trial index selecting the random substream (default 1)")
    parsers["fit"].add_argument("--data", type=Path, required=True, metavar="DIR",
                                help="dataset directory from generate")
    parsers["fit"].add_argument("--variant", required=True, choices=VARIANTS)
    parsers["eval"].add_argument("--data", type=Path, required=True, metavar="DIR")
    parsers["eval"].add_argument("--checkpoint", action="append", metavar="VARIANT=DIR",
                                 help="fitted checkpoint directory (repeatable)")
    parsers["experiment"].add_argument("--parallel-trials", type=int, default=1, metavar="N",
                                       help="number of concurrent trial workers (default 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end for dataset generation, fitting, and experiments.

Settings resolve in three layers: built-in defaults, then a flat key=value
config file (``--config``), then explicit command-line flags. Every command
writes into ``--out`` and appends a manifest block recording its artifacts
and the resolved settings it read: ``generate`` the data keys and ``seed``;
``fit`` ``seed`` and the fit and network keys; ``eval`` ``proclivity`` (the
dataset's) and ``variants``; ``curve`` ``proclivity``, ``curve_lo`` and
``curve_hi``; ``experiment`` every key.

Exit codes: 0 success, 2 usage or config problem, 3 I/O failure,
4 numeric failure (divergent fit or degenerate probabilities).
"""

from __future__ import annotations

import argparse
import logging
import sys
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
    write_curve,
    write_curves,
    write_dataset,
    write_history,
    write_report,
    write_summary,
)
from .evaluation import (
    NUMERIC_FAILURES,
    EvalReport,
    ExperimentConfig,
    TRUE_VARIANT,
    TrialResult,
    TrueModel,
    evaluate,
    model_curve,
    run_experiment,
    true_model,
)
from .proclivity import by_name
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


def _parse_hidden(raw: str) -> tuple:
    try:
        sizes = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse hidden layer sizes {raw!r}") from None
    if not sizes or min(sizes) < 1:
        raise ConfigError(f"hidden layer sizes must be positive: {raw!r}")
    return sizes


def _parse_variants(raw: str) -> tuple:
    variants = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise ConfigError(f"unknown variants: {sorted(unknown)}")
    if not variants:
        raise ConfigError("variant list is empty")
    return variants


# Every config key with its parser and the part of ExperimentConfig that holds
# it ("synth", "fit", or None for the top level), in manifest order. Defaults
# live in those dataclasses.
_KEYS = {
    "groups_total": (int, "synth"),
    "train_groups": (int, "synth"),
    "val_groups": (int, "synth"),
    "test_groups": (int, "synth"),
    "members": (int, "synth"),
    "turns": (int, "synth"),
    "trait_low": (float, "synth"),
    "trait_high": (float, "synth"),
    "proclivity": (str, "synth"),
    "trials": (int, "synth"),
    "seed": (int, "synth"),
    "step": (float, "fit"),
    "max_outer": (int, "fit"),
    "score_epochs": (int, "fit"),
    "proclivity_epochs": (int, "fit"),
    "patience": (int, "fit"),
    "clip_norm": (float, "fit"),
    "hidden": (_parse_hidden, None),
    "delta_scale": (float, None),
    "activation": (str, None),
    "variants": (_parse_variants, None),
    "curve_lo": (int, None),
    "curve_hi": (int, None),
}


def _keys_in(part: str) -> tuple:
    return tuple(key for key, (_, where) in _KEYS.items() if where == part)


def _field(key: str) -> str:
    """The attribute holding a key within its part of ExperimentConfig."""
    return "master_seed" if key == "seed" else key


def read_config(path) -> dict:
    """Parse a flat key=value file; unknown keys and bad values are errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    settings = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                settings[key] = _KEYS[key][0](raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: cannot parse {raw!r} for key {key!r}"
                ) from None
    return settings


def resolve_settings(args) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    settings = {}
    if getattr(args, "config", None) is not None:
        settings.update(read_config(args.config))
    for key, (parser, _) in _KEYS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = parser(flag) if isinstance(flag, str) else flag
    return settings


def experiment_config(settings: dict) -> ExperimentConfig:
    parts = {"synth": {}, "fit": {}, None: {}}
    for key, value in settings.items():
        parts[_KEYS[key][1]][_field(key)] = value
    try:
        return ExperimentConfig(
            synth=SynthConfig(**parts["synth"]), fit=FitConfig(**parts["fit"]), **parts[None]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _manifest_entries(command: str, config: ExperimentConfig, keys, extra: dict) -> dict:
    """The command, the settings it read (``keys``) as ``config`` holds them, then ``extra``."""
    entries = {"command": command, "version": __version__}
    for key in keys:
        part = _KEYS[key][1]
        value = getattr(getattr(config, part) if part else config, _field(key))
        entries[key] = ",".join(map(str, value)) if isinstance(value, tuple) else value
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


def cmd_fit(args) -> int:
    if args.variant not in LEARNABLE_VARIANTS:
        raise ConfigError(f"variant {args.variant!r} has no learnable parameters; nothing to fit")
    config = experiment_config(resolve_settings(args))
    train = read_split(args.data, "train")
    val = read_split(args.data, "val")
    training_set = TrainingSet(
        [(g.roster, g.conversation) for g in train],
        [(g.roster, g.conversation) for g in val],
    )
    bundle = ModelBundle.make(
        args.variant,
        seed=config.synth.master_seed,
        hidden=config.hidden,
        delta_scale=config.delta_scale,
        activation=config.activation,
    )
    result = fit(bundle, training_set, config.fit)
    out = ensure_out_dir(args.out)
    write_checkpoint(out / CHECKPOINT_NAME, result.bundle)
    write_history(out / "history.csv", result.history)
    append_manifest(
        out,
        _manifest_entries(
            "fit", config, ("seed", *_keys_in("fit"), "hidden", "delta_scale", "activation"),
            {"variant": args.variant, "data": args.data,
             "best_outer": result.best_outer, "stop_reason": result.stop_reason},
        ),
    )
    log.info(
        "fit %s: %d outer iterations (stopped on %s), best validation loss %.6f at iteration %d",
        args.variant, len(result.history) - 1, result.stop_reason,
        min(row[2] for row in result.history), result.best_outer,
    )
    return EXIT_OK


def _load_checkpoint(variant: str, directory, settings: dict) -> ModelBundle:
    """A fit's bundle; the variant and any explicit net setting must match the file."""
    path = Path(directory) / CHECKPOINT_NAME
    if not path.is_file():
        raise ConfigError(f"missing checkpoint file for {variant}: {path}")
    bundle = read_checkpoint(path)
    recorded = {"variant": bundle.variant, "activation": bundle.f_net.activation,
                "hidden": bundle.f_net.layer_sizes[1:-1]}
    if bundle.learns_proclivity:
        recorded["delta_scale"] = bundle.proclivity.delta_scale
    _agree({**settings, "variant": variant}, recorded, path)
    return bundle


def _with_dataset_proclivity(settings: dict, data) -> dict:
    """Take the generating proclivity from the dataset's manifest.

    The last ``generate`` block of the manifest names the proclivity the
    true scores were sampled under. An explicit setting must agree with it;
    without a recorded value the setting (or its default) stands.
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
        checkpoints[variant] = directory
    test = read_split(args.data, "test")

    trial = TrialResult(trial=1)
    if all(g.scores is not None for g in test):
        truth = true_model(test, by_name(config.synth.proclivity))
        trial.losses[TRUE_VARIANT] = evaluate(truth, test)
    for variant in config.variants:
        if variant in LEARNABLE_VARIANTS:
            if variant not in checkpoints:
                raise ConfigError(f"variant {variant!r} needs --checkpoint {variant}=DIR")
            bundle = _load_checkpoint(variant, checkpoints[variant], settings)
        else:
            bundle = ModelBundle.make(variant)
        trial.losses[variant] = evaluate(bundle, test)

    report = EvalReport(config=config, trials=[trial])
    out = ensure_out_dir(args.out)
    write_report(out / "report.csv", report)
    write_summary(out / "summary.csv", report)
    append_manifest(
        out,
        _manifest_entries(
            "eval", config, ("proclivity", "variants"),
            {"data": args.data,
             "checkpoints": ",".join(f"{k}={v}" for k, v in sorted(checkpoints.items()))},
        ),
    )
    log.info("wrote report.csv and summary.csv to %s", out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = experiment_config(resolve_settings(args))
    report = run_experiment(config, parallel=args.parallel_trials)
    out = ensure_out_dir(args.out)
    write_report(out / "report.csv", report)
    write_summary(out / "summary.csv", report)
    curve_files = write_curves(out, report)
    append_manifest(
        out,
        _manifest_entries(
            "experiment", config, _KEYS,
            {"parallel_trials": args.parallel_trials, "curve_files": len(curve_files)},
        ),
    )
    failed = [t.trial for t in report.trials if t.failed]
    if failed:
        log.warning("trials with no successful fits: %s", failed)
    if len(failed) == len(report.trials):
        print("error: every trial failed", file=sys.stderr)
        return EXIT_NUMERIC
    log.info("experiment complete: %d/%d trials ok, outputs in %s",
             len(report.trials) - len(failed), len(report.trials), out)
    return EXIT_OK


def cmd_curve(args) -> int:
    settings = resolve_settings(args)
    config = experiment_config(settings)
    if args.variant in LEARNABLE_VARIANTS:
        if args.checkpoint is None:
            raise ConfigError(f"variant {args.variant!r} needs --checkpoint DIR")
        model = _load_checkpoint(args.variant, args.checkpoint, settings)
    elif args.variant == TRUE_VARIANT:
        model = TrueModel(scores_by_group={}, proclivity=by_name(config.synth.proclivity))
    else:
        model = ModelBundle.make(args.variant)
    curve = model_curve(model, gaps=config.curve_gaps)
    out = ensure_out_dir(args.out)
    path = out / f"curve_{args.variant}.csv"
    write_curve(path, curve)
    append_manifest(
        out,
        _manifest_entries(
            "curve", config, ("proclivity", "curve_lo", "curve_hi"),
            {"variant": args.variant, "artifact": path.name},
        ),
    )
    log.info("wrote %s", path)
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def _add_common(parser) -> None:
    parser.add_argument("--config", type=Path, metavar="FILE",
                        help="key=value settings file")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="master seed for all randomness")
    parser.add_argument("--out", type=Path, required=True, metavar="DIR",
                        help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turntaking",
        description="Model, fit, and simulate turn-taking in group conversations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    _add_common(gen)
    gen.add_argument("--proclivity", choices=["exp", "sigmoid"],
                     help="generating proclivity")
    gen.add_argument("--members", type=int, help="members per group")
    gen.add_argument("--turns", type=int, help="turns per conversation")
    gen.add_argument("--trial", type=int, default=1,
                     help="trial index selecting the random substream (default 1)")
    gen.set_defaults(func=cmd_generate)

    fit_p = sub.add_parser("fit", help="fit a learnable variant on a dataset")
    _add_common(fit_p)
    fit_p.add_argument("--data", type=Path, required=True, metavar="DIR",
                       help="dataset directory from generate")
    fit_p.add_argument("--variant", required=True, choices=VARIANTS)
    fit_p.add_argument("--step", type=float, help="gradient step size")
    fit_p.add_argument("--max-outer", dest="max_outer", type=int,
                       help="outer iteration cap")
    fit_p.add_argument("--patience", type=int, help="early-stop patience")
    fit_p.set_defaults(func=cmd_fit)

    eval_p = sub.add_parser("eval", help="evaluate variants on a test split")
    _add_common(eval_p)
    eval_p.add_argument("--data", type=Path, required=True, metavar="DIR")
    eval_p.add_argument("--variants", help="comma-separated variants to evaluate")
    eval_p.add_argument("--checkpoint", action="append", metavar="VARIANT=DIR",
                        help="fitted checkpoint directory (repeatable)")
    eval_p.set_defaults(func=cmd_eval)

    exp = sub.add_parser("experiment", help="full multi-trial generate/fit/eval run")
    _add_common(exp)
    exp.add_argument("--trials", type=int, help="number of independent trials")
    exp.add_argument("--turns", type=int, help="turns per conversation")
    exp.add_argument("--members", type=int, help="members per group")
    exp.add_argument("--proclivity", choices=["exp", "sigmoid"],
                     help="generating proclivity")
    exp.add_argument("--variants", help="comma-separated variants to fit and evaluate")
    exp.add_argument("--parallel-trials", type=int, default=1, metavar="N",
                     help="number of concurrent trial workers (default 1)")
    exp.set_defaults(func=cmd_experiment)

    curve = sub.add_parser("curve", help="export a rescaled proclivity curve")
    _add_common(curve)
    curve.add_argument("--variant", required=True, choices=[*VARIANTS, TRUE_VARIANT])
    curve.add_argument("--checkpoint", type=Path, metavar="DIR",
                       help="fit output directory (pro and exp)")
    curve.add_argument("--proclivity", choices=["exp", "sigmoid"],
                       help="generating proclivity for the true curve")
    curve.set_defaults(func=cmd_curve)

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

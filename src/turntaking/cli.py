"""Command-line front end for dataset generation, fitting, and experiments.

Settings resolve in three layers: built-in defaults, then a flat key=value
config file (``--config``), then explicit command-line flags. Every command
writes into ``--out`` and appends a manifest recording the resolved
settings, so a run can be reproduced from its output directory alone.

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
    MANIFEST_NAME,
    DataFormatError,
    append_manifest,
    ensure_out_dir,
    read_manifest,
    read_net,
    read_split,
    write_curve,
    write_curves,
    write_dataset,
    write_history,
    write_net,
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
from .proclivity import ExpDecayProclivity, LearnedProclivity, by_name
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


# Every recognized config key with its parser; defaults live in the
# dataclasses these feed into.
_KEY_PARSERS = {
    "groups_total": int,
    "train_groups": int,
    "val_groups": int,
    "test_groups": int,
    "members": int,
    "turns": int,
    "trait_low": float,
    "trait_high": float,
    "proclivity": str,
    "trials": int,
    "seed": int,
    "step": float,
    "max_outer": int,
    "score_epochs": int,
    "proclivity_epochs": int,
    "patience": int,
    "eps": float,
    "clip_norm": float,
    "hidden": _parse_hidden,
    "delta_scale": float,
    "activation": str,
    "variants": _parse_variants,
    "curve_lo": int,
    "curve_hi": int,
}

_SYNTH_KEYS = (
    "groups_total", "train_groups", "val_groups", "test_groups",
    "members", "turns", "trait_low", "trait_high", "proclivity", "trials",
)
_FIT_KEYS = (
    "step", "max_outer", "score_epochs", "proclivity_epochs",
    "patience", "eps", "clip_norm",
)
_NET_KEYS = ("hidden", "delta_scale", "activation")


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
            parser = _KEY_PARSERS.get(key)
            if parser is None:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                settings[key] = parser(raw)
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
    for key in _KEY_PARSERS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = _KEY_PARSERS[key](flag) if isinstance(flag, str) else flag
    return settings


def experiment_config(settings: dict) -> ExperimentConfig:
    try:
        synth = SynthConfig(
            master_seed=settings.get("seed", 0),
            **{k: settings[k] for k in _SYNTH_KEYS if k in settings},
        )
        fit_cfg = FitConfig(**{k: settings[k] for k in _FIT_KEYS if k in settings})
        return ExperimentConfig(
            synth=synth,
            fit=fit_cfg,
            variants=settings.get("variants", VARIANTS),
            curve_lo=settings.get("curve_lo", 2),
            curve_hi=settings.get("curve_hi", 40),
            **{k: settings[k] for k in _NET_KEYS if k in settings},
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _manifest_entries(command: str, config: ExperimentConfig, extra: dict | None = None) -> dict:
    entries = {"command": command, "version": __version__}
    entries.update({k: getattr(config.synth, k) for k in _SYNTH_KEYS})
    entries["seed"] = config.synth.master_seed
    entries.update({k: getattr(config.fit, k) for k in _FIT_KEYS})
    entries["hidden"] = ",".join(str(s) for s in config.hidden)
    entries["delta_scale"] = config.delta_scale
    entries["activation"] = config.activation
    entries["variants"] = ",".join(config.variants)
    entries["curve_lo"] = config.curve_lo
    entries["curve_hi"] = config.curve_hi
    if extra:
        entries.update(extra)
    return entries


# -- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    config = experiment_config(resolve_settings(args))
    out = ensure_out_dir(args.out)
    dataset = generate_dataset(config.synth, trial=args.trial)
    written = write_dataset(out, dataset)
    append_manifest(
        out,
        _manifest_entries(
            "generate", config,
            {"trial": args.trial, "artifacts": ",".join(p.name for p in written)},
        ),
    )
    log.info("wrote %d files to %s", len(written), out)
    return EXIT_OK


def _checkpoint_paths(directory) -> dict:
    base = Path(directory)
    return {
        "f": base / "checkpoint_f.csv",
        "g": base / "checkpoint_g.csv",
        "nu": base / "checkpoint_nu.csv",
    }


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
    paths = _checkpoint_paths(out)
    write_net(paths["f"], result.bundle.f_net)
    write_net(paths["g"], result.bundle.g_net)
    if result.bundle.learns_proclivity:
        write_net(paths["nu"], result.bundle.proclivity.net)
    write_history(out / "history.csv", result.history)
    append_manifest(
        out,
        _manifest_entries(
            "fit", config,
            {
                "variant": args.variant,
                "data": args.data,
                "best_outer": result.best_outer,
                "stop_reason": result.stop_reason,
            },
        ),
    )
    log.info(
        "fit %s: %d outer iterations (stopped on %s), best validation loss %.6f at iteration %d",
        args.variant, len(result.history) - 1, result.stop_reason,
        min(row[2] for row in result.history), result.best_outer,
    )
    return EXIT_OK


def _load_checkpoint(variant: str, directory, config: ExperimentConfig) -> ModelBundle:
    paths = _checkpoint_paths(directory)
    for part in ("f", "g") + (("nu",) if variant == "pro" else ()):
        if not paths[part].is_file():
            raise ConfigError(f"missing checkpoint file for {variant}: {paths[part]}")
    f_net = read_net(paths["f"], config.activation)
    g_net = read_net(paths["g"], config.activation)
    if variant == "pro":
        prox = LearnedProclivity(
            net=read_net(paths["nu"], config.activation),
            delta_scale=config.delta_scale,
        )
    else:
        prox = ExpDecayProclivity()
    return ModelBundle(variant=variant, proclivity=prox, f_net=f_net, g_net=g_net)


def _with_dataset_proclivity(settings: dict, data) -> dict:
    """Take the generating proclivity from the dataset's manifest.

    The last ``generate`` block of the manifest names the proclivity the
    true scores were sampled under. An explicit setting must agree with it;
    without a recorded value the setting (or its default) stands.
    """
    generated = [b for b in read_manifest(data) if b.get("command") == "generate"]
    recorded = generated[-1].get("proclivity") if generated else None
    if recorded is None:
        return settings
    explicit = settings.get("proclivity")
    if explicit is not None and explicit != recorded:
        raise ConfigError(
            f"proclivity={explicit} conflicts with proclivity={recorded} "
            f"recorded for the dataset in {Path(data) / MANIFEST_NAME}"
        )
    return {**settings, "proclivity": recorded}


def cmd_eval(args) -> int:
    config = experiment_config(_with_dataset_proclivity(resolve_settings(args), args.data))
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
            bundle = _load_checkpoint(variant, checkpoints[variant], config)
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
            "eval", config,
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
            "experiment", config,
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
    config = experiment_config(resolve_settings(args))
    if args.variant in LEARNABLE_VARIANTS:
        if args.checkpoint is None:
            raise ConfigError(f"variant {args.variant!r} needs --checkpoint DIR")
        model = _load_checkpoint(args.variant, args.checkpoint, config)
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
        _manifest_entries("curve", config, {"variant": args.variant, "artifact": path.name}),
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

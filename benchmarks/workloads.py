"""The benchmark's workloads: inputs built from a seed, one timed unit each.

Every workload is driven from one process in a closed loop with a single
caller: the next unit starts when the previous one has returned. A unit
repeats the same work on the same inputs, so the units of one run must
agree exactly (their digests are compared) and their times are samples of
one quantity. Only public functions of the package are called, always
through the package namespace at call time so that a traced run sees them.

``run_unit`` does only the timed work; ``finish`` then digests and checks
its outputs, outside the timing and outside any tracing.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ORACLE_PREFIX = 200  # turns of one test group checked against the oracle
ORACLE_TOL = 1e-9
ENGINE_TOL = 1e-9  # evaluate() vs the fit history's train loss
ANALYTIC_TOL = 1e-12

# Stream purposes for the groups the benchmark builds itself.
SHAPES, TRAITS, CONVERSATION, FIT = 0, 1, 2, 3


@dataclass
class Unit:
    """What one timed unit produced, and what ``finish`` found in it."""

    seconds: float
    times: dict  # named wall times of the unit's parts, in seconds
    outputs: dict  # the package's return values, for ``finish``
    quality: dict = field(default_factory=dict)  # (variant, metric) -> test loss
    digest: str = ""
    checks: list = field(default_factory=list)  # (name, ok, detail)
    extra: dict = field(default_factory=dict)


class Digest:
    """SHA-256 over the numeric outputs of a unit, in a fixed order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, label: str, values) -> None:
        self._h.update(label.encode())
        self._h.update(np.ascontiguousarray(np.asarray(values, dtype=float)).tobytes())

    def add_net(self, label: str, net) -> None:
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            self.add(f"{label}.w{i}", w)
            self.add(f"{label}.b{i}", b)

    def add_summary(self, label: str, summary) -> None:
        self.add(label, [summary.nll, summary.nll_turn, summary.nll_sum, summary.nll_turn_sum])
        self.add(label + ".groups", [[g.group_id, g.nll, g.nll_turn, g.turns] for g in summary.groups])

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _check(checks, name, ok, detail=""):
    checks.append((name, bool(ok), detail))


def build_group(tt, seed, gid, members, turns, proclivity):
    """One synthetic group from its own substreams of the workload seed."""
    roster = tt.Roster(tt.substream(seed, gid, TRAITS).uniform(0.1, 1.0, size=members))
    scores = tt.traits_to_scores(roster)
    conv = tt.sample_conversation(scores, proclivity, turns, tt.substream(seed, gid, CONVERSATION))
    return tt.Group(group_id=gid, roster=roster, scores=scores, conversation=conv)


def oracle_check(tt, oracle, checks, group, proclivity):
    """The truth's NLL on a prefix of one group, package against oracle."""
    speakers = group.conversation.speakers[:ORACLE_PREFIX]
    prefix = tt.Group(
        group_id=group.group_id,
        roster=group.roster,
        scores=group.scores,
        conversation=tt.Conversation(speakers, group.conversation.group_size),
    )
    got = tt.evaluate(tt.true_model([prefix], proclivity), [prefix]).nll
    want = oracle.nll(
        [float(x) for x in group.scores.inherent],
        [float(x) for x in group.scores.memory],
        proclivity,
        [int(s) for s in speakers],
        group.conversation.group_size,
    )
    _check(checks, "oracle_prefix_nll", abs(got - want) <= ORACLE_TOL, f"package {got!r} oracle {want!r}")


def nm_expected(members: int, turns: int) -> float:
    """Per-turn NLL of the uniform no-memory model: 1/N first, then 1/(N-1)."""
    return math.log(members - 1) + (math.log(members) - math.log(members - 1)) / turns


def _quality(summaries) -> dict:
    return {
        (variant, metric): summary.metric(metric)
        for variant, summary in summaries.items()
        for metric in ("nll", "nll_turn")
    }


class PaperExp:
    """One ``run_experiment`` trial at the paper's default settings."""

    name = "paper_exp"
    why = (
        "north-star unit: one run_experiment trial at paper defaults (exp world, 10/5/5 groups "
        "of 5 members x 800 turns, all four variants, default FitConfig); fitting is ~90% of it "
        "and every train group shares one stack shape"
    )
    loads = ["synthgen/model sampling", "model stack building", "training.fit", "neural",
             "evaluation.evaluate", "evaluation.model_curve", "evaluation.run_experiment"]
    idle = ["dataio"]
    unit_label = "trial_s"

    def __init__(self, tt, oracle, seed: int, workdir: Path):
        self.tt, self.oracle, self.seed = tt, oracle, seed
        self.config = tt.ExperimentConfig(synth=tt.SynthConfig(trials=1, master_seed=seed))
        synth = self.config.synth
        self.oracle_group = build_group(
            tt, seed, 0, synth.members, ORACLE_PREFIX, tt.by_name(synth.proclivity)
        )

    def warm_up(self) -> None:
        tt = self.tt
        small = tt.ExperimentConfig(
            synth=tt.SynthConfig(trials=1, turns=100, master_seed=self.seed),
            fit=tt.FitConfig(max_outer=5),
        )
        tt.run_experiment(small)

    def run_unit(self) -> Unit:
        start = time.perf_counter()
        report = self.tt.run_experiment(self.config)
        seconds = time.perf_counter() - start
        return Unit(seconds, {"trial_s": seconds}, {"report": report})

    def finish(self, unit: Unit) -> None:
        tt, synth = self.tt, self.config.synth
        report = unit.outputs["report"]
        digest = Digest()
        for trial in report.trials:
            for variant in sorted(trial.losses):
                digest.add_summary(f"{trial.trial}.{variant}", trial.losses[variant])
            for variant in sorted(trial.curves):
                digest.add(f"{trial.trial}.{variant}.curve", trial.curves[variant].values)
            _check(unit.checks, "trial_has_no_failures", not trial.failures, repr(trial.failures))
            nm = trial.losses.get("nm")
            want = nm_expected(synth.members, synth.turns)
            _check(unit.checks, "nm_nll_analytic",
                   nm is not None and abs(nm.nll - want) <= ANALYTIC_TOL,
                   f"nm {nm.nll if nm else None!r} analytic {want!r}")
        oracle_check(tt, self.oracle, unit.checks, self.oracle_group, tt.by_name(synth.proclivity))
        unit.digest = digest.hexdigest()
        for variant in ("true", "pro", "exp"):
            for metric in ("nll", "nll_turn"):
                values = report.trial_values(variant, metric)
                if values:
                    unit.quality[(variant, metric)] = float(np.median(values))


class RaggedSigmoid:
    """``fit`` of pro and exp on groups that all differ in size and length."""

    name = "ragged_sigmoid"
    why = (
        "sigmoid world with 16/8/8 groups of 3-8 members and 200-1600 turns, every train group "
        "its own (T, N) stack, fit of pro and exp capped at 30 outer iterations: the training "
        "layer runs as many small batches"
    )
    loads = ["training.fit (16 stacks)", "neural", "model stack building",
             "evaluation.evaluate"]
    idle = ["dataio", "evaluation.run_experiment", "sampling (only in set-up)"]
    unit_label = "fit_round_s"

    SPLITS = (("train", 16), ("val", 8), ("test", 8))
    T_RANGE = (200, 1600)
    MEMBERS = (3, 8)
    MAX_OUTER = 30

    def __init__(self, tt, oracle, seed: int, workdir: Path):
        self.tt, self.oracle, self.seed = tt, oracle, seed
        self.proclivity = tt.SigmoidProclivity()
        shapes_rng = tt.substream(seed, 0, SHAPES)
        self.splits = {}
        gid = 1
        for split, count in self.SPLITS:
            # One length per stratum of T_RANGE and a fixed member-count
            # cycle over the strata keep the total work steady across seeds,
            # while every group still gets its own (T, N) shape.
            lo, hi = self.T_RANGE
            width = (hi - lo) // count
            lengths = lo + width * np.arange(count) + shapes_rng.integers(0, width, size=count)
            sizes = np.resize(np.arange(self.MEMBERS[0], self.MEMBERS[1] + 1), count)
            order = shapes_rng.permutation(count)
            groups = []
            for turns, members in zip(lengths[order], sizes[order]):
                groups.append(build_group(tt, seed, gid, int(members), int(turns), self.proclivity))
                gid += 1
            self.splits[split] = groups
        self.training_set = tt.TrainingSet(
            [(g.roster, g.conversation) for g in self.splits["train"]],
            [(g.roster, g.conversation) for g in self.splits["val"]],
        )
        self.fit_config = tt.FitConfig(max_outer=self.MAX_OUTER)
        self.truth = tt.true_model(
            [g for groups in self.splits.values() for g in groups], self.proclivity
        )

    def _bundle(self, variant):
        code = {"pro": 1, "exp": 2}[variant]
        return self.tt.ModelBundle.make(
            variant, seed=np.random.SeedSequence(self.seed, spawn_key=(FIT, code))
        )

    def warm_up(self) -> None:
        tt = self.tt
        small = tt.TrainingSet(self.training_set.train[:3], self.training_set.val[:1])
        tt.fit(self._bundle("pro"), small, tt.FitConfig(max_outer=3))

    def run_unit(self) -> Unit:
        tt = self.tt
        times, results = {}, {}
        for variant in ("pro", "exp"):
            bundle = self._bundle(variant)
            start = time.perf_counter()
            results[variant] = tt.fit(bundle, self.training_set, self.fit_config)
            times[f"fit_{variant}_s"] = time.perf_counter() - start
        start = time.perf_counter()
        test = self.splits["test"]
        summaries = {
            "true": tt.evaluate(self.truth, test),
            "pro": tt.evaluate(results["pro"].bundle, test),
            "exp": tt.evaluate(results["exp"].bundle, test),
        }
        times["evaluate_s"] = time.perf_counter() - start
        seconds = sum(times.values())
        return Unit(seconds, times, {"fits": results, "test": summaries})

    def finish(self, unit: Unit) -> None:
        tt = self.tt
        results, summaries = unit.outputs["fits"], unit.outputs["test"]
        digest = Digest()
        for variant in ("true", "pro", "exp"):
            digest.add_summary(variant, summaries[variant])
        val_truth = tt.evaluate(self.truth, self.splits["val"]).nll
        for variant, result in results.items():
            bundle = result.bundle
            digest.add_net(f"{variant}.f", bundle.f_net)
            digest.add_net(f"{variant}.g", bundle.g_net)
            if bundle.learns_proclivity:
                digest.add_net(f"{variant}.nu", bundle.proclivity.net)
            digest.add(f"{variant}.history", result.history)
            best = next(row for row in result.history if row[0] == result.best_outer)
            got = tt.evaluate(bundle, self.splits["train"]).nll
            _check(unit.checks, f"train_nll_matches_history_{variant}",
                   abs(got - best[1]) <= ENGINE_TOL, f"evaluate {got!r} history {best[1]!r}")
            unit.extra[f"val_gap_{variant}"] = best[2] - val_truth
        oracle_check(tt, self.oracle, unit.checks, self.splits["test"][0], self.proclivity)
        unit.digest = digest.hexdigest()
        unit.quality = _quality(summaries)


class SampleEval:
    """Sampling, CSV round trip and scoring, with no fitting at all."""

    name = "sample_eval"
    why = (
        "no fitting: generate 20 groups of 8 members x 2000 turns, write and read them as CSV, "
        "then evaluate true, nm, hm and fresh pro and exp on every group: the per-turn sampling "
        "loop, CSV I/O and the per-turn scoring path"
    )
    loads = ["synthgen/model sampling", "dataio", "model scoring under evaluate",
             "neural.forward", "evaluation.evaluate", "evaluation.model_curve"]
    idle = ["training.fit", "neural.backward/apply_update/clip_gradients",
            "evaluation.run_experiment"]
    unit_label = "pass_s"

    MODELS = ("true", "nm", "hm", "pro", "exp")

    def __init__(self, tt, oracle, seed: int, workdir: Path):
        self.tt, self.oracle, self.seed = tt, oracle, seed
        self.config = tt.SynthConfig(
            groups_total=15, train_groups=10, val_groups=5, test_groups=5,
            members=8, turns=2000, proclivity="exp", trials=1, master_seed=seed,
        )
        self.bundles = {
            variant: tt.ModelBundle.make(
                variant, seed=np.random.SeedSequence(seed, spawn_key=(FIT, code))
            )
            for code, variant in enumerate(("nm", "hm", "pro", "exp"))
        }
        self.directory = workdir / "dataset"

    def warm_up(self) -> None:
        tt = self.tt
        small = tt.SynthConfig(
            groups_total=2, train_groups=1, val_groups=1, test_groups=1,
            members=8, turns=200, trials=1, master_seed=self.seed,
        )
        groups = tt.generate_dataset(small).all_groups
        tt.evaluate(tt.true_model(groups, tt.by_name(small.proclivity)), groups)

    def run_unit(self) -> Unit:
        tt, cfg = self.tt, self.config
        if self.directory.exists():
            shutil.rmtree(self.directory)
        self.directory.mkdir(parents=True)
        times = {}

        start = time.perf_counter()
        dataset = tt.generate_dataset(cfg, 1)
        tt.dataio.write_dataset(self.directory, dataset)
        times["generate_s"] = time.perf_counter() - start

        start = time.perf_counter()
        groups = []
        for split in tt.dataio.SPLITS:
            groups.extend(tt.dataio.read_split(self.directory, split))
        models = dict(self.bundles, true=tt.true_model(groups, tt.by_name(cfg.proclivity)))
        summaries = {name: tt.evaluate(models[name], groups) for name in self.MODELS}
        times["eval_s"] = time.perf_counter() - start

        start = time.perf_counter()
        curves = {name: tt.model_curve(models[name]) for name in self.MODELS}
        times["curve_s"] = time.perf_counter() - start
        seconds = sum(times.values())

        return Unit(seconds, times, {
            "dataset": dataset, "groups": groups, "summaries": summaries, "curves": curves,
        })

    def finish(self, unit: Unit) -> None:
        tt, cfg = self.tt, self.config
        dataset, groups = unit.outputs["dataset"], unit.outputs["groups"]
        summaries, curves = unit.outputs["summaries"], unit.outputs["curves"]
        digest = Digest()
        for g in dataset.all_groups:
            digest.add(f"{g.group_id}.traits", g.roster.traits)
            digest.add(f"{g.group_id}.speakers", g.conversation.speakers)
        for name in self.MODELS:
            digest.add_summary(name, summaries[name])
            digest.add(f"{name}.curve", curves[name].values)
        written = dataset.all_groups
        _check(unit.checks, "csv_round_trip_exact",
               len(groups) == len(written) and all(
                   a.group_id == b.group_id
                   and np.array_equal(a.roster.traits, b.roster.traits)
                   and np.array_equal(a.conversation.speakers, b.conversation.speakers)
                   and np.array_equal(a.scores.inherent, b.scores.inherent)
                   and np.array_equal(a.scores.memory, b.scores.memory)
                   for a, b in zip(groups, written)))
        want = nm_expected(cfg.members, cfg.turns)
        got = summaries["nm"].nll
        _check(unit.checks, "nm_nll_analytic", abs(got - want) <= ANALYTIC_TOL,
               f"nm {got!r} analytic {want!r}")
        oracle_check(tt, self.oracle, unit.checks, groups[-1], tt.by_name(cfg.proclivity))
        unit.digest = digest.hexdigest()
        unit.quality = _quality(summaries)
        turns = sum(len(g.conversation) for g in groups)
        unit.extra["generate_turns_per_s"] = turns / unit.times["generate_s"]
        unit.extra["eval_turns_per_s"] = turns * len(self.MODELS) / unit.times["eval_s"]


WORKLOADS = {w.name: w for w in (PaperExp, RaggedSigmoid, SampleEval)}

"""Span tracing of the turntaking package, applied from outside the package.

``Tracer`` replaces public functions and methods of the package with
wrappers that record one span per call: name, start, end and the index of
the enclosing span. Spans stay in memory until the unit ends and
``layer_metrics`` turns them into per-layer numbers. A function is replaced in every loaded
``turntaking`` module that holds a reference to it, so a name is traced
wherever it is looked up (``evaluation.fit`` as well as ``training.fit``).
Methods are replaced on each class that defines them, which covers the
proclivity ``table`` of every proclivity kind.

Nothing here may fail a benchmark run: problems while patching or reading
spans are collected in ``Tracer.errors`` and reported beside the metrics.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from pathlib import Path

# (span name, defining module, attribute). A dotted attribute names a
# method; the method is wrapped on every class in the module's namespace
# that defines it itself.
TRACED = (
    ("sample_conversation", "turntaking.model", "sample_conversation"),
    ("dataio.write_dataset", "turntaking.dataio", "write_dataset"),
    ("dataio.read_split", "turntaking.dataio", "read_split"),
    ("model.gap_matrix", "turntaking.model", "gap_matrix"),
    ("model.classify_turns", "turntaking.model", "classify_turns"),
    ("model.likelihood_sequence", "turntaking.model", "likelihood_sequence"),
    ("model.nll_loss", "turntaking.model", "nll_loss"),
    ("model.weighted_loss", "turntaking.model", "weighted_loss"),
    ("proclivity.table", "turntaking.proclivity", "*.table"),
    ("training.fit", "turntaking.training", "fit"),
    ("neural.forward", "turntaking.neural", "DenseNet.forward"),
    ("neural.backward", "turntaking.neural", "backward"),
    ("neural.apply_update", "turntaking.neural", "apply_update"),
    ("neural.clip_gradients", "turntaking.neural", "clip_gradients"),
    ("evaluation.run_experiment", "turntaking.evaluation", "run_experiment"),
    ("evaluation.evaluate", "turntaking.evaluation", "evaluate"),
    ("evaluation.model_curve", "turntaking.evaluation", "model_curve"),
)

# Per-layer metrics, in the order they are printed. Counts and busy times
# are per workload unit; ratios and per-call figures are over the unit's
# calls.
LAYER_METRICS = (
    ("sample_conversation.calls", "count"),
    ("sample_conversation.busy_s", "s"),
    ("sample_conversation.us_per_turn", "us"),
    ("dataio.write_dataset.busy_s", "s"),
    ("dataio.write_dataset.bytes", "bytes"),
    ("dataio.read_split.busy_s", "s"),
    ("dataio.read_split.bytes", "bytes"),
    ("model.gap_matrix.calls", "count"),
    ("model.gap_matrix.busy_s", "s"),
    ("model.gap_matrix.under_fit.calls", "count"),
    ("model.gap_matrix.under_fit.busy_s", "s"),
    ("model.gap_matrix.under_evaluate.calls", "count"),
    ("model.gap_matrix.under_evaluate.busy_s", "s"),
    ("model.classify_turns.busy_s", "s"),
    ("model.likelihood_sequence.busy_s", "s"),
    ("model.nll_loss.busy_s", "s"),
    ("model.weighted_loss.busy_s", "s"),
    ("training.fit.calls", "count"),
    ("training.fit.busy_s", "s"),
    ("training.fit.self_s", "s"),
    ("training.fit.outer_iters", "count"),
    ("training.fit.hit_cap_ratio", "ratio"),
    ("training.fit.passes", "count"),
    ("training.fit.self_ms_per_pass", "ms"),
    ("training.fit.stacks", "count"),
    ("training.fit.val_gap.pro", "nats"),
    ("training.fit.val_gap.exp", "nats"),
    ("training.nll_grad.scores_ms", "ms"),
    ("training.nll_grad.proclivity_ms", "ms"),
    ("neural.forward.calls", "count"),
    ("neural.forward.busy_s", "s"),
    ("neural.backward.calls", "count"),
    ("neural.backward.busy_s", "s"),
    ("neural.apply_update.calls", "count"),
    ("neural.apply_update.busy_s", "s"),
    ("neural.clip_gradients.calls", "count"),
    ("neural.clip.fired_ratio", "ratio"),
    ("evaluation.run_experiment.busy_s", "s"),
    ("evaluation.evaluate.calls", "count"),
    ("evaluation.evaluate.busy_s", "s"),
    ("evaluation.evaluate.turns", "count"),
    ("evaluation.model_curve.busy_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

TIME_UNITS = {"s", "ms", "us"}

NAME, START, END, PARENT, INFO = range(5)


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).exists())


def _info_sample(args, kwargs, out):
    return len(out)


def _info_write(args, kwargs, out):
    return _file_bytes(out)


def _info_read(args, kwargs, out):
    from turntaking.dataio import split_paths

    directory = args[0] if args else kwargs["directory"]
    split = args[1] if len(args) > 1 else kwargs["split"]
    return _file_bytes(split_paths(directory, split).values())


def _info_fit(args, kwargs, out):
    from turntaking.training import FitConfig

    config = args[2] if len(args) > 2 else kwargs.get("config")
    config = config or FitConfig()
    training_set = args[1] if len(args) > 1 else kwargs["training_set"]
    outer = len(out.history) - 1 if out.history else 0
    shapes = {(len(conv), conv.group_size) for _, conv in training_set.train}
    return {
        "outer": outer,
        "learned": bool(out.history),
        "hit_cap": bool(out.history) and outer >= config.max_outer,
        "stacks": len(shapes) if out.history else 0,
    }


def _info_clip(args, kwargs, out):
    grad_sets = args[0] if args else kwargs["grad_sets"]
    return any(o is not g for o, g in zip(out, grad_sets))


def _info_evaluate(args, kwargs, out):
    groups = args[1] if len(args) > 1 else kwargs["groups"]
    return sum(len(g.conversation) for g in groups)


INFO_HOOKS = {
    "sample_conversation": _info_sample,
    "dataio.write_dataset": _info_write,
    "dataio.read_split": _info_read,
    "training.fit": _info_fit,
    "neural.clip_gradients": _info_clip,
    "evaluation.evaluate": _info_evaluate,
}


class Tracer:
    """Installs span-recording wrappers and keeps every span in memory."""

    def __init__(self):
        self.spans: list = []
        self.errors: list = []
        self._open: list = []
        self._patched: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, open_stack, errors = self.spans, self._open, self.errors
        hook = INFO_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_stack[-1] if open_stack else -1, None]
            open_stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                open_stack.pop()
            if hook is not None:
                try:
                    span[INFO] = hook(args, kwargs, out)
                except Exception as exc:  # tracing must not fail the run
                    errors.append(f"{name}: info hook failed: {exc!r}")
            return out

        return wrapper

    def _set(self, owner, attribute, value):
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every traced name; names that cannot be found are errors."""
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("turntaking")]
        for name, module_name, attribute in TRACED:
            module = sys.modules.get(module_name)
            if module is None:
                self.errors.append(f"{name}: module {module_name} not loaded")
                continue
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owners = [
                    cls
                    for cls in vars(module).values()
                    if isinstance(cls, type)
                    and cls.__module__ == module_name
                    and (cls_name == "*" or cls.__name__ == cls_name)
                    and method in cls.__dict__
                ]
                if not owners:
                    self.errors.append(f"{name}: no class in {module_name} defines {attribute}")
                for cls in owners:
                    self._set(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                self.errors.append(f"{name}: {module_name}.{attribute} not found")
                continue
            wrapper = self._wrap(name, original)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._set(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        self._open.clear()

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def unreached(self) -> list:
        """Traced names that were installed but never called."""
        called = {span[NAME] for span in self.spans}
        return sorted({name for name, _, _ in TRACED} - called)


def _self_time(spans, children, index) -> float:
    span = spans[index]
    covered = 0.0
    reach = span[START]
    for child in sorted(children.get(index, ()), key=lambda i: spans[i][START]):
        start, end = max(spans[child][START], reach), spans[child][END]
        if end > start:
            covered += end - start
            reach = end
    return span[END] - span[START] - covered


def _under(spans, index, ancestor) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == ancestor:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans, scale: float = 1.0) -> dict:
    """Per-layer figures from the spans of one workload unit.

    Times are multiplied by ``scale``, the unit's factor to the reference
    core speed. The ``training.nll_grad``, ``val_gap`` and ``trace`` metrics
    are not span figures; the benchmark run supplies them.
    """
    by_name: dict = {}
    children: dict = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def busy(indices):
        return sum(spans[i][END] - spans[i][START] for i in indices)

    out = {}
    for name in ("sample_conversation", "model.gap_matrix", "training.fit", "neural.forward",
                 "neural.backward", "neural.apply_update", "neural.clip_gradients",
                 "evaluation.evaluate"):
        out[f"{name}.calls"] = len(idx(name))
    for name in ("sample_conversation", "dataio.write_dataset", "dataio.read_split",
                 "model.gap_matrix", "model.classify_turns", "model.likelihood_sequence",
                 "model.nll_loss", "model.weighted_loss", "training.fit", "neural.forward",
                 "neural.backward", "neural.apply_update", "evaluation.run_experiment",
                 "evaluation.evaluate", "evaluation.model_curve"):
        out[f"{name}.busy_s"] = busy(idx(name))

    turns = sum(spans[i][INFO] or 0 for i in idx("sample_conversation"))
    sampled_busy = busy(idx("sample_conversation"))
    out["sample_conversation.us_per_turn"] = 1e6 * sampled_busy / turns if turns else 0.0
    for name in ("dataio.write_dataset", "dataio.read_split"):
        out[f"{name}.bytes"] = sum(spans[i][INFO] or 0 for i in idx(name))

    for parent, label in (("training.fit", "under_fit"), ("evaluation.evaluate", "under_evaluate")):
        under = [i for i in idx("model.gap_matrix") if _under(spans, i, parent)]
        out[f"model.gap_matrix.{label}.calls"] = len(under)
        out[f"model.gap_matrix.{label}.busy_s"] = busy(under)

    fits = idx("training.fit")
    infos = [spans[i][INFO] for i in fits if spans[i][INFO]]
    learned = [info for info in infos if info["learned"]]
    fit_self = sum(_self_time(spans, children, i) for i in fits)
    passes = sum(1 for i in idx("proclivity.table") if _under(spans, i, "training.fit"))
    out["training.fit.self_s"] = fit_self
    out["training.fit.outer_iters"] = (
        sum(info["outer"] for info in learned) / len(learned) if learned else 0.0
    )
    out["training.fit.hit_cap_ratio"] = (
        sum(info["hit_cap"] for info in learned) / len(learned) if learned else 0.0
    )
    out["training.fit.passes"] = passes
    out["training.fit.self_ms_per_pass"] = 1e3 * fit_self / passes if passes else 0.0
    out["training.fit.stacks"] = (
        sum(info["stacks"] for info in learned) / len(learned) if learned else 0.0
    )

    clips = idx("neural.clip_gradients")
    fired = sum(1 for i in clips if spans[i][INFO])
    out["neural.clip.fired_ratio"] = fired / len(clips) if clips else 0.0
    out["evaluation.evaluate.turns"] = sum(spans[i][INFO] or 0 for i in idx("evaluation.evaluate"))
    for name, unit in LAYER_METRICS:
        if unit in TIME_UNITS and name in out:
            out[name] *= scale
    return out

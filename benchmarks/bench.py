"""Benchmark of the turntaking package: one command, three workloads.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload paper_exp --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):

* ``paper_exp``: one ``run_experiment`` trial at the paper defaults.
* ``ragged_sigmoid``: ``fit`` of pro and exp on 16 train groups that all
  differ in member count and length, sigmoid world, capped iterations.
* ``sample_eval``: generate, write and read CSV, evaluate five models, no
  fitting.

The inputs depend only on ``--seed``. After set-up (the package import
plus three builds of the inputs) and a short untimed warm-up, the workload
repeats one unit of work on the same inputs until the next unit would run
past ``--seconds``; at least one unit always runs. Times are scaled to a
reference core speed by ``speed.SpeedProbe``; raw wall times are recorded
beside them.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics: ``setup_s`` (the package import, with numpy
already loaded, plus the median input build),
``unit_s`` (median seconds per unit), ``peak_rss_mb`` and the fit-quality
ratios ``nll_ratio_pro`` and ``nll_ratio_exp`` (test NLL of the fitted
model over the truth's test NLL; on ``sample_eval`` the models are freshly
initialised). With ``--trace 1`` untraced and traced units alternate, and
the last line holds the per-layer metrics of ``spans.LAYER_METRICS``, with
counts and busy times per traced unit and ``trace.overhead_ratio`` as traced
over untraced unit time.

Every unit is checked (oracle NLL, analytic baselines, engine agreement, no
recorded fit failures) and digested; units of one run must give the same
digest, and so must runs of the same code and seed, which are compared
through ``.bench_out/digests.json``. A fuller record of each run, with the
per-workload times, the gaps to the truth in nats and the environment, goes
to ``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
NLL_GRAD_REPEATS = 15


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import turntaking from this checkout's src/ and tests/oracle.py."""
    src = ROOT / "src"
    oracle_path = ROOT / "tests" / "oracle.py"
    sys.path.insert(0, str(src))
    import turntaking
    import turntaking.dataio  # noqa: F401  (dataio is not imported by the package)

    if Path(turntaking.__file__).resolve().parent != (src / "turntaking").resolve():
        fail_setup(f"imported turntaking from {turntaking.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("bench_oracle", oracle_path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return turntaking, oracle


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD commit read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, loadavg) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # an older numpy has no dict mode
        blas = {"error": repr(exc)}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload_why": workload.why,
        "layers_loaded": workload.loads,
        "layers_idle": workload.idle,
    }


def read_loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


class Counter:
    """Attempted and failed operations; a unit and each check are one each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")


def scale_times(unit, probe) -> float:
    """Replace the unit's wall times by times at the reference core speed.

    Returns the factor applied, which also scales the unit's span times.
    """
    scale = probe.scale
    unit.raw_seconds = unit.seconds
    unit.seconds *= scale
    unit.times = {name: t * scale for name, t in unit.times.items()}
    unit.speed_factor = probe.factor
    return scale


def run_unit(workload, counter: Counter, digests: list):
    """One untraced unit with its checks; errors count as failures."""
    try:
        with speed.SpeedProbe() as probe:
            unit = workload.run_unit()
        scale_times(unit, probe)
        workload.finish(unit)
    except Exception:
        counter.record("unit", False, traceback.format_exc(limit=3))
        return None
    counter.record("unit", True)
    for name, ok, detail in unit.checks:
        counter.record(name, ok, detail)
    if digests:
        counter.record("digest_repeats_within_run", unit.digest == digests[0],
                       f"{unit.digest} != {digests[0]}")
    digests.append(unit.digest)
    return unit


def run_traced_unit(workload, digests: list, errors: list):
    """One unit under a fresh tracer, with its per-layer figures attached.

    Problems here are trace errors, never failures of the run.
    """
    tracer = spans.Tracer()
    try:
        with speed.SpeedProbe() as probe, tracer.installed():
            unit = workload.run_unit()
        scale = scale_times(unit, probe)
        workload.finish(unit)
        unit.layer = spans.layer_metrics(tracer.spans, scale)
        unit.unreached = tracer.unreached()
    except Exception:
        errors.append(traceback.format_exc(limit=3))
        return None
    finally:
        errors.extend(tracer.errors)
    errors.extend(f"traced unit: {name}: {detail}" for name, ok, detail in unit.checks if not ok)
    if digests and unit.digest != digests[0]:
        errors.append(f"traced unit digest {unit.digest} != untraced {digests[0]}")
    return unit


def layer_report(traced, untraced, probe_ms: dict, errors: list) -> dict:
    """Per-layer metrics: span figures averaged over the traced units."""
    layer = {}
    for name in traced[0].layer if traced else ():
        layer[name] = statistics.fmean(u.layer[name] for u in traced)
    layer.update(probe_ms)
    if untraced and traced:
        layer["trace.overhead_ratio"] = (
            statistics.median(u.seconds for u in traced)
            / statistics.median(u.seconds for u in untraced)
        )
    for key in ("pro", "exp"):
        gaps = [u.extra[f"val_gap_{key}"] for u in traced if f"val_gap_{key}" in u.extra]
        layer[f"training.fit.val_gap.{key}"] = statistics.median(gaps) if gaps else 0.0
    missing = [name for name, _ in spans.LAYER_METRICS if name not in layer]
    if missing:
        errors.append(f"metrics not computed: {missing}")
    return {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
            for name, unit in spans.LAYER_METRICS}


def check_digest_store(counter, key: str, digest: str) -> None:
    """Compare with the digest an earlier run of this code and seed stored."""
    path = OUT_DIR / "digests.json"
    try:
        store = json.loads(path.read_text()) if path.exists() else {}
    except (OSError, ValueError):
        store = {}
    if key in store:
        counter.record("digest_repeats_across_runs", store[key] == digest,
                       f"{digest} != stored {store[key]}")
        return
    store[key] = digest
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(path)


def nll_grad_probe(tt, seed: int) -> dict:
    """Median ms of one public gradient call per block on an 800x5 group."""
    from workloads import build_group

    group = build_group(tt, seed, 0, 5, 800, tt.ExpDecayProclivity())
    bundle = tt.ModelBundle.make("pro", seed=seed)
    out = {}
    for block in ("scores", "proclivity"):
        samples = []
        with speed.SpeedProbe() as probe:
            for _ in range(NLL_GRAD_REPEATS):
                start = time.perf_counter()
                tt.conversation_nll_gradients(bundle, group.roster, group.conversation, block)
                samples.append(time.perf_counter() - start)
        out[f"training.nll_grad.{block}_ms"] = 1e3 * probe.scale * statistics.median(samples)
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    loadavg = read_loadavg()
    if not (ROOT / "src" / "turntaking" / "__init__.py").is_file():
        fail_setup(f"no package source under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "tests" / "oracle.py").is_file():
        fail_setup(f"no oracle at {ROOT / 'tests' / 'oracle.py'}; run from a full checkout")

    workload_cls = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        return measure(args, workload_cls, workdir, loadavg)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload_cls, workdir, loadavg) -> int:
    counter = Counter()
    setup_samples = []
    # Set-up is the package's import (numpy is already loaded) plus the
    # median of SETUP_REPEATS input builds.
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        tt, oracle = import_package()
        import_s = time.perf_counter() - start
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = workload_cls(tt, oracle, args.seed, workdir)
            setup_samples.append(time.perf_counter() - start)
    raw_setup_s = import_s + statistics.median(setup_samples)
    setup_s = probe.scale * raw_setup_s
    workload.warm_up()

    digests: list = []
    untraced, traced, trace_errors = [], [], []
    start = time.perf_counter()
    while True:
        unit = run_unit(workload, counter, digests)
        if unit is not None:
            untraced.append(unit)
        if args.trace:
            unit = run_traced_unit(workload, digests, trace_errors)
            if unit is not None:
                traced.append(unit)
        elapsed = time.perf_counter() - start
        per_round = statistics.median(u.raw_seconds for u in untraced) if untraced else elapsed
        if traced:
            per_round += statistics.median(u.raw_seconds for u in traced)
        if not untraced or elapsed + per_round > args.seconds:
            break
    measured_s = time.perf_counter() - start

    if digests:
        key = f"{workload.name}/seed{args.seed}/{source_digest()}"
        check_digest_store(counter, key, digests[0])

    e2e = end_to_end(untraced, setup_s)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": len(untraced),
        "unit_seconds": [u.seconds for u in untraced],
        "raw_unit_seconds": [u.raw_seconds for u in untraced],
        "speed_factors": [u.speed_factor for u in untraced],
        "traced_unit_seconds": [u.seconds for u in traced],
        "traced_units": len(traced),
        "measured_s": measured_s,
        "setup_samples_s": setup_samples,
        "raw_setup_s": raw_setup_s,
        "import_s": import_s,
        "named": named_metrics(workload, untraced, setup_s, counter),
        "digest": digests[0] if digests else None,
        "failures": counter.failures,
        "environment": environment(workload, loadavg),
    }

    if args.trace:
        try:
            metrics = layer_report(traced, untraced, nll_grad_probe(tt, args.seed), trace_errors)
        except Exception:
            trace_errors.append(traceback.format_exc(limit=3))
            metrics = {name: {"value": 0.0, "unit": unit} for name, unit in spans.LAYER_METRICS}
        unreached = [set(u.unreached) for u in traced]
        detail["trace_unreached"] = sorted(set.intersection(*unreached)) if unreached else []
        detail["trace_errors"] = trace_errors
    else:
        metrics = e2e

    record = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    detail["metrics"] = metrics
    record.write_text(json.dumps(detail, indent=1, default=str))

    for name, entry in detail["named"].items():
        print(f"{workload.name} {name} = {entry['value']:.6g} {entry['unit']}")
    if args.trace:
        print(f"unreached traced functions: {', '.join(detail['trace_unreached']) or 'none'}")
        for error in detail["trace_errors"]:
            print(f"trace error: {error}")
    for failure in counter.failures:
        print(f"FAILED {failure}")
    print(f"record: {record.relative_to(ROOT)}")
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if untraced else 1


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(units, variant, metric):
    ratios = [u.quality[(variant, metric)] / u.quality[("true", metric)]
              for u in units if (variant, metric) in u.quality and ("true", metric) in u.quality]
    return _median(ratios)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(units, setup_s) -> dict:
    def metric(value, unit):
        return {"value": float(value), "unit": unit}

    return {
        "setup_s": metric(setup_s, "s"),
        "unit_s": metric(_median([u.seconds for u in units]), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "nll_ratio_pro": metric(_ratio(units, "pro", "nll"), "ratio"),
        "nll_ratio_exp": metric(_ratio(units, "exp", "nll"), "ratio"),
    }


def named_metrics(workload, units, setup_s, counter) -> dict:
    """The workload's own end-to-end figures, by the names the workload uses."""
    out = {
        "setup_s": (setup_s, "s"),
        workload.unit_label: (_median([u.seconds for u in units]), "s"),
    }
    for name in sorted({k for u in units for k in u.times}):
        if name != workload.unit_label:
            out[name] = (_median([u.times[name] for u in units if name in u.times]), "s")
    for name in sorted({k for u in units for k in u.extra if k.endswith("_per_s")}):
        out[name] = (_median([u.extra[name] for u in units]), "1/s")
    for variant in ("pro", "exp"):
        for metric, label in (("nll", "gap"), ("nll_turn", "gap_turn")):
            gaps = [u.quality[(variant, metric)] - u.quality[("true", metric)]
                    for u in units if (variant, metric) in u.quality]
            out[f"{label}_{variant}"] = (_median(gaps), "nats")
        out[f"nll_ratio_{variant}"] = (_ratio(units, variant, "nll"), "ratio")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    out["failed_ratio"] = (counter.failed / max(counter.attempted, 1), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark scripts only call package names that exist.

``benchmarks/`` reaches the package as ``tt`` (``tt.fit``,
``tt.dataio.read_split``, ...) and through ``from turntaking... import``
lines. An engine change that renames or drops one of those would break a
workload without failing any other test, so each is resolved here on the
imported package. The scripts are read as text, not run.
"""

import importlib
import re
from pathlib import Path

import pytest

import turntaking.dataio  # noqa: F401  (the benchmark imports it; the package does not)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
NAME = r"[A-Za-z_]\w*"
TT_CHAIN = re.compile(rf"\btt((?:\.{NAME})+)")
FROM_IMPORT = re.compile(rf"^\s*from (turntaking(?:\.{NAME})*) import \(?([\w, ]+)\)?", re.M)


def chains():
    """(file, dotted name) for every package name the benchmark scripts use."""
    found = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        text = path.read_text()
        for match in TT_CHAIN.finditer(text):
            found.add((path.name, "turntaking" + match.group(1)))
        for module, names in FROM_IMPORT.findall(text):
            found.update((path.name, f"{module}.{name.strip()}") for name in names.split(","))
    return sorted(found)


def test_benchmarks_use_the_package():
    # Guards the scan itself: a pattern that matched nothing would pass vacuously.
    names = {name for _, name in chains()}
    for expected in ("turntaking.conversation_nll_gradients", "turntaking.sample_conversation",
                     "turntaking.dataio.read_split", "turntaking.training.FitConfig"):
        assert expected in names


@pytest.mark.parametrize("path, name", chains())
def test_benchmark_name_resolves(path, name):
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for depth, part in enumerate(parts[1:], start=2):
        # ``from turntaking.x import y`` may name a module not loaded yet.
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(
            ".".join(parts[:depth])
        )

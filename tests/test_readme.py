"""README.md runs as written and lists the CLI's config keys.

Every ``python`` block is executed, and every ``turntaking`` command of the
shell blocks runs through ``cli.main`` with a small config appended.
"""

import re
import shlex
from pathlib import Path

import pytest

from turntaking.cli import _KEYS, main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
FENCED = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, re.M | re.S)
BLOCKS = [body for lang, body in FENCED if lang == "python"]
COMMANDS = [
    lines
    for lang, body in FENCED
    if not lang
    and (lines := [line for line in body.replace("\\\n", " ").splitlines()
                   if line.startswith("turntaking ")])
]
# Appended to every command so a block finishes in seconds.
TINY_CONFIG = "turns=40\nmax_outer=2\n"


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    # Files an example writes land in a scratch directory.
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})


def test_readme_has_shell_commands():
    assert COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_readme_shell_block_runs(index, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("tiny.cfg").write_text(TINY_CONFIG, encoding="utf-8")
    for line in COMMANDS[index]:
        code = main([*shlex.split(line)[1:], "--config", "tiny.cfg"])
        assert code == 0, f"{line!r} exited {code}: {capsys.readouterr().err}"


def test_readme_config_keys_are_the_cli_keys():
    section = TEXT.split("### Config keys\n\n", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(_KEYS)

"""The README's examples run as written.

The Python quick start is executed as one block, and every ``gmspike ...``
line of its shell blocks goes through ``cli.main`` in a temporary directory.
"""

import re
import shlex
from pathlib import Path

import pytest

from gmspike import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
COMMANDS = [
    line
    for lang, body in BLOCKS
    if lang == "sh"
    for line in body.splitlines()
    if line.startswith("gmspike ")
]


def test_python_quick_start_runs():
    (quick_start,) = [body for lang, body in BLOCKS if lang == "python"]
    namespace = {}
    exec(compile(quick_start, "README.md", "exec"), namespace)
    assert namespace["report"].max_abs_err < 1e-4


def test_shell_examples_are_found():
    # An empty parameter list would skip the test below, not fail it.
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_shell_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line, comments=True)[1:]) == 0

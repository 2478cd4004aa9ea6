"""The README's Python examples and command lines run as written."""

import re
import shlex
from pathlib import Path

import pytest

from kramers import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)
COMMANDS = [
    line for line in re.search(r"## Command line\n\n```\n(.*?)```", TEXT, re.S)
    .group(1).splitlines() if line.startswith("kramers ")
]


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_command_lines():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_runs(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where an --output file is written
    assert cli.main(shlex.split(line)[1:]) == 0

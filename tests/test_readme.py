"""The README's Python examples and command lines run as written."""

import json
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


def strict_json(text):
    """Parse ``text`` as JSON, rejecting the Infinity and NaN that Python's
    json writes for non-finite floats (not JSON under RFC 8259)."""
    def reject(constant):
        raise ValueError(f"{constant} is not a JSON number")

    return json.loads(text, parse_constant=reject)


def test_strict_json_rejects_non_finite():
    for constant in ("Infinity", "-Infinity", "NaN"):
        with pytest.raises(ValueError, match=f"{constant} is not a JSON number"):
            strict_json(f'{{"K_v": {constant}}}')


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_runs(line, tmp_path, monkeypatch, capsys):
    """Each line exits 0, and one with --format json writes strict JSON."""
    monkeypatch.chdir(tmp_path)  # where an --output file is written
    argv = shlex.split(line)[1:]
    assert cli.main(argv) == 0
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        text = capsys.readouterr().out
        if "--output" in argv:
            text = Path(argv[argv.index("--output") + 1]).read_text(encoding="utf-8")
        assert strict_json(text)["data"]

"""The README's Python examples and command lines run as written."""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from kramers import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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


COUNT_WORDS = ("Zero", "One", "Two", "Three", "Four", "Five", "Six", "Seven",
               "Eight", "Nine", "Ten", "Eleven", "Twelve")


def module_caches():
    """``module.function`` of every module-level function of the package
    under ``lru_cache`` or ``functools.cache``, with or without arguments."""
    names = []
    for path in sorted((ROOT / "src" / "kramers").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    names.append(f"{path.stem}.{node.name}")
    return names


def test_cache_paragraph_names_every_cache():
    """The thread-safety paragraph counts the package's module-level caches
    in words and names each one."""
    caches = module_caches()
    paragraph = next(p for p in TEXT.split("\n\n") if "outlive a call" in p)
    count = re.search(r"(\w+) caches\s+outlive a call", paragraph).group(1)
    assert count == COUNT_WORDS[len(caches)], caches
    missing = [name for name in caches if f"`{name}`" not in paragraph]
    assert not missing

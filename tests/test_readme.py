"""The README's examples, run: every ```python block, and every
``flipbet significance ... # -> value`` line through the CLI."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from flipbet.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
CLI_LINES = re.findall(r"^(flipbet significance [^#\n]*?) *# -> (\S+)$", README, re.MULTILINE)


def test_the_readme_has_examples():
    assert PYTHON_BLOCKS and CLI_LINES


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda block: block.splitlines()[0])
def test_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("line, printed", CLI_LINES, ids=[line for line, _ in CLI_LINES])
def test_cli_line_prints_its_value(line, printed, capsys):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out == printed + "\n"

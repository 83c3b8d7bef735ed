"""The README's Library example runs and its shell examples parse as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from ashg import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert blocks, "no python block in the README's Library section"
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})


def test_shell_examples_parse():
    # Each `ashg ...` command of the README's sh blocks, continuation lines
    # joined, must be accepted by the CLI's parser; nothing is run.
    text = README.read_text(encoding="utf-8")
    script = "\n".join(re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL))
    commands = [line for line in script.replace("\\\n", " ").splitlines()
                if line.startswith("ashg ")]
    assert len(commands) >= 10, commands
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit as exc:
            pytest.fail(f"README command does not parse (exit {exc.code}): {command}")

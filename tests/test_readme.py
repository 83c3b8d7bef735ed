"""The README's Library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert blocks, "no python block in the README's Library section"
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})

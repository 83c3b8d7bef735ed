"""The package's public names and sources: `ashg.__all__` lists each
export once, every listed name exists, so a removed export cannot linger
in it, every module parses as the oldest Python that `pyproject.toml`
admits, the runtime imports nothing outside the standard library, every
relative import points down the module ranks, and the generators'
module loads only when one of its names is used."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ashg

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ashg").glob("*.py"))


def test_all_has_no_duplicates():
    assert len(ashg.__all__) == len(set(ashg.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in ashg.__all__ if not hasattr(ashg, name)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    # pyproject.toml sets requires-python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# A module imports only from modules of strictly lower rank: no import
# runs upward, whether at module level, inside a function or under
# TYPE_CHECKING.
RANKS = {
    "errors": 0,
    "game": 1,
    "decomposition": 2,
    "formats": 3,
    "coloring": 3,
    "connected": 3,
    "oracle": 3,
    "reductions": 4,
    "cli": 5,
    "__init__": 6,
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_relative_imports_point_down(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from .game import x` names its module; `from . import x` lists them
            targets += [node.module] if node.module else [a.name for a in node.names]
    upward = [t for t in targets if RANKS[t] >= RANKS[path.stem]]
    assert upward == []


def test_reductions_imported_only_on_use():
    # its dataclasses cost about a third of the package's import time, and
    # only `ashg gen`, `parse_cnf` and the names it defines, the generators
    # and `square_instance` among them, need them; the rest of the package
    # loads no `dataclasses` module at all
    probe = (
        "import sys, ashg, ashg.cli\n"
        "print('ashg.reductions' in sys.modules, 'dataclasses' in sys.modules)\n"
        "print(hasattr(ashg, 'no_such_name'), 'ashg.reductions' in sys.modules)\n"
        "ashg.gen_bin_packing\n"
        "print('ashg.reductions' in sys.modules)\n"
        "print(ashg.square_instance.__module__)\n"
    )
    src = str(Path(ashg.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "False", "False", "False", "True", "ashg.reductions"]

"""The runtime package imports nothing outside the standard library, at
module level or inside a function."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ppmkit"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_every_module_is_scanned():
    assert len(MODULES) == 14


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_top_level_imports_are_stdlib_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        foreign += [root for root in roots if root not in sys.stdlib_module_names]
    assert foreign == []

"""Every name a module of the package imports must be used in that module.

A stdlib stand-in for a linter's unused-import rule.  ``__init__.py`` is
skipped: what it imports is the package's public API.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cascadim"
# (module, name) pairs imported only so that another module can reach them there
ALLOWED = {("cascade.py", "codes_to_letters")}  # traced by perfbench/layers.py


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text())
    used = _used(tree)
    unused = [name for name in _imported(tree) if name not in used and (module, name) not in ALLOWED]
    assert unused == []

"""No module of the package changes the process-wide warning filters.

A stdlib lint.  The filter list is shared by every thread, so a
``catch_warnings`` block held around worker threads, or a ``simplefilter``,
``filterwarnings`` or ``resetwarnings`` call, silences or changes warnings
for code that never asked for it.  A condition that a run should report goes
into the run's report instead.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cascadim"
FILTER_CALLS = {"catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"}


def _filter_calls(tree):
    """Each call of a filter function, by attribute (``warnings.simplefilter``) or by imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "warnings":
            for alias in node.names:
                if alias.name in FILTER_CALLS:
                    yield f"from warnings import {alias.name}, line {node.lineno}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in FILTER_CALLS:
                yield f"{name}(), line {node.lineno}"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_warning_filter(module):
    assert list(_filter_calls(ast.parse((SRC / module).read_text()))) == []


def test_the_lint_sees_every_filter_call():
    source = (
        "import warnings\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore')\n"
        "warnings.filterwarnings('error')\n"
        "warnings.resetwarnings()\n"
        "warnings.warn('a warning is not a filter')\n"
    )
    found = list(_filter_calls(ast.parse(source)))
    assert sorted(line.split("(")[0] for line in found) == sorted(FILTER_CALLS)
    imported = "from warnings import simplefilter as quiet\nquiet('ignore')\n"
    assert list(_filter_calls(ast.parse(imported))) == ["from warnings import simplefilter, line 1"]

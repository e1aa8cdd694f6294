"""No function of the package takes a parameter whose name starts with ``_``.

A stdlib lint.  An underscored parameter is a private flag that lets a caller
promise what the function would otherwise check (a ``_merged=True`` skipping a
merge), and a wrong promise gives a silently wrong result.  The function should
check for itself instead.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cascadim"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _private_parameters(tree):
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            args = node.args
            named = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            for arg in named:
                if arg.arg.startswith("_"):
                    yield f"{getattr(node, 'name', 'lambda')}({arg.arg}), line {node.lineno}"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_underscored_parameter(module):
    assert list(_private_parameters(ast.parse((SRC / module).read_text()))) == []


def test_the_lint_sees_every_kind_of_parameter():
    source = "def f(_a, /, _b, *_c, _d, **_e): pass\nasync def g(_f): pass\nh = lambda _g: _g\n"
    assert len(list(_private_parameters(ast.parse(source)))) == 7

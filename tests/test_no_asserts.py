"""Checks that hold under `python -O`: no module of weilkit uses `assert`.

`assert` vanishes under `python -O`, so exact checks call `checks.verify`.
A failed check raises `VerificationError`, never a bare `AssertionError`.
The tests read every module of the package, so a new one is covered too.
"""

import ast
from pathlib import Path

import weilkit


def _lines(is_bad):
    """Module name -> line numbers of the AST nodes `is_bad` picks."""
    package = Path(weilkit.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert "dieudonne.py" in [path.name for path in modules]
    found = {}
    for path in modules:
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if is_bad(node)]
        if lines:
            found[path.name] = lines
    return found


def test_modules_have_no_assert_statements():
    assert _lines(lambda node: isinstance(node, ast.Assert)) == {}


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_modules_raise_no_bare_assertion_error():
    assert _lines(_raises_assertion_error) == {}

"""Checks that hold under `python -O`: no module of weilkit uses `assert`.

`assert` vanishes under `python -O`, so exact checks call `checks.verify`.
The test reads every module of the package, so a new one is covered too.
"""

import ast
from pathlib import Path

import weilkit


def test_modules_have_no_assert_statements():
    package = Path(weilkit.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert "dieudonne.py" in [path.name for path in modules]
    found = {}
    for path in modules:
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert found == {}

"""Checks that hold under `python -O`: modules without `assert` statements.

`assert` vanishes under `python -O`, so exact checks call `checks.verify`.
These modules have no `assert` left; the test keeps it that way, so the
count can only fall.  `dieudonne` still has some.
"""

import ast
from pathlib import Path

import weilkit

ASSERT_FREE = (
    "__init__",
    "central_orders",
    "checks",
    "cli",
    "gfpoly",
    "hensel",
    "hondatate",
    "intmatrix",
    "intpoly",
    "padic",
    "padicorders",
    "supersingular",
    "tablering",
    "weil",
    "zfactor",
)


def test_modules_have_no_assert_statements():
    package = Path(weilkit.__file__).parent
    found = {}
    for name in ASSERT_FREE:
        tree = ast.parse((package / (name + ".py")).read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[name] = lines
    assert found == {}

"""Invariants in the package raise named exceptions, never `assert`.

`python -O` strips `assert` statements, so a broken invariant guarded by
one would pass silently.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "smsquiver"


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

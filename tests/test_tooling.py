"""Checks on the package source itself."""

import ast
import os

import extremal_lie

PACKAGE_DIR = os.path.dirname(os.path.abspath(extremal_lie.__file__))


def test_no_assert_statements_in_package():
    """Invariants raise typed exceptions: ``assert`` vanishes under ``python -O``."""
    found = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE_DIR, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []

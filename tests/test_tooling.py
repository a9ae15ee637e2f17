"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys

import pytest

import extremal_lie

PACKAGE_DIR = os.path.dirname(os.path.abspath(extremal_lie.__file__))
REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# demos/tables.py builds L_5 twice (about 5 s on a 2-core host)
DEMOS = ("radical_chain.py", "root_groups.py", "three_generators.py", "minimal_generators.py", "tables.py")


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


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, os.path.join("demos", demo)], cwd=REPO_DIR, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr

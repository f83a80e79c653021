"""The committed mutants of ``tests/mutants.py`` stay attached to the code:
each record's old text occurs exactly once in its file, and each test it
names is a test function of an existing file."""

import ast

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("m", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(m):
    assert (ROOT / m.path).read_text().count(m.old) == 1, m.path
    assert m.tests and m.old != m.new
    for node in m.tests:
        path, _, func = node.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        defined = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
        assert func.split("[")[0] in defined, node

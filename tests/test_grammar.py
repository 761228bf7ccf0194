"""Every module of the package parses with the grammar of the oldest Python
that pyproject.toml's requires-python allows.

This checks grammar only, such as `except*`, `type X = ...` or generic
parameters on a def, which ast.parse rejects below their version. It cannot
catch a library's behaviour that differs between versions, such as the
possessive quantifiers that `re` accepts only from Python 3.11: for those,
`.github/workflows/tests.yml` runs the whole suite on the oldest Python."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "gammaineq").glob("*.py"))


def oldest_python():
    """(major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("module", MODULES, ids=[module.name for module in MODULES])
def test_module_parses_at_the_oldest_python_allowed(module):
    ast.parse(module.read_text(encoding="utf-8"), filename=str(module), feature_version=oldest_python())


@pytest.mark.parametrize(
    "source",
    ["try:\n    pass\nexcept* ValueError:\n    pass\n", "type X = int\n", "def f[T](x: T) -> T:\n    return x\n"],
    ids=["except-star", "type-alias", "generic-def"],
)
def test_the_gate_rejects_grammar_newer_than_python_3_10(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))

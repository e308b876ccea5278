"""Static checks on the library source, read with ast and never imported.

An `assert` in src/ vanishes under `python -O`, so every invariant there must
raise instead.  An imported name that the module never uses is dead weight
that hides the module's real dependencies.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "quadrec"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_source_modules_are_found():
    assert {p.name for p in MODULES} >= {"certificates.py", "ring.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = sorted(node.lineno for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Assert))
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert unused == [], f"{path.name}: unused imports {unused}"


def test_the_checks_catch_what_they_look_for(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\nfrom math import gcd, lcm\n"
                   "assert lcm(2, 3) == 6\n", encoding="utf-8")
    with pytest.raises(AssertionError, match=r"assert at lines \[3\]"):
        test_no_assert_statements(bad)
    with pytest.raises(AssertionError,
                       match=r"unused imports \[\(1, 'os'\), \(2, 'gcd'\)\]"):
        test_no_unused_imports(bad)

"""No module of the package, the tests or the scripts imports a name it leaves unused."""

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "recgraph").glob("*.py"))
SCRIPTS = sorted((REPO_ROOT / "tests").glob("*.py")) + sorted((REPO_ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that nothing reads or exports."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_the_package_has_modules_to_check():
    assert len(MODULES) >= 9
    assert len(SCRIPTS) >= 14


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_import_left_after_its_last_use_is_caught():
    source = "from itertools import accumulate, chain\n\nx = accumulate([1])\n"
    assert unused_imports(source) == [(1, "chain")]
    assert unused_imports("import numpy as np\n__all__ = ['np']\n") == []
    assert unused_imports("import os.path\n\nos.sep\n") == []

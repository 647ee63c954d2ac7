"""No module of the package, the tests or the scripts imports a name it leaves unused,
and no private module-level name or UPPER_CASE constant of the package goes unread
by the package."""

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


def unread_module_names(sources) -> list:
    """Module-level functions, classes and assigned names of ``sources`` that none
    of them reads, by name or as an attribute; dunder names are left out."""
    defined = set()
    read = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(name for name in defined - read if not name.startswith("__"))


def unread_private_names(sources) -> list:
    """The ``_``-prefixed names among :func:`unread_module_names`."""
    return [name for name in unread_module_names(sources) if name.startswith("_")]


def unread_constants(sources) -> list:
    """The UPPER_CASE names, public or private, among :func:`unread_module_names`."""
    return [name for name in unread_module_names(sources) if name.isupper()]


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


def test_every_private_name_of_the_package_is_read_in_it():
    assert unread_private_names(path.read_text(encoding="utf-8") for path in MODULES) == []


def test_a_private_name_left_after_its_last_read_is_caught():
    source = ("_A, _B = 1, 2\n_C: int = 3\n__version__ = '1'\n\n\n"
              "def _helper():\n    return _A\n\n\nclass _Gone:\n    pass\n\n\n"
              "def public():\n    _C = 4\n    return _helper()\n")
    assert unread_private_names([source]) == ["_B", "_C", "_Gone"]
    # a read in another module counts, by name or as a module attribute
    assert unread_private_names([source, "from m import _B, _C\n_B\nm._Gone\nm._C\n"]) == []


def test_every_constant_of_the_package_is_read_in_it():
    # reads in the tests do not count: a constant only tests read is dead
    assert unread_constants(path.read_text(encoding="utf-8") for path in MODULES) == []


def test_a_constant_left_after_its_last_read_is_caught():
    source = ("LIMIT = 5\nTOLERANCE = 1e-9\n_SPAN: int = 2\nlower = 1\n__all__ = []\n\n\n"
              "def check(x):\n    return x < LIMIT\n")
    assert unread_constants([source]) == ["TOLERANCE", "_SPAN"]
    assert unread_constants([source, "import m\nm.TOLERANCE\nfrom m import _SPAN\n_SPAN\n"]) == []

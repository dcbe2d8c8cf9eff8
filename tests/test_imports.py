"""Import hygiene of the package, checked with the standard library only."""

import ast
from pathlib import Path

import prisquad

PACKAGE_DIR = Path(prisquad.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.  A name listed in the module's
    ``__all__`` counts as read, since it is re-exported."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_detected():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)", "path (line 2)"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = {
        path.name: unused
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from prisquad import *", namespace)
    for name in prisquad.__all__:
        assert namespace[name] is getattr(prisquad, name), name

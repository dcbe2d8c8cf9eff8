"""Import hygiene of the package, checked with the standard library only."""

import ast
from pathlib import Path

import prisquad

PACKAGE_DIR = Path(prisquad.__file__).parent
TESTS_DIR = Path(__file__).parent


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


def dataclass_fields(source: str) -> list[str]:
    """``Class.field`` for each annotated field of every dataclass in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            continue
        found += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return found


def attribute_reads(source: str) -> set[str]:
    """Every attribute name a module reads (``x.name`` in a load context)."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def write_only_fields(sources: list[str]) -> list[str]:
    """Dataclass fields of ``sources`` that none of them reads as an attribute."""
    read = set().union(*map(attribute_reads, sources))
    return [name for source in sources for name in dataclass_fields(source)
            if name.split(".")[1] not in read]


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


def test_write_only_field_is_detected():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    kept: int = 0\n    dropped: int = 0\n"
              "a = A()\na.dropped = 1\nprint(a.kept)\n")
    assert write_only_fields([source]) == ["A.dropped"]


def test_every_dataclass_field_is_read_somewhere():
    paths = sorted(PACKAGE_DIR.glob("*.py")) + sorted(TESTS_DIR.glob("*.py"))
    assert write_only_fields([path.read_text() for path in paths]) == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from prisquad import *", namespace)
    for name in prisquad.__all__:
        assert namespace[name] is getattr(prisquad, name), name

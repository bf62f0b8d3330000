"""Guards over the package source, read as syntax trees: no unused imports,
and replica disorder drawn in one place."""

import ast
import importlib
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "copolab").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # a name listed in the module's __all__ is a re-export, and so in use
    tree = _tree(path)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module("copolab" + ("" if path.stem == "__init__" else "." + path.stem))
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []


def _call_sites(name):
    """(module, dotted enclosing function) of every call of ``name`` in the package."""
    sites = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    sites.add((module, scope))
            visit(child, module, inner)

    for path in MODULES:
        visit(_tree(path), path.stem, "")
    return sites


def test_replicas_are_drawn_only_by_the_seeded_source():
    # outside disorder, charges are drawn by estimators._replica_prefixes
    # alone; the oracle's stream gate compares the streams themselves
    source = ("estimators", "_replica_prefixes")
    outside = {name: {s for s in _call_sites(name) if s[0] != "disorder"} for name in ("_draw", "replica_rngs")}
    assert outside == {"_draw": {source}, "replica_rngs": {source, ("cli", "_suite_oracle")}}

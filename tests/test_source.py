"""Guards over the package source, read as syntax trees: no unused imports,
no parameter a function never reads, replica disorder drawn in one place,
one pass loop for both replica engines, private names crossing modules
only where a table lists them (none into the front end), and a package
namespace that imports nothing, so a module loads only what it imports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "copolab").glob("*.py"))


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


def test_no_function_takes_a_parameter_it_never_reads():
    # a parameter read only by a nested function or lambda counts as read;
    # lambdas themselves are exempt, as _passes calls every evaluate(rows, ws)
    unread = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                names = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
                read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
                unread += [f"{path.stem}.{node.name}({p.arg})" for p in params if p and p.arg not in read]
    assert unread == []


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
    assert outside == {"_draw": {source}, "replica_rngs": {source, ("checks", "oracle")}}


def test_passes_are_cut_only_by_the_one_pass_loop():
    # both replica engines take their workspace from partition._passes, its
    # one caller; no engine keeps a pass loop of its own
    assert _call_sites("_workspace") == {("partition", "_passes")}


def test_pass_rows_size_engine_passes_only():
    # the rows-per-pass rule sizes the two engines' passes and nothing else
    assert _call_sites("_pass_rows") == {("partition", "_quenched_pass"), ("partition", "_trimmed_pass")}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


# the private names each module takes from another package module, as
# "module._name", by `from .module import _name` or as `module._name`: the
# front end takes none, checks what places its oracle cases, and estimators
# what feeds the engines and sizes their passes.  A new coupling fails here
# until it is listed
PRIVATE_IMPORTS = {
    "__init__": set(),
    "bounds": set(),
    "checks": {
        "estimators._replica_prefixes", "partition._BLOCK", "partition._FILL_ROWS",
        "partition._GEMM_REPLICAS", "partition._log_z_replicas", "partition._trimmed_log_z_replicas",
    },
    "cli": set(),
    "disorder": set(),
    "estimators": {
        "disorder._draw", "partition._GEMM_REPLICAS", "partition._charge_rows",
        "partition._log_z_replicas", "partition._quenched_pass", "partition._trimmed_log_z_replicas",
        "partition._trimmed_pass", "partition._trimmed_size", "partition._trimmed_stages",
    },
    "kernel": set(),
    "partition": set(),
}


def _private_imports(path):
    tree = _tree(path)
    internal = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("copolab"))
    ]
    modules = {
        alias.asname or alias.name: alias.name
        for node in internal if node.module in (None, "copolab") for alias in node.names
    }
    imported = [
        f"{node.module.rsplit('.', 1)[-1]}.{alias.name}"
        for node in internal if node.module not in (None, "copolab") for alias in node.names
    ]
    reached = [
        f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules
    ]
    return {name for name in imported + reached if _private(name.rsplit(".", 1)[-1])}


def test_private_names_crossing_modules_are_the_listed_ones():
    assert {path.stem: _private_imports(path) for path in MODULES} == PRIVATE_IMPORTS


def test_package_namespace_holds_only_the_version():
    # names are imported from their modules, never through the package
    tree = _tree(SRC / "copolab" / "__init__.py")
    assert [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []
    (exports,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    assert ast.literal_eval(exports) == ["__version__"]


@pytest.mark.parametrize(
    "module,loaded",
    [
        ("disorder", ["disorder"]),
        ("kernel", ["kernel"]),
        ("estimators", ["bounds", "disorder", "estimators", "kernel", "partition"]),
        ("cli", ["bounds", "checks", "cli", "disorder", "estimators", "kernel", "partition"]),
    ],
)
def test_importing_a_module_loads_only_what_it_imports(module, loaded):
    # in a fresh interpreter; cli and estimators are the benchmark's entry modules
    probe = f"import sys, copolab.{module}; print(sorted(m for m in sys.modules if m.startswith('copolab.')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == str([f"copolab.{name}" for name in loaded])

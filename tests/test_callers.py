"""Every function and class the package re-exports has a caller inside the
package: a public name that nothing in ``src/neurodavis`` uses is dead API.
Every function the benchmark probes exists under the name it probes."""

import ast
import importlib
from pathlib import Path

import pytest

import neurodavis

PACKAGE = Path(neurodavis.__file__).parent
PROBE = Path(__file__).resolve().parent.parent / "bench" / "probe.py"

# Library entry points: the README's pipeline starts here, so nothing in the
# package calls it.
ENTRY_POINTS = {"run_preservation_suite"}


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names used anywhere in the module, except inside the top-level
    definition that has the same name (its own body or recursion)."""
    found = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_reexported_function_and_class_has_a_caller():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported
    }
    referenced = set().union(
        *(_referenced_names(tree) for name, tree in trees.items() if name != "__init__.py")
    )
    assert defined, "no re-exported definitions found"
    assert sorted(defined - referenced - ENTRY_POINTS) == []


def test_every_benchmark_probe_target_exists():
    # bench/probe.py rebinds each TARGETS name at install; a renamed function
    # makes that raise AttributeError and the benchmark run fail
    if not PROBE.is_file():
        pytest.skip(f"{PROBE} is absent")
    tree = ast.parse(PROBE.read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert targets, "TARGETS is empty"
    missing = [
        f"neurodavis.{key.split('.')[0]}.{attr}"
        for key, attr in targets.items()
        if not hasattr(importlib.import_module(f"neurodavis.{key.split('.')[0]}"), attr)
    ]
    assert missing == []

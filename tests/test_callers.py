"""Every function and class the package re-exports has a caller inside the
package: a public name that nothing in ``src/neurodavis`` uses is dead API."""

import ast
from pathlib import Path

import neurodavis

PACKAGE = Path(neurodavis.__file__).parent

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

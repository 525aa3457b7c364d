"""One distance kernel per job: only ``numerics.py`` subtracts two row sets
broadcast against each other (``a[:, None, :] - b[None, :, :]``). Every other
module reads its distances from ``numerics``."""

import ast
from pathlib import Path

import neurodavis

PACKAGE = Path(neurodavis.__file__).parent


def _broadcast(node: ast.AST) -> bool:
    """A subscript with a new axis in its index, such as ``a[:, None]``."""
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice
    parts = index.elts if isinstance(index, ast.Tuple) else [index]
    return any(
        (isinstance(p, ast.Constant) and p.value is None)
        or (isinstance(p, ast.Attribute) and p.attr == "newaxis")
        for p in parts
    )


def row_set_differences(source: str) -> list[int]:
    """Line numbers of subtractions whose two operands are both broadcast."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and _broadcast(node.left)
        and _broadcast(node.right)
    ]


def test_detector():
    assert row_set_differences("d = a[:, None, :] - b[None, :, :]") == [1]
    assert row_set_differences("d = x[t][:, None] - x[None]") == [1]
    assert row_set_differences("d = a[:, np.newaxis] - b[np.newaxis]") == [1]
    assert row_set_differences("d = a[ii] - a[jj]\nd = a - b[None]") == []


def test_only_numerics_builds_row_set_differences():
    found = {
        path.name: row_set_differences(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    kernel = found.pop("numerics.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert kernel, "the numerics kernel is no longer recognised"

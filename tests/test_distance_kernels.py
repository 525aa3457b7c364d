"""One distance kernel per job: only ``numerics.py`` subtracts two row sets
broadcast against each other (``a[:, None, :] - b[None, :, :]``, or the same
through ``np.subtract``). Every other module reads its distances from
``numerics``. One scaling rule: only ``numerics.py`` picks a power of two
(calls ``frexp`` or ``ldexp``)."""

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


def _operands(node: ast.AST) -> list[ast.AST]:
    """The two operands of ``a - b`` or ``np.subtract(a, b, ...)``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return [node.left, node.right]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Attribute, ast.Name))
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "subtract"
    ):
        return node.args[:2]
    return []


def row_set_differences(source: str) -> list[int]:
    """Line numbers of subtractions whose two operands are both broadcast."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if len(ops := _operands(node)) == 2 and all(map(_broadcast, ops))
    ]


def test_detector():
    assert row_set_differences("d = a[:, None, :] - b[None, :, :]") == [1]
    assert row_set_differences("d = x[t][:, None] - x[None]") == [1]
    assert row_set_differences("d = a[:, np.newaxis] - b[np.newaxis]") == [1]
    assert row_set_differences("d = a[ii] - a[jj]\nd = a - b[None]") == []
    assert row_set_differences("np.subtract(a[:, None], b[None], out=o)") == [1]
    assert row_set_differences("d = subtract(x[t][:, None], x[None])") == [1]
    assert row_set_differences("np.subtract(a, b[None], out=o)") == []


def test_only_numerics_builds_row_set_differences():
    found = {
        path.name: row_set_differences(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    kernel = found.pop("numerics.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert kernel, "the numerics kernel is no longer recognised"


def power_of_two_calls(source: str) -> list[int]:
    """Line numbers of calls to ``frexp`` or ``ldexp``, as ``np.ldexp(...)``
    or a bare imported ``ldexp(...)``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("frexp", "ldexp")
    ]


def test_power_of_two_detector():
    assert power_of_two_calls("y = np.ldexp(x, -e)") == [1]
    assert power_of_two_calls("m, e = numpy.frexp(x)") == [1]
    assert power_of_two_calls("np.ldexp(d, s, out=d)\ny = ldexp(x, 2)") == [1, 2]
    assert power_of_two_calls("y = np.exp(x)\nz = x * 2.0**-e\nf = np.ldexp") == []


def test_only_numerics_picks_a_power_of_two():
    found = {
        path.name: power_of_two_calls(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    kernel = found.pop("numerics.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert kernel, "the numerics scaling is no longer recognised"

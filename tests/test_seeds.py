"""No package code makes up a seed: every generator in ``src/neurodavis``
comes from a seed its caller chose, so ``make_rng`` and ``spawn_rng`` never
take a seed written as a constant there. A function that samples takes an
``rng`` instead: no other public function has a ``seed`` parameter."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import neurodavis

PACKAGE = Path(neurodavis.__file__).parent

SEEDED = {"make_rng", "spawn_rng"}


def constant_seeds(source: str) -> list[int]:
    """Line numbers of ``make_rng``/``spawn_rng`` calls whose seed argument
    names no variable, such as ``make_rng(0)`` or ``spawn_rng(2 ** 3, 1)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        name = getattr(func, "attr", getattr(func, "id", None))
        seed = node.args[0]
        if name in SEEDED and not any(
            isinstance(n, (ast.Name, ast.Attribute)) for n in ast.walk(seed)
        ):
            found.append(node.lineno)
    return found


def test_detector():
    assert constant_seeds("rng = make_rng(0)") == [1]
    assert constant_seeds("rng = nd.make_rng(2 ** 3)") == [1]
    assert constant_seeds("rng = spawn_rng(7, 1)") == [1]
    assert constant_seeds("rng = make_rng(seed)\nrng = make_rng(cfg.seed + r)") == []
    assert constant_seeds("rng = spawn_rng(config.seed, 1)") == []
    assert constant_seeds("x = rng.integers(0)") == []


def test_package_makes_up_no_seed():
    found = {
        path.name: constant_seeds(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_the_generator_makers_take_a_seed():
    # records such as ModelConfig and EvalReport carry a seed as data; they
    # are classes, so only functions are looked at
    takers = []
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"neurodavis.{info.name}")
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and "seed" in inspect.signature(obj).parameters
            ):
                takers.append(f"{info.name}.{name}")
    assert takers == ["numerics.make_rng", "numerics.spawn_rng"]

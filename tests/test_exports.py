import ast
import importlib
from pathlib import Path

import pytest

import worldline

MODULES = ("action", "cli", "diagnostics", "reference", "sbp", "solver")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"worldline.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_no_module_imports_a_private_name_from_a_sibling():
    # an underscore name belongs to its module; a sibling that needs it
    # should get a public name or own the code itself
    found = []
    for path in sorted(Path(worldline.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "worldline"
            )
            if sibling:
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []



def test_the_action_has_one_gradient_and_the_state_no_flat_form():
    # Newton reads the action through ``gradient(t, x, lam)`` and ``hessian``
    # alone; the doubled evaluators live in the tests' reference
    from worldline.action import BandedHessian, DiscreteAction, StateVector

    gone = [
        (DiscreteAction, "residual"),
        (DiscreteAction, "value"),
        (DiscreteAction, "constraints"),
        (StateVector, "pack"),
        (StateVector, "unpack"),
        (BandedHessian, "__array__"),
    ]
    assert [(cls.__name__, name) for cls, name in gone if hasattr(cls, name)] == []

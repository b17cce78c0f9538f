import ast
import importlib
from pathlib import Path

import numpy as np
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
    from worldline.action import BandedHessian, DiscreteAction, State

    gone = [
        (DiscreteAction, "residual"),
        (DiscreteAction, "value"),
        (DiscreteAction, "constraints"),
        (State, "pack"),
        (State, "unpack"),
        (BandedHessian, "__array__"),
    ]
    assert [(cls.__name__, name) for cls, name in gone if hasattr(cls, name)] == []


def test_the_source_holds_only_the_physical_limit():
    # the doubled state (t1, t2, x1, x2 and eight multipliers) is the tests'
    # reference; the program defines no doubled state and reads no branch
    found = []
    for path in sorted(Path(worldline.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            defined = isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name
            if defined in ("StateVector", "_lift"):
                found.append(f"{path.name}:{node.lineno} defines {defined}")
            if isinstance(node, ast.Attribute) and node.attr in ("t1", "t2", "x1", "x2"):
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert found == []

    cfg = worldline.ProblemConfig(potential=worldline.free_potential(), n_gamma=8)
    guess = worldline.initial_guess(cfg)
    with pytest.raises(ValueError, match="exactly four Lagrange multipliers"):
        worldline.DiscreteAction(cfg).gradient(guess.t, guess.x, np.zeros(8))

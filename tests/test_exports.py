import importlib

import pytest

MODULES = ("action", "cli", "diagnostics", "reference", "sbp", "solver")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"worldline.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []

import doctest
import importlib
from pathlib import Path

import pytest

import descon

_MODULES = [
    f"descon.{path.stem}" for path in sorted(Path(descon.__file__).parent.glob("[!_]*.py"))
]


@pytest.mark.parametrize("name", _MODULES)
def test_module_doctests(name):
    failures, _total = doctest.testmod(importlib.import_module(name))
    assert failures == 0

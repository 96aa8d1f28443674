import importlib
import pkgutil

import pytest

import seqcomplexity

MODULES = ["seqcomplexity"] + [f"seqcomplexity.{m.name}" for m in pkgutil.iter_modules(seqcomplexity.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing

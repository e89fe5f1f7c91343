"""Each flowmaplab module's __all__ names what the module defines publicly."""

import importlib
import inspect
import pkgutil

import pytest

import flowmaplab

MODULES = sorted(info.name for info in pkgutil.iter_modules(flowmaplab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_lists_every_public_function_and_class(name):
    mod = importlib.import_module(f"flowmaplab.{name}")
    exported = mod.__all__
    assert [n for n in exported if not hasattr(mod, n)] == []
    public = {n for n, obj in vars(mod).items()
              if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    assert sorted(public - set(exported)) == []

import importlib
import pkgutil

import pytest

import enkbf_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(enkbf_lab.__path__, "enkbf_lab."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_existing_attributes(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"

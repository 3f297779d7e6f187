import importlib
import pkgutil

import pytest

import fedalign

MODULES = sorted(info.name for info in pkgutil.iter_modules(fedalign.__path__, "fedalign."))


@pytest.mark.parametrize("name", ["fedalign"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

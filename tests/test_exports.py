import importlib
import pkgutil

import pytest

import gsvdkit

MODULES = ["gsvdkit"] + [
    f"gsvdkit.{info.name}" for info in pkgutil.iter_modules(gsvdkit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []
